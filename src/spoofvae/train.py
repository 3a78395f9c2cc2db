"""Two-stage training loops, checkpoint selection, and their config.

Stage 1 treats the whole corpus as unlabeled and fits the general encoder
plus its decoder to reconstruct log-mel inputs under a KL prior.  Stage 2
freezes the general encoder at its stage-1 weights and trains the
disentangled encoder, joint decoder, map decoder, classifier, and margin
head on labeled data, recording validation balanced accuracy once per
epoch.  The frozen encoder's (mu, logvar) rows are a per-clip output like
a score, so stage 2 computes them once, in one more pass of shares
(evaluate.on_stack) before its first step, and every batch reads them.

Both stages step through one loop, `_fit` (optimizer, micro-batch worker,
step and log line), over batches from one scheduler, `_batches`; a stage
gives only its loss and what each batch draws.

Every random choice flows from StageConfig.seed through one master stream:
child 0 seeds parameter initialization, child 1 drives batch shuffling,
child 2 supplies reparameterization noise.  Identical (seed, config,
manifest) therefore reproduce every checkpoint bit for bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from . import shares
from .checkpoint import (Checkpoint, checkpoint_from_bundle, load_net_params,
                         restore_bundle)
from .config import (F32_NON_NEGATIVE, F32_POSITIVE, MAX_COUNT, SEED, UNIT,
                     JsonConfig, bounded)
from .dsp import FrontendConfig
from .errors import ContractError, FormatError, InputError, NumericalError
from .evaluate import (ScoredClips, balanced_accuracy, check_finite_scores,
                       featurize, on_stack, score_features)
from .losses import (CosFaceHead, LossReport, LossWeights, format_loss_record,
                     stage1_loss, stage2_loss)
from .model import STAGE1_NETS, STAGE2_NETS, ModelConfig, build_model
from .optim import AdamW
from .rng import Stream
from .tensor import Tensor

SMOOTHING = 0.98  # exponential moving average factor for the loss curve

# micro-batches a training batch is split into; a constant rather than the
# CPU count, so no output byte depends on the machine
K = 2


@dataclass(frozen=True)
class StageConfig(JsonConfig):
    """Hyperparameters for one training stage; JSON keys mirror field names."""

    stage: int
    learning_rate: float = bounded(1e-3, F32_POSITIVE)
    beta1: float = bounded(0.9, UNIT)
    beta2: float = bounded(0.999, UNIT)
    epsilon: float = bounded(1e-8, F32_POSITIVE)
    weight_decay: float = bounded(0.0, F32_NON_NEGATIVE)
    lr_decay: float = bounded(0.0, UNIT)
    batch_size: int = bounded(32, 1, MAX_COUNT)
    max_iterations: int = bounded(0, 0, MAX_COUNT)
    epochs: int = bounded(0, 0, MAX_COUNT)
    seed: int = bounded(0, SEED)
    convergence_threshold: float | None = bounded(None, F32_NON_NEGATIVE)
    cosface_scale: float = bounded(30.0, F32_POSITIVE)
    cosface_margin: float = bounded(0.35, UNIT)
    loss_weights: LossWeights = field(default_factory=LossWeights)
    model: ModelConfig = field(default_factory=ModelConfig)
    frontend: FrontendConfig = field(default_factory=FrontendConfig)

    def __post_init__(self):
        super().__post_init__()
        if self.stage not in (1, 2):
            raise InputError(f"stage must be 1 or 2, got {self.stage}")
        if self.stage == 1 and self.max_iterations < 1:
            raise InputError("stage 1 needs max_iterations >= 1")
        if self.stage == 2 and self.epochs < 1:
            raise InputError("stage 2 needs epochs >= 1")
        self.frontend.check_fits(self.model)

    @classmethod
    def stage1(cls, **overrides) -> "StageConfig":
        base = cls(stage=1, learning_rate=1e-3, lr_decay=5e-7,
                   batch_size=32, max_iterations=300)
        return dataclasses.replace(base, **overrides) if overrides else base

    @classmethod
    def stage2(cls, **overrides) -> "StageConfig":
        base = cls(stage=2, learning_rate=1e-4, weight_decay=1e-3,
                   batch_size=32, epochs=30)
        return dataclasses.replace(base, **overrides) if overrides else base

    @classmethod
    def from_dict(cls, d) -> "StageConfig":
        """Parse d, then apply it over the stage1()/stage2() preset."""
        parsed = cls._parse_fields(d)
        base = cls.stage1() if parsed["stage"] == 1 else cls.stage2()
        return dataclasses.replace(base, **parsed)


# ---- shared plumbing ---------------------------------------------------------

def load_features(records, frontend: FrontendConfig):
    """Front-end features for records; returns (feats, labels).

    feats is (N, 1, mels, frames) float32, labels int8 with 1 = synthetic.
    Any unreadable clip raises InputError; training wants a complete corpus.
    """
    (_, labels, _), feats, failures = featurize(records, frontend)
    if failures:
        first = failures[0]
        raise InputError(f"{len(failures)} of {len(records)} clips failed; "
                         f"first: {first['path']}: {first['error']}")
    return feats, labels


def _corpus(records, cfg: StageConfig, stage: int):
    """(feats, labels, [init, shuffle, noise] streams) of a stage's run.

    The config and the corpus are checked before any clip is read.
    """
    if cfg.stage != stage:
        raise ContractError(
            f"train_stage{stage} got a stage-{cfg.stage} config")
    if not records:
        raise InputError(f"stage {stage} corpus is empty")
    feats, labels = load_features(records, cfg.frontend)
    return feats, labels, [Stream(cfg.seed).spawn(i) for i in range(3)]


def _val_features(records, frontend: FrontendConfig):
    """load_features of a validation set, which needs both labels."""
    feats, labels = load_features(records, frontend)
    if len(set(labels.tolist())) < 2:
        raise InputError("validation manifest needs both labels")
    return feats, labels


def _val_balanced_accuracy(bundle, feats, labels, epoch: int) -> float:
    scores = score_features(bundle, feats)
    check_finite_scores(scores, f"epoch {epoch}: validation scores")
    return balanced_accuracy(ScoredClips(scores, labels))


def _general_rows(bundle, feats: np.ndarray) -> np.ndarray:
    """The frozen general encoder's rows per clip: [:, 0] mu, [:, 1] logvar.

    One (n, 2, latent) pass over feats (see evaluate.on_stack), in shares,
    before the first step.  The network is called directly rather than
    through model.encode, so no training step appears to start here.
    """
    return on_stack(feats, lambda x: np.stack(
        [t.data for t in bundle.general_encoder(x)], axis=1),
        2, bundle.config.latent_dim)


def _batches(n: int, batch_size: int, stream: Stream):
    """Endless batch indices: one shuffle a pass, the short tail included."""
    while True:
        order = stream.permutation(n)
        for pos in range(0, n, batch_size):
            yield order[pos:pos + batch_size]


# ---- one step in micro-batches --------------------------------------------------

def _micro_spans(n: int) -> list:
    """[lo, hi) of each micro-batch of a batch of n: contiguous, none empty.

    The first is the larger when K does not divide n.
    """
    edges = [-(-n * i // K) for i in range(K + 1)]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]


def _requests(per_clip, *whole) -> list:
    """Each micro-batch's loss arguments: its rows of each per_clip array,
    its share of the batch, then the whole-batch values."""
    n = per_clip[0].shape[0]
    return [(*(a[lo:hi] for a in per_clip), (hi - lo) / n, *whole)
            for lo, hi in _micro_spans(n)]


def _gradients(params, loss, *args):
    """(each param's gradient, report) of loss(*args) after one backward.

    The gradients are taken off params, which are left with none; a param
    the loss does not reach gets zeros.
    """
    total, report = loss(*args)
    total.backward()
    grads = []
    for _, p in params:
        grads.append(np.zeros_like(p.data) if p.grad is None else p.grad)
        p.grad = None
    return grads, report


def _answer(work, shared, args):
    """The worker's side of a step: work(*args) on the shared weights, its
    gradients written into shared; returns its report."""
    grads, report = work(*args)
    for dst, g in zip(shared, grads):
        np.copyto(dst, g)
    return report


def _share(params) -> list:
    """Move params' weights into a mapping a forked worker shares; returns
    gradient arrays, one a param, in a second such mapping.

    Each param's data becomes a view of the first mapping with its bytes,
    which the optimizer then updates in place, so a worker forked after
    this reads each step's weights without being sent them.
    """
    shapes = [p.data.shape for _, p in params]
    for (_, p), w in zip(params, shares.shared_arrays(shapes)):
        np.copyto(w, p.data)
        p.data = w
    return shares.shared_arrays(shapes)


def _grad_norms(params, grads) -> dict:
    """L2 norm of each net's gradient, keyed by the net's name."""
    squares = {}
    for (name, _), g in zip(params, grads):
        flat = g.ravel()
        with np.errstate(over="ignore"):
            sq = float(np.dot(flat, flat))
        if not math.isfinite(sq):  # tell float32 overflow from a non-finite
            sq = float(np.square(flat, dtype=np.float64).sum())
        net = name.split(".")[0]
        squares[net] = squares.get(net, 0.0) + sq
    return {net: math.sqrt(sq) for net, sq in squares.items()}


def _check_finite(where: str, report: LossReport, params, grads) -> None:
    """NumericalError naming every non-finite weighted term and gradient."""
    values = {k: v for k, v in report.terms.items() if report.weights[k]}
    values["total"] = report.total
    terms = [f"{k}={v:.6g}" for k, v in values.items() if not math.isfinite(v)]
    nets = [net for net, norm in _grad_norms(params, grads).items()
            if not math.isfinite(norm)]
    if terms or nets:
        found = [f"loss {', '.join(terms)}"] if terms else []
        found += [f"gradients in {', '.join(nets)}"] if nets else []
        raise NumericalError(f"{where}: non-finite {'; '.join(found)}")


def _step(where: str, params, opt, work, requests, worker,
          shared=()) -> LossReport:
    """One optimizer step on a batch given as its micro-batches' requests.

    work(*request) runs one micro-batch's forward and backward and
    returns its (gradients, report), with its terms scaled to add up to
    the batch's.  Micro-batch 0 runs here and micro-batch 1 in worker,
    which reads the weights from the mapping _share made and writes its
    gradients into shared, or here after 0 when worker is None.  The
    gradients add in micro-batch order, into micro-batch 0's own arrays
    (g0 += g1), and the reports term by term, so both ways give the same
    bytes.  A non-finite weighted term or gradient raises NumericalError
    before the weights change.
    """
    if worker is not None and len(requests) > 1:
        worker.ask(requests[1])
        results = [work(*requests[0]), (shared, worker.answer(where))]
    else:
        results = [work(*request) for request in requests]
    grads, report = results[0]
    for more, part in results[1:]:
        for g, h in zip(grads, more):
            g += h
        report = LossReport(
            terms={k: v + part.terms[k] for k, v in report.terms.items()},
            weights=report.weights, total=report.total + part.total)
    _check_finite(where, report, params, grads)
    for (_, p), g in zip(params, grads):
        p.grad = g
    opt.step()
    opt.zero_grad()
    return report


def _fit(cfg: StageConfig, params, loss, batches, draw, n: int, log):
    """The one training loop: a step a batch, yielding (idx, report).

    Batch idx (of n clips) steps AdamW with cfg's settings over params on
    loss and _requests(*draw(idx)) (see _step) and logs its record; with
    weight_decay 0 that is Adam, byte for byte.  Micro-batch 1's worker
    needs two CPUs and batches of two clips; it is forked as the first
    step is drawn, so it inherits all that exists then, the weights moved
    into the mapping it shares with this process (see _share) included,
    and closing the generator reaps it.
    """
    opt = AdamW(params, learning_rate=cfg.learning_rate, beta1=cfg.beta1,
                beta2=cfg.beta2, epsilon=cfg.epsilon, lr_decay=cfg.lr_decay,
                weight_decay=cfg.weight_decay)
    work = functools.partial(_gradients, params, loss)
    alone = min(cfg.batch_size, n) < 2 or shares.cpu_count() < 2
    shared = () if alone else _share(params)
    with (contextlib.nullcontext() if alone else shares.Worker(
            functools.partial(_answer, work, shared),
            f"stage {cfg.stage}")) as worker:
        for k, idx in enumerate(batches):
            report = _step(f"stage {cfg.stage} step {k}", params, opt, work,
                           _requests(*draw(idx)), worker, shared)
            if log is not None:
                log(format_loss_record(k, report, lr=opt.lr))
            yield idx, report


# ---- stage 1 -----------------------------------------------------------------

def _stage1_loss(bundle, feats, weights, idx, eps, share):
    """Stage 1's loss on clips feats[idx] with noise eps, scaled by share."""
    x = Tensor(feats[idx])
    dist = M.encode(bundle, M.GENERAL, x)
    z = M.reparameterize(dist, eps=eps, source=M.GENERAL)
    return stage1_loss(x, M.decode_general(bundle, z), dist, weights,
                       share=share)


def train_stage1(records, cfg: StageConfig, log=None) -> Checkpoint:
    """Fit the general encoder and decoder by reconstruction; one checkpoint.

    Runs max_iterations full batches (reshuffling the corpus each pass and
    skipping its short tail) or stops early once the smoothed loss drops
    below cfg.convergence_threshold.  The steps come from _fit, the one
    training loop.
    """
    feats, _, (init, shuffle, noise) = _corpus(records, cfg, 1)
    n = feats.shape[0]
    bundle = build_model(cfg.model, init.seed, drawn=STAGE1_NETS)

    def draw(idx):
        return ((idx, noise.normal(shape=(idx.size, cfg.model.latent_dim))),)

    full = (idx for idx in _batches(n, cfg.batch_size, shuffle)
            if idx.size == min(cfg.batch_size, n))
    steps = _fit(cfg, bundle.trainable_params(STAGE1_NETS), functools.partial(
        _stage1_loss, bundle, feats, cfg.loss_weights), full, draw, n, log)
    history = []
    smoothed = None
    with contextlib.closing(steps):
        for step, (_, report) in enumerate(
                itertools.islice(steps, cfg.max_iterations)):
            smoothed = report.total if smoothed is None else \
                SMOOTHING * smoothed + (1.0 - SMOOTHING) * report.total
            history.append({"iteration": step, "loss": report.total,
                            "smoothed_loss": smoothed})
            if (cfg.convergence_threshold is not None
                    and smoothed < cfg.convergence_threshold):
                break
    return checkpoint_from_bundle(
        bundle, cfg.frontend, stage=1, nets=STAGE1_NETS,
        iteration=len(history), metric_history=history)


# ---- stage 2 -----------------------------------------------------------------

def _check_stage1_compat(ckpt: Checkpoint, cfg: StageConfig) -> None:
    if ckpt.stage != 1:
        raise FormatError(
            f"expected a stage-1 checkpoint, got stage {ckpt.stage}")
    if "general_encoder" not in ckpt.nets:
        raise FormatError("stage-1 checkpoint lacks the general encoder")
    if ckpt.model_config != cfg.model:
        raise FormatError(
            f"stage-1 checkpoint architecture {ckpt.model_config.to_dict()} "
            f"does not match configured {cfg.model.to_dict()}")


def _stage2_loss(bundle, head, feats, labels, general, weights, idx, eps_g,
                 eps_d, share, bona_count):
    """Stage 2's loss on clips feats[idx], scaled as stage2_loss says.

    general holds every clip's frozen general-encoder rows (see
    _general_rows); eps_g and eps_d are the two latents' noise.
    """
    x = Tensor(feats[idx])
    dist_g = M.LatentDistribution(mu=Tensor(general[idx, 0]),
                                  logvar=Tensor(general[idx, 1]))
    dist_d = M.encode(bundle, M.DISENTANGLED, x)
    z_g = M.reparameterize(dist_g, eps=eps_g, source=M.GENERAL)
    z_d = M.reparameterize(dist_d, eps=eps_d, source=M.DISENTANGLED)
    x_hat = M.decode_joint(bundle, M.concat_features(z_g, z_d))
    a_map = M.decode_activation(bundle, z_d)
    y_hat = M.classify(bundle, M.apply_activation(a_map, x))
    return stage2_loss(x, x_hat, dist_d, z_d.z, a_map, y_hat, labels[idx],
                       head, weights, share=share, bona_count=bona_count)


def stage2_epochs(records, stage1_ckpt: Checkpoint | None, cfg: StageConfig,
                  val_records=None, log=None):
    """Train the labeled stage on top of a frozen general encoder.

    Yields one checkpoint per epoch as the epoch ends, each recording
    validation balanced accuracy (measured on val_records, or on the
    training records when no validation set is given), so a caller can
    write each one out and drop it.  stage1_ckpt may be None: the general
    encoder then stays at its fresh random initialization, still frozen,
    and its rows for every clip come from _general_rows before the first
    step.  An epoch is ceil(n / batch_size) steps of _fit, the one training
    loop: one shuffle, every batch, the short tail included.  Closing the
    generator early stops the worker that runs micro-batch 1.
    """
    feats, labels, (init, shuffle, noise) = _corpus(records, cfg, 2)
    if len(set(labels.tolist())) < 2:
        raise InputError("stage 2 needs both labels in the training manifest")
    val_feats, val_labels = _val_features(val_records, cfg.frontend) \
        if val_records else (feats, labels)

    # the general decoder goes unused, and the general encoder is drawn
    # only when no stage-1 checkpoint overwrites it
    bundle = build_model(cfg.model, init.seed, drawn=STAGE2_NETS + (
        () if stage1_ckpt is not None else ("general_encoder",)))
    if stage1_ckpt is not None:
        _check_stage1_compat(stage1_ckpt, cfg)
        load_net_params(bundle, "general_encoder", stage1_ckpt)
    bundle.freeze("general_encoder")
    head = CosFaceHead(cfg.model.latent_dim, scale=cfg.cosface_scale,
                       margin=cfg.cosface_margin,
                       stream=Stream(init.seed).spawn(M.COSFACE_STREAM_INDEX))
    n = feats.shape[0]
    general = _general_rows(bundle, feats)

    def draw(idx):
        shape = (idx.size, cfg.model.latent_dim)
        eps_g = noise.normal(shape=shape)
        eps_d = noise.normal(shape=shape)
        return ((idx, eps_g, eps_d), int(np.count_nonzero(labels[idx] == 0)))

    steps = _fit(cfg, bundle.trainable_params(STAGE2_NETS) + head.params(),
                 functools.partial(_stage2_loss, bundle, head, feats, labels,
                                   general, cfg.loss_weights),
                 _batches(n, cfg.batch_size, shuffle), draw, n, log)
    per_epoch = -(-n // cfg.batch_size)
    history = []
    with contextlib.closing(steps):
        for epoch in range(1, cfg.epochs + 1):
            loss_sum = 0.0
            for idx, report in itertools.islice(steps, per_epoch):
                loss_sum += report.total * idx.size
            val_acc = _val_balanced_accuracy(bundle, val_feats, val_labels,
                                             epoch)
            history.append({"epoch": epoch, "mean_loss": loss_sum / n,
                            "val_balanced_accuracy": val_acc})
            yield checkpoint_from_bundle(
                bundle, cfg.frontend, stage=2,
                nets=("general_encoder",) + STAGE2_NETS,
                iteration=epoch * per_epoch, epoch=epoch, head=head,
                metric_history=history)


def train_stage2(records, stage1_ckpt: Checkpoint | None, cfg: StageConfig,
                 val_records=None, log=None, on_epoch=None) -> list:
    """All of stage2_epochs' checkpoints, in epoch order.

    With on_epoch, each checkpoint goes to on_epoch(ckpt) as its epoch ends
    and is not kept, and the returned list is empty.
    """
    with contextlib.closing(
            stage2_epochs(records, stage1_ckpt, cfg, val_records, log)) as epochs:
        if on_epoch is None:
            return list(epochs)
        for ckpt in epochs:
            on_epoch(ckpt)
    return []


# ---- model selection ---------------------------------------------------------

def recorded_val_accuracy(ckpt: Checkpoint) -> float:
    """The checkpoint's own epoch's validation balanced accuracy."""
    if not ckpt.metric_history:
        raise InputError("no recorded metric history")
    entry = ckpt.metric_history[-1]
    if not isinstance(entry, dict) or "val_balanced_accuracy" not in entry:
        raise InputError("metric history lacks val_balanced_accuracy")
    acc = entry["val_balanced_accuracy"]
    # bool is an int subclass; NaN fails both comparisons
    if (isinstance(acc, bool) or not isinstance(acc, (int, float))
            or not 0 <= acc <= 1):
        raise InputError(
            f"recorded val_balanced_accuracy is {acc!r}, not a number "
            f"in [0, 1]")
    return float(acc)


def select_best(checkpoints, val_records=None) -> Checkpoint:
    """Checkpoint with the highest validation balanced accuracy.

    With val_records the accuracies are recomputed by scoring; otherwise
    the values recorded during training are used.  Ties go to the earliest
    epoch.  checkpoints is read once and only the best so far (and one
    feature set, of the last frontend) is kept, so it may be a lazy
    iterable of loaded files.
    """
    best = best_acc = val = frontend = None
    for ckpt in checkpoints:
        if val_records is None:
            acc = recorded_val_accuracy(ckpt)
        else:
            if ckpt.frontend != frontend:
                val = None  # free the old set before building the next
                val = _val_features(val_records, ckpt.frontend)
                frontend = ckpt.frontend
            bundle, _ = restore_bundle(ckpt)
            acc = _val_balanced_accuracy(bundle, *val, ckpt.epoch)
        if best is None or acc > best_acc or (
                acc == best_acc and ckpt.epoch < best.epoch):
            best, best_acc = ckpt, acc
    if best is None:
        raise InputError("select_best needs at least one checkpoint")
    return best
