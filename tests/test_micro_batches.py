"""Each training batch runs as K = 2 micro-batches, the second in a worker.

The worker path is forced through os.sched_getaffinity (as in
test_shares.py), so both the worker path and the in-turn path run
whatever the machine's CPU count.  Summed micro-batch gradients differ
from full-batch ones only by float32 rounding, so they are compared
within a tolerance; the two paths are compared byte for byte.
"""

import dataclasses
import functools
import hashlib
import os
import pickle
import signal

import numpy as np
import pytest

from spoofvae import model as M
from spoofvae import shares, train
from spoofvae.checkpoint import save_checkpoint
from spoofvae.errors import NumericalError
from spoofvae.losses import CosFaceHead, LossReport, LossWeights
from spoofvae.model import STAGE1_NETS, STAGE2_NETS, build_model
from spoofvae.rng import Stream
from spoofvae.tensor import Tensor
from spoofvae.train import stage2_epochs, train_stage1

from conftest import TINY_MODEL, tiny_stage1, tiny_stage2
from test_cli import run, write_config
from test_frozen_encoder import _mixed
from test_shares import _assert_no_children
from test_train import checkpoint_bytes


def _cpus(monkeypatch, cpus):
    """Make the process see cpus CPUs; returns a list that counts forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    forks = []
    real = os.fork

    def counted():
        if cpus == 1:
            raise AssertionError("forked with one CPU")
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("n, spans", [
    (1, [(0, 1)]),
    (2, [(0, 1), (1, 2)]),
    (5, [(0, 3), (3, 5)]),
    (16, [(0, 8), (8, 16)]),
])
def test_micro_spans(n, spans):
    assert train._micro_spans(n) == spans


# batch 1 is one micro-batch and never forks; 5 is 3 + 2 with a tail of 2
# in stage 2 (12 clips); 4 is 2 + 2 with no tail
@pytest.mark.parametrize("batch, forks", [(1, 0), (4, 1), (5, 1)])
def test_worker_and_in_turn_write_the_same_bytes(monkeypatch, toy_corpus,
                                                 stage1_ckpt, batch, forks):
    records = _mixed(toy_corpus, 12)
    blobs = {}
    for cpus in (2, 1):
        counted = _cpus(monkeypatch, cpus)
        s1 = train_stage1(records, tiny_stage1(max_iterations=3,
                                               batch_size=batch))
        s2 = list(stage2_epochs(records, stage1_ckpt,
                                tiny_stage2(epochs=2, batch_size=batch)))
        blobs[cpus] = [hashlib.sha256(checkpoint_bytes(c)).hexdigest()
                       for c in [s1] + s2]
        assert len(counted) == (2 * forks if cpus == 2 else 0)
        _assert_no_children()
    # three steps of stage 1 and three an epoch of stage 2: from the second
    # step on, the worker's micro-batch is only right on the post-Adam
    # weights it reads from the shared mapping
    assert len(blobs[1]) == 3
    assert blobs[1] == blobs[2]


def test_a_request_carries_indices_noise_and_share_but_no_weights(
        monkeypatch, toy_corpus, stage1_ckpt):
    _cpus(monkeypatch, 2)
    sent = []
    real = shares.Worker.ask
    monkeypatch.setattr(shares.Worker, "ask",
                        lambda self, request: sent.append(request) or
                        real(self, request))
    records = _mixed(toy_corpus, 12)
    train_stage1(records, tiny_stage1(max_iterations=3, batch_size=4))
    list(stage2_epochs(records, stage1_ckpt, tiny_stage2(epochs=1,
                                                         batch_size=4)))
    d = TINY_MODEL.latent_dim
    assert len(sent) == 6
    for idx, eps, share in sent[:3]:  # stage 1: idx, noise, share
        assert idx.shape == (2,) and eps.shape == (2, d) and share == 0.5
    for idx, eps_g, eps_d, share, bona in sent[3:]:
        assert idx.shape == (2,) and share == 0.5
        assert {a.shape for a in (eps_g, eps_d)} == {(2, d)}
        assert isinstance(bona, int)
    assert max(len(pickle.dumps(r, pickle.HIGHEST_PROTOCOL)) for r in sent) < 2048


def test_closing_the_generator_early_reaps_the_worker(monkeypatch, toy_corpus,
                                                      stage1_ckpt):
    forks = _cpus(monkeypatch, 2)
    epochs = stage2_epochs(_mixed(toy_corpus, 12), stage1_ckpt,
                           tiny_stage2(epochs=3, batch_size=4))
    assert next(epochs).epoch == 1
    assert len(forks) == 1
    epochs.close()
    _assert_no_children()


def _assert_sums_match(full, parts):
    (g_full, r_full), ((g0, r0), (g1, r1)) = full, parts
    largest = max(float(np.abs(g).max()) for g in g_full)
    for g, a, b in zip(g_full, g0, g1):
        np.testing.assert_allclose(a + b, g, rtol=1e-4, atol=1e-5 * largest)
    for name, value in r_full.terms.items():
        assert r0.terms[name] + r1.terms[name] == pytest.approx(value,
                                                                rel=1e-5)
    assert r0.total + r1.total == pytest.approx(r_full.total, rel=1e-5)


def _micro_batches(loss, params, per_clip, *whole):
    """(full-batch result, [each micro-batch's result]) of train._gradients."""
    full = train._gradients(params, loss, *per_clip, 1.0, *whole)
    parts = [train._gradients(params, loss, *request)
             for request in train._requests(per_clip, *whole)]
    return full, parts


def test_summed_stage1_gradients_match_the_full_batch():
    n = 5
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(n, 1, 32, 32)).astype(np.float32)
    bundle = build_model(TINY_MODEL, 3)
    params = bundle.trainable_params(STAGE1_NETS)
    loss = functools.partial(train._stage1_loss, bundle, feats, LossWeights())
    eps = rng.normal(size=(n, TINY_MODEL.latent_dim)).astype(np.float32)
    _assert_sums_match(*_micro_batches(loss, params, (np.arange(n), eps)))


@pytest.mark.parametrize("labels", [[0, 1, 0, 1, 1],   # none bona in part 1
                                    [1, 1, 1, 0, 0]])  # none bona in part 0
def test_summed_stage2_gradients_match_the_full_batch(labels):
    n = len(labels)
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(n, 1, 32, 32)).astype(np.float32)
    labels = np.array(labels, dtype=np.int8)
    bundle = build_model(TINY_MODEL, 4)
    bundle.freeze("general_encoder")
    head = CosFaceHead(TINY_MODEL.latent_dim, stream=Stream(5))
    params = bundle.trainable_params(STAGE2_NETS) + head.params()
    d = TINY_MODEL.latent_dim
    mu, logvar = (0.1 * rng.normal(size=(2, n, d))).astype(np.float32)
    general = np.stack([mu, logvar], axis=1)  # the frozen encoder's rows
    loss = functools.partial(train._stage2_loss, bundle, head, feats, labels,
                             general, LossWeights(w_con=3.0))
    eps_g, eps_d = rng.normal(size=(2, n, d)).astype(np.float32)
    bona = int(np.count_nonzero(labels == 0))
    full, parts = _micro_batches(
        loss, params, (np.arange(n), eps_g, eps_d), bona)
    assert 0.0 in (parts[0][1].terms["con"], parts[1][1].terms["con"])
    _assert_sums_match(full, parts)


def test_step_adds_the_second_gradients_into_the_first_ones_arrays():
    w = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    g0 = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    g1 = np.array([0.5, 1e-8, -3.0], dtype=np.float32)
    want = (g0 + g1).tobytes()
    report = LossReport(terms={"recon": 1.0}, weights={"recon": 1.0}, total=1.0)
    results = iter([([g0], report), ([g1], report)])
    stepped = []

    class Opt:
        def step(self):
            stepped.append(w.grad)

        def zero_grad(self):
            w.grad = None

    train._step("step 0", [("net.w", w)], Opt(), lambda *req: next(results),
                [(), ()], None)
    assert stepped[0] is g0 and g0.tobytes() == want


def test_a_non_finite_gradient_from_the_worker_stops_before_the_update(
        monkeypatch, toy_corpus):
    records = _mixed(toy_corpus, 12)
    cfg = tiny_stage1(max_iterations=3, batch_size=4)
    _cpus(monkeypatch, 2)
    parent = os.getpid()
    real_answer = train._answer
    answered = []

    def poisoned(work, shared, args):
        report = real_answer(work, shared, args)
        answered.append(1)  # the worker's own count of its requests
        if os.getpid() != parent and len(answered) == 2:
            shared[0][...] = np.nan
        return report

    monkeypatch.setattr(train, "_answer", poisoned)
    bundles = []
    real_build = train.build_model
    monkeypatch.setattr(train, "build_model", lambda *a, **k: bundles.append(
        real_build(*a, **k)) or bundles[-1])
    with pytest.raises(NumericalError) as err:
        train_stage1(records, cfg)
    assert str(err.value).startswith(
        "stage 1 step 1: non-finite gradients in general_encoder")
    _assert_no_children()
    # the shared weights are still those after step 0
    monkeypatch.setattr(train, "_answer", real_answer)
    one = train_stage1(records, dataclasses.replace(cfg, max_iterations=1))
    for name, p in bundles[0].named_params(STAGE1_NETS):
        assert p.data.tobytes() == one.params[name].tobytes(), name


def _stage2_cli(tmp_path, toy_corpus, stage1_ckpt, cfg):
    s1 = tmp_path / "s1.dsva"
    save_checkpoint(stage1_ckpt, s1)
    return run(["train-stage2", "--config",
                write_config(tmp_path / "s2.json", cfg),
                "--manifest", toy_corpus["manifest"],
                "--stage1-checkpoint", str(s1), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("how", ["killed", "raises"])
def test_a_failed_worker_exits_two_naming_the_step(monkeypatch, tmp_path,
                                                   toy_corpus, stage1_ckpt,
                                                   how):
    n = len(toy_corpus["splits"]["train"])
    batch = 8
    assert n % batch != 1  # every batch has a micro-batch 1
    steps = -(-n // batch)  # per epoch
    _cpus(monkeypatch, 2)
    parent = os.getpid()
    real = M.decode_joint
    calls = []

    def failing(bundle, joint):
        if os.getpid() != parent:
            calls.append(1)
            if len(calls) > steps:  # the first step of epoch 2
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("boom")
        return real(bundle, joint)

    monkeypatch.setattr(M, "decode_joint", failing)
    fds = _open_fds()
    code, out, err = _stage2_cli(tmp_path, toy_corpus, stage1_ckpt,
                                 tiny_stage2(epochs=2, batch_size=batch))
    detail = "worker process was killed by signal 9" if how == "killed" \
        else "RuntimeError: boom"
    assert code == 2
    assert err.splitlines()[-1] == \
        f"internal error: stage 2 step {steps}: {detail}"
    assert sorted(os.listdir(tmp_path / "out")) == ["epoch_001.dsva"]
    _assert_no_children()
    assert _open_fds() == fds  # no pipe to the worker is left open


def _open_fds():
    """This process's open file descriptors, or None without /proc."""
    return set(os.listdir("/proc/self/fd")) \
        if os.path.isdir("/proc/self/fd") else None


def test_a_worker_that_cannot_start_exits_two_and_leaks_no_pipe(
        monkeypatch, tmp_path, toy_corpus, stage1_ckpt):
    _cpus(monkeypatch, 2)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") \
        else None
    code, out, err = _stage2_cli(tmp_path, toy_corpus, stage1_ckpt,
                                 tiny_stage2(epochs=1, batch_size=8))
    assert (code, out) == (2, "")
    assert err == ("internal error: stage 2: cannot start a process: "
                   "[Errno 11] Resource temporarily unavailable\n")
    assert not (tmp_path / "out").exists()
    if fds is not None:
        assert set(os.listdir("/proc/self/fd")) == fds


def test_a_one_label_validation_set_fails_before_training(
        monkeypatch, tmp_path, toy_corpus):
    # with two CPUs training would fork its worker at the first step
    _cpus(monkeypatch, 2)

    def never(*args, **kwargs):
        raise AssertionError("a model was built or a worker forked")

    monkeypatch.setattr(train, "build_model", never)
    monkeypatch.setattr(shares, "Worker", never)
    val = tmp_path / "val.csv"
    val.write_text("path,label,synthesizer_id,split\n" + "".join(
        f"{r.path},bonafide,bonafide,dev\n"
        for r in toy_corpus["splits"]["dev"] if r.label == "bonafide"))
    code, out, err = run(["train-stage2", "--config",
                          write_config(tmp_path / "s2.json", tiny_stage2()),
                          "--manifest", toy_corpus["manifest"],
                          "--val-manifest", str(val),
                          "--out", str(tmp_path / "out")])
    assert (code, out) == (1, ""), err
    assert err.splitlines()[-1] == \
        "error: validation manifest needs both labels"
    assert "step=" not in err
    assert not (tmp_path / "out").exists()
