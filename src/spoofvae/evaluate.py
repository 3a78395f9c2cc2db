"""Scoring, ROC/EER, balanced accuracy, per-synthesizer reports, embeddings.

Score orientation: higher score means more synthetic, and the positive
class (label 1) is synthetic.  A clip is predicted synthetic when its score
is >= the decision threshold, so ties go to the synthetic side.

ROC and EER share one threshold sweep: a single sort of all scores gives
the distinct thresholds, and per-class counts plus a reverse cumulative
sum give how many records of each class score at or above each one, in
O(n log n).  EER comes from the ROC convex hull: the upper hull of the
operating points (plus the two trivial endpoints) is built on the integer
(false-accept, true-accept) counts, whose cross products have the same
signs as those of the (FPR, TPR) points, and is intersected with the line
TPR = 1 - FPR.  The hull crossing is the standard "interpolate where FNR
and FPR cross" rule and is computed in exact rational arithmetic, so
results are bitwise stable across platforms.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import model as M
from . import shares
from . import tensor as T
from .data import BONAFIDE_ID, LABELS, load_wav
from .dsp import FrontendConfig, mel_features
from .errors import InputError, NumericalError, SpoofVaeError
from .tensor import Tensor

SEPARATION_EPS = 1e-12
SCORE_BATCH = 32  # fixed batch extent so scoring order never changes results


class ScoredClips:
    """Scored clips as parallel columns, the one input of every metric.

    scores: float32 probabilities of synthetic in [0, 1]; labels: int8,
    1 = synthetic; clip_ids, synthesizer_ids: str sequences or None.
    """

    def __init__(self, scores, labels, clip_ids=None, synthesizer_ids=None):
        self.scores = np.asarray(scores, dtype=np.float32)
        self.labels = np.asarray(labels)
        self.clip_ids, self.synthesizer_ids = clip_ids, synthesizer_ids
        bad = ~((self.scores >= 0) & (self.scores <= 1))  # NaN included
        if bad.any():
            raise InputError(
                f"scores must be in [0, 1], got {self.scores[bad][0]}")
        if not np.isin(self.labels, (0, 1)).all():
            raise InputError(f"labels must be 0 or 1, got "
                             f"{np.unique(self.labels).tolist()}")
        self.labels = self.labels.astype(np.int8)
        shapes = {self.scores.shape, self.labels.shape} | {
            (len(ids),) for ids in (clip_ids, synthesizer_ids) if ids is not None}
        if len(shapes) != 1 or self.scores.ndim != 1:
            raise InputError(f"columns must be 1-D and of one length, got "
                             f"shapes {sorted(shapes)}")

    def __len__(self) -> int:
        return self.scores.size


@dataclass
class RocCurve:
    """Sweep points (threshold, FPR, FNR), thresholds ascending."""

    points: list


@dataclass
class EvalReport:
    """Headline metrics plus the per-synthesizer breakdown."""

    eer: float
    eer_threshold: float
    balanced_accuracy: float
    per_synthesizer: list
    counts: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _split_classes(scored):
    """(bona fide, synthetic) float64 score arrays."""
    scores = scored.scores.astype(np.float64)
    synthetic = scored.labels == 1
    bona, syn = scores[~synthetic], scores[synthetic]
    if not bona.size or not syn.size:
        raise InputError(
            f"need both classes, got {bona.size} bonafide and "
            f"{syn.size} synthetic records")
    return bona, syn


def _sweep(bona, syn):
    """Distinct scores ascending, and per class how many score >= each."""
    taus, idx = np.unique(np.concatenate([bona, syn]), return_inverse=True)
    fp, tp = (np.bincount(i, minlength=taus.size)[::-1].cumsum()[::-1]
              for i in (idx[:bona.size], idx[bona.size:]))
    return taus, fp, tp


def roc_curve(scored) -> RocCurve:
    """Step-function ROC: one point per distinct score, plus both endpoints."""
    bona, syn = _split_classes(scored)
    taus, fp, tp = _sweep(bona, syn)
    points = [(-math.inf, 1.0, 0.0)]
    points += zip(taus.tolist(), (fp / bona.size).tolist(),
                  ((syn.size - tp) / syn.size).tolist())
    points.append((math.inf, 0.0, 1.0))
    return RocCurve(points=points)


def _upper_hull(pts):
    hull = []
    for p in pts:
        while len(hull) >= 2:
            ax, ay, _ = hull[-2]
            bx, by, _ = hull[-1]
            if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def compute_eer(scored):
    """EER and its operating threshold, via the exact ROC hull crossing."""
    bona, syn = _split_classes(scored)
    nb, ns = bona.size, syn.size
    taus, fp, tp = _sweep(bona, syn)
    # one point per false-accept count, at the lowest threshold giving it;
    # that threshold has the most true accepts for the count
    fp, first = np.unique(fp, return_index=True)
    # (fp, tp, tau) in counts; the trivial endpoints keep finite thresholds
    pts = [(0, 0, float(taus[-1]))]
    pts += zip(fp.tolist(), tp[first].tolist(), taus[first].tolist())
    pts.append((nb, ns, float(taus[0])))
    hull = _upper_hull(pts)
    for (x1, y1, t1), (x2, y2, t2) in zip(hull, hull[1:]):
        # FPR + TPR - 1, scaled by nb * ns
        f1 = x1 * ns + y1 * nb - nb * ns
        f2 = x2 * ns + y2 * nb - nb * ns
        if f1 <= 0 <= f2:
            s = Fraction(0) if f1 == f2 else Fraction(-f1, f2 - f1)
            eer = (x1 + s * (x2 - x1)) / nb
            threshold = t1 + float(s) * (t2 - t1)
            return float(eer), float(threshold)
    raise SpoofVaeError("ROC hull never crossed the equal-error line")


def balanced_accuracy(scored, threshold: float = 0.5) -> float:
    """Mean of the two per-class recalls at the threshold."""
    bona, syn = _split_classes(scored)
    recall_bona = np.count_nonzero(bona < threshold) / bona.size
    recall_syn = np.count_nonzero(syn >= threshold) / syn.size
    return 0.5 * (recall_bona + recall_syn)


def per_synthesizer_report(scored, threshold: float = 0.5) -> list:
    """Accuracy and count per synthesizer group, bona fide first."""
    names, group = np.unique(np.asarray(scored.synthesizer_ids, dtype=object),
                             return_inverse=True)
    correct = (scored.scores.astype(np.float64) >= threshold) == scored.labels
    counts = np.bincount(group, minlength=names.size).tolist()
    hits = np.bincount(group[correct], minlength=names.size).tolist()
    order = sorted(range(names.size), key=lambda g: names[g] != BONAFIDE_ID)
    return [{"synthesizer_id": names[g], "accuracy": hits[g] / counts[g],
             "count": counts[g]} for g in order]


def eval_report(scored) -> EvalReport:
    eer, threshold = compute_eer(scored)
    counts = np.bincount(scored.labels, minlength=2).tolist()
    return EvalReport(
        eer=eer, eer_threshold=threshold,
        balanced_accuracy=balanced_accuracy(scored),
        per_synthesizer=per_synthesizer_report(scored),
        counts=dict(zip(LABELS, counts)))


# ---- scoring ----------------------------------------------------------------

def load_clip_features(rec, frontend: FrontendConfig) -> np.ndarray:
    """Front-end features for one manifest record, shape (1, mels, frames)."""
    return mel_features(load_wav(rec.path), frontend)[None, :, :]


def _pass(n: int, read, fn, *row):
    """(rows, kept, failures): fn's output rows, of shape row, for the kept
    ones of n clips, the (n,) kept flags, and the failure entries.

    One pass of shares (see shares.py) on batch edges.  A share takes one
    batch of SCORE_BATCH clips at a time from read(first, last, kept),
    which gives their (last - first, 1, mels, frames) features and failure
    entries and clears kept for each clip it could not read, and runs fn on
    it with no grad.  Every share writes its rows straight into one mapping
    from shares.shared_arrays, and a child sends back only its kept flags
    and failure entries.  With every clip kept, rows is that mapping, which a
    later fork (the training worker) shares too, so nothing may write into
    it once the pass returns.  An unreadable clip keeps its position as a
    row whose output is dropped, so no kept row depends on which other
    clips could be read.
    """
    out, = shares.shared_arrays([(n, *row)])

    def share(start, stop):
        kept = np.ones(stop - start, dtype=bool)
        failures = []
        with T.no_grad():
            for first in range(start, stop, SCORE_BATCH):
                last = min(first + SCORE_BATCH, stop)
                feats, failed = read(first, last,
                                     kept[first - start:last - start])
                failures += failed
                out[first:last] = fn(Tensor(feats))
        return kept, failures

    results = shares.run(shares.bounds(n, SCORE_BATCH), share)
    kept = np.concatenate([k for k, _ in results])
    return out if kept.all() else out[kept], kept, \
        [f for _, fs in results for f in fs]


def on_stack(feats: np.ndarray, fn, *row) -> np.ndarray:
    """fn's output rows, of shape row, for a (N, 1, mels, frames) stack.

    One _pass over the stack's clips, on batch edges, in shares.
    """
    return _pass(feats.shape[0], lambda first, last, kept: (
        feats[first:last], []), fn, *row)[0]


def score_features(bundle: M.ModelBundle, feats: np.ndarray) -> np.ndarray:
    """Inference scores for a (N, 1, mels, frames) stack, fixed batching."""
    return on_stack(feats, lambda x: M.infer(bundle, x)[0])


def check_finite_scores(scores, what: str = "scores") -> None:
    """Raise NumericalError, counting them, when any value is NaN or inf.

    Outputs are finite for finite weights, so the fault lies with the model;
    callers that read the weights from a file report it as the file's.
    """
    bad = np.count_nonzero(~np.isfinite(scores))
    if bad:
        raise NumericalError(
            f"{what} are not finite ({bad} of {np.size(scores)})")


def _on_clips(records, frontend: FrontendConfig, fn, *row):
    """(ids, rows, failures): _pass over the clips of records.

    ids are the kept clips' (clip ids, int8 labels with 1 = synthetic,
    synthesizer ids).  A share reads its clips into its own copy of one
    buffer of min(n, SCORE_BATCH) rows, a batch at a time; an unreadable
    clip gets a zero row and a failure entry {clip_id, path, error}.  A
    frontend that no clip could pass raises InputError before any is read.
    """
    frontend.filterbank()
    feats = np.empty((min(len(records), SCORE_BATCH), 1, frontend.n_mels,
                      frontend.target_frames), dtype=np.float32)

    def read(first, last, kept):
        failures = []
        for i, rec in enumerate(records[first:last]):
            try:
                feats[i] = load_clip_features(rec, frontend)
            except (OSError, SpoofVaeError) as exc:
                feats[i], kept[i] = 0, False
                failures.append({"clip_id": rec.clip_id, "path": rec.path,
                                 "error": str(exc)})
        return feats[:last - first], failures

    rows, kept, failures = _pass(len(records), read, fn, *row)
    chosen = [records[i] for i in np.flatnonzero(kept).tolist()]
    ids = ([r.clip_id for r in chosen],
           np.array([LABELS.index(r.label) for r in chosen], dtype=np.int8),
           [r.synthesizer_id for r in chosen])
    return ids, rows, failures


def featurize(records, frontend: FrontendConfig):
    """Features of every readable clip; returns (ids, feats, failures).

    ids and failures are _on_clips's, and feats one (kept, 1, mels, frames)
    float32 array, all in manifest order.  An unreadable clip becomes a
    failure entry instead of stopping the run.
    """
    return _on_clips(records, frontend, lambda x: x.data, 1,
                     frontend.n_mels, frontend.target_frames)


def score_dataset(bundle: M.ModelBundle, records, frontend: FrontendConfig):
    """Score every readable clip; returns (ScoredClips, failure entries).

    Output order follows the manifest; unreadable clips become failure
    entries as described in _on_clips.  The clips are read and scored in
    one pass of shares (see _pass).  Non-finite scores raise
    NumericalError (see check_finite_scores).
    """
    (clip_ids, labels, synthesizer_ids), scores, failures = _on_clips(
        records, frontend, lambda x: M.infer(bundle, x)[0])
    check_finite_scores(scores)
    return ScoredClips(scores, labels, clip_ids, synthesizer_ids), failures


def write_rows(out, ids, names, values) -> None:
    """CSV rows clip_id,label,synthesizer_id,<names> to the text stream out.

    ids are featurize's, one entry per row of values.  Numbers keep 6
    significant digits; fields with a comma, quote or line break are quoted.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("clip_id", "label", "synthesizer_id", *names))
    clip_ids, labels, synthesizer_ids = ids
    for clip_id, code, synth, row in zip(clip_ids, labels.tolist(),
                                         synthesizer_ids, values.tolist()):
        writer.writerow((clip_id, LABELS[code], synth,
                         *(f"{v:.6g}" for v in row)))


def write_scores_csv(scored: ScoredClips, path) -> None:
    """scores.csv: write_rows with one score column."""
    with open(path, "w", newline="") as fh:
        write_rows(fh, (scored.clip_ids, scored.labels, scored.synthesizer_ids),
                   ("score",), scored.scores[:, None])


# ---- embeddings -------------------------------------------------------------

EMBED_GENERAL = "general"
EMBED_DISENTANGLED = "disentangled"
EMBED_BOTH = "both"


def _encoder(bundle: M.ModelBundle, which: str):
    """(width, fn): fn gives a batch's mean latents (no sampling)."""
    sources = {EMBED_GENERAL: (M.GENERAL,),
               EMBED_DISENTANGLED: (M.DISENTANGLED,),
               EMBED_BOTH: (M.GENERAL, M.DISENTANGLED)}.get(which)
    if sources is None:
        raise InputError(f"which must be general/disentangled/both, got {which!r}")
    return bundle.config.latent_dim * len(sources), lambda x: np.concatenate(
        [M.encode(bundle, src, x).mu.data for src in sources], axis=1)


def compute_embeddings(bundle: M.ModelBundle, feats: np.ndarray,
                       which: str) -> np.ndarray:
    """Mean latents for a feature stack, shape (N, d or 2d)."""
    width, fn = _encoder(bundle, which)
    return on_stack(feats, fn, width)


def export_embeddings(bundle: M.ModelBundle, records, which: str,
                      frontend: FrontendConfig):
    """Per-clip mean latents; returns (ids, embeddings, failures).

    ids and failures are featurize's.  The clips are read and encoded in
    one pass of shares, as in score_dataset.  Non-finite embeddings raise
    NumericalError (see check_finite_scores).
    """
    width, fn = _encoder(bundle, which)
    ids, emb, failures = _on_clips(records, frontend, fn, width)
    check_finite_scores(emb, "embeddings")
    return ids, emb, failures


def separation_ratio(embeddings: np.ndarray, labels) -> float:
    """Centroid gap over mean within-class spread, Euclidean.

    Zero spread falls back to dividing by 1e-12, the documented stand-in
    for an infinite ratio.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    if emb.ndim != 2 or emb.shape[0] != y.shape[0]:
        raise InputError(
            f"embeddings {emb.shape} and labels {y.shape} do not align")
    mask = y == 1
    if not mask.any() or mask.all():
        raise InputError("separation_ratio needs both classes")
    c0 = emb[~mask].mean(axis=0)
    c1 = emb[mask].mean(axis=0)
    centroids = np.where(mask[:, None], c1[None, :], c0[None, :])
    within = float(np.mean(np.linalg.norm(emb - centroids, axis=1)))
    gap = float(np.linalg.norm(c1 - c0))
    return gap / max(within, SEPARATION_EPS)
