"""Loss terms and the two stage objectives.

Stage 1: reconstruction + KL against the standard-normal prior.
Stage 2: reconstruction + KL + large-margin cosine classification on the
disentangled latent + activation-map concentration on bona fide items +
binary cross entropy on the classifier score.

Every loss returns a scalar Tensor on the tape; the stage objectives also
return a LossReport holding plain floats for logging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import F32_NON_NEGATIVE, F32_POSITIVE, UNIT, JsonConfig, bounded
from .errors import ContractError, DimensionError
from .model import ActivationMap, LatentDistribution
from .rng import Stream
from .tensor import Tensor

NORM_FLOOR = 1e-12
_BIG = 3.0e38  # upper clip bound standing in for +inf in float32


@dataclass(frozen=True)
class LossWeights(JsonConfig):
    """Non-negative weights for the stage objectives (defaults: plain sums)."""

    error = ContractError

    w_recon: float = bounded(1.0, F32_NON_NEGATIVE)
    w_kl: float = bounded(1.0, F32_NON_NEGATIVE)
    w_cos: float = bounded(1.0, F32_NON_NEGATIVE)
    w_con: float = bounded(1.0, F32_NON_NEGATIVE)
    w_bce: float = bounded(1.0, F32_NON_NEGATIVE)


@dataclass
class LossReport:
    """Per-term values and the weighted total for one batch."""

    terms: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    total: float = 0.0


class CosFaceHead:
    """Two learned class direction vectors for the margin loss.

    Rows are L2-normalized at every use, so only their directions matter.
    Row 0 is the bona fide class, row 1 synthetic.
    """

    def __init__(self, latent_dim: int, scale: float = 30.0, margin: float = 0.35,
                 stream: Stream | None = None, weight: np.ndarray | None = None):
        F32_POSITIVE.check("scale", scale, ContractError)
        UNIT.check("margin", margin, ContractError)
        if weight is None:
            if stream is None:
                raise ContractError("CosFaceHead needs a stream or explicit weight")
            bound = float(np.sqrt(6.0 / latent_dim))
            weight = stream.uniform(-bound, bound, (2, latent_dim))
        weight = np.asarray(weight, dtype=np.float32)
        if weight.shape != (2, latent_dim):
            raise DimensionError(
                f"head weight must be (2, {latent_dim}), got {weight.shape}")
        self.weight = Tensor(weight, requires_grad=True)
        self.scale = float(scale)
        self.margin = float(margin)

    def params(self, prefix: str = "cosface_head"):
        return [(f"{prefix}.w", self.weight)]


def _unit_rows(x: Tensor) -> Tensor:
    # rows scaled to unit L2 norm; zero rows hit the documented norm floor
    norms = T.sqrt(T.reduce_sum(T.square(x), 1))
    return T.scale_rows(x, 1.0 / T.clip(norms, NORM_FLOOR, _BIG))


def _as_labels(y, n: int) -> np.ndarray:
    arr = np.asarray(y)
    if arr.shape != (n,):
        raise DimensionError(f"labels must have shape ({n},), got {arr.shape}")
    if not np.all(np.isin(arr, (0, 1))):
        raise ContractError("labels must be 0 (bona fide) or 1 (synthetic)")
    return arr.astype(np.int64)


def recon_loss(x: Tensor, x_rec: Tensor) -> Tensor:
    """Mean squared error over every element of the batch."""
    if x.shape != x_rec.shape:
        raise DimensionError(f"extent mismatch: {x.shape} vs {x_rec.shape}")
    return T.reduce_mean(T.square(x - x_rec))


def kl_loss(dist: LatentDistribution) -> Tensor:
    """Closed-form KL(q || N(0, I)), averaged over the batch."""
    mu, logvar = dist.mu, dist.logvar
    inner = T.square(mu) + T.exp(logvar) - 1.0 - logvar
    return T.scale(T.reduce_mean(T.reduce_sum(inner, 1)), 0.5)


def cosface_loss(f_d: Tensor, labels, head: CosFaceHead) -> Tensor:
    """Binary large-margin cosine loss on the disentangled latent.

    With cosines c_y (true class) and c_o (other class), the per-item loss
    is -log sigmoid(s*(c_y - margin - c_o)), the exact two-class softmax
    cross entropy with the margin applied to the true class.
    """
    y = _as_labels(labels, f_d.shape[0])
    cosines = T.matmul(_unit_rows(f_d), T.transpose2d(_unit_rows(head.weight)))
    onehot = np.eye(2, dtype=np.float32)[y]
    cos_true = T.reduce_sum(cosines * Tensor(onehot), 1)
    cos_other = T.reduce_sum(cosines * Tensor(1.0 - onehot), 1)
    gap = T.scale(cos_true - cos_other - head.margin, head.scale)
    return T.reduce_mean(T.negate(T.log(T.sigmoid(gap))))


def concentration_loss(a_maps: ActivationMap, labels,
                       count: int | None = None) -> Tensor:
    """Mean absolute activation over bona fide items; 0 if none in batch.

    For a part of a batch, count is the whole batch's bona fide count, so
    the parts' losses add up to the batch's.
    """
    values = a_maps.values
    y = _as_labels(labels, values.shape[0])
    bona = (y == 0)
    if count is None:
        count = int(bona.sum())
    if not bona.any():
        return Tensor(0.0)
    per_item = T.reduce_mean(abs(values), (1, 2, 3))
    picks = (bona.astype(np.float32) / count)
    return T.reduce_sum(per_item * Tensor(picks))


def bce_loss(y_hat: Tensor, labels) -> Tensor:
    """Binary cross entropy; predictions clamped to [1e-7, 1 - 1e-7]."""
    y = _as_labels(labels, y_hat.shape[0])
    p = T.clip(y_hat, 1e-7, 1.0 - 1e-7)
    yf = Tensor(y.astype(np.float32))
    ll = yf * T.log(p) + (1.0 - yf) * T.log(1.0 - p)
    return T.negate(T.reduce_mean(ll))


def _weighted_total(pairs) -> Tensor:
    """Combine (name, weight, scalar Tensor) terms; zero weights are skipped
    so a zero-weighted term leaves no trace in the value or the tape."""
    total = None
    for _, w, term in pairs:
        if w == 0.0:
            continue
        piece = term if w == 1.0 else T.scale(term, w)
        total = piece if total is None else total + piece
    if total is None:
        total = Tensor(0.0)
    return total


def _report(pairs, total: Tensor) -> LossReport:
    return LossReport(
        terms={name: float(term.data) for name, _, term in pairs},
        weights={name: w for name, w, _ in pairs},
        total=float(total.data),
    )


def _part(term: Tensor, share: float) -> Tensor:
    # a batch-mean term of a part of a batch, weighted by the part's share
    return term if share == 1.0 else T.scale(term, share)


def stage1_loss(x: Tensor, x_rec: Tensor, dist_g: LatentDistribution,
                weights: LossWeights | None = None, share: float = 1.0):
    """Reconstruction + KL objective; returns (scalar Tensor, LossReport).

    For a micro-batch, share is its fraction of the batch, which scales
    every term, so the micro-batches' losses add up to the batch's.
    """
    w = weights or LossWeights()
    pairs = [
        ("recon", w.w_recon, _part(recon_loss(x, x_rec), share)),
        ("kl", w.w_kl, _part(kl_loss(dist_g), share)),
    ]
    total = _weighted_total(pairs)
    return total, _report(pairs, total)


def stage2_loss(x: Tensor, x_hat: Tensor, dist_d: LatentDistribution,
                f_d: Tensor, a_maps: ActivationMap, y_hat: Tensor, labels,
                head: CosFaceHead, weights: LossWeights | None = None,
                share: float = 1.0, bona_count: int | None = None):
    """Five-term stage-2 objective; returns (scalar Tensor, LossReport).

    For a micro-batch, share is its fraction of the batch, which scales
    the four batch-mean terms, and bona_count is the batch's bona fide
    count, which the concentration term divides by.
    """
    w = weights or LossWeights()
    pairs = [
        ("recon", w.w_recon, _part(recon_loss(x, x_hat), share)),
        ("kl", w.w_kl, _part(kl_loss(dist_d), share)),
        ("cos", w.w_cos, _part(cosface_loss(f_d, labels, head), share)),
        ("con", w.w_con, concentration_loss(a_maps, labels, bona_count)),
        ("bce", w.w_bce, _part(bce_loss(y_hat, labels), share)),
    ]
    total = _weighted_total(pairs)
    return total, _report(pairs, total)


def format_loss_record(step: int, report: LossReport, lr: float | None = None) -> str:
    """One newline-free log record: step, per-term values, total, lr."""
    parts = [f"step={step}"]
    parts += [f"{name}={value:.6g}" for name, value in report.terms.items()]
    parts.append(f"total={report.total:.6g}")
    if lr is not None:
        parts.append(f"lr={lr:.6g}")
    return " ".join(parts)
