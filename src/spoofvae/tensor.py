"""Minimal float32 tensor library with reverse-mode automatic differentiation.

Every op result remembers its parent tensors and a closure that turns the
result's gradient into parent gradients.  Creation order is recorded with a
monotonic sequence number, so the implicit tape can be replayed in strict
reverse creation order (which is a valid topological order, since inputs are
always created before outputs).  One backward pass per forward graph; calling
`backward` on a graph that was already differentiated, on any intermediate of
it, or on a new graph built over one of its nodes raises ContractError (the
package needs first-order gradients only).

The tape is released during backward: each node's closure, parent links and
gradient are dropped as soon as its closure has run, so only leaves keep
`.grad` afterwards, and buffers saved for backward do not outlive the pass.

Numeric policy:
  * float32 storage and elementwise arithmetic;
  * reductions (sum/mean) accumulate in float64, then cast back;
  * log and sqrt clamp their inputs to >= 1e-12;
  * sigmoid output is clamped to [1e-7, 1 - 1e-7] so downstream logs stay
    finite.

Broadcasting is deliberately absent except scalar-tensor; the few structured
broadcasts a network needs are explicit ops (add_bias, scale_rows) with exact
backward rules.

Convolutions are GEMMs over one window matrix, Caffe's im2col layout
(C*K*K, N*Ho*Wo), gathered from channel-major memory one strided copy a
tap, with zeros for the padding instead of a padded copy; the windows of
a full correlation (those of the model's transposed convs, K = 4, s = 2,
p = 1) are contiguous runs of one zero-bordered copy (_full_cols).  Their
activations keep NCHW shapes but channel-major (C, N, H, W) memory, the
layout in which a GEMM with the kernel matrix first writes its result, so
a conv output is a transposed view rather than a copy, and its gradient
is a GEMM operand as it stands.  conv2d and conv2d_transpose, each the
other's adjoint, are one tape node (_conv) that fuses the bias and leaky
ReLU after the op and keeps only its output and x.  A kernel (O, C, K, K)
maps its C-channel side down to its O-channel side by the gather and a
GEMM, and back up by the transposed conv as s*s phases (_transpose_cols):
stride-1 correlations over ceil(K/s)^2 taps, all in one GEMM over one
gather, written out by one strided copy a phase.  A weight gradient runs
as cols @ a.T (the C side's windows, the O side's array), faster here
than a @ cols.T, and is copied into its weight's C-contiguous layout: the
optimizer's elementwise passes and a worker's copy of its gradients run
slower on a transposed one.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

_LOG_FLOOR = 1e-12
_SIGMOID_LO = 1e-7
_SIGMOID_HI = 1.0 - 1e-7

_seq = itertools.count()
_grad_enabled = True


class no_grad:
    """Context manager disabling tape recording (inference paths)."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn",
                 "_consumed", "_seqno", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._consumed = False
        self._seqno = next(_seq)

    # ---- basic introspection -------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ---- autodiff plumbing ---------------------------------------------
    def backward(self) -> None:
        """Populate .grad on every reachable requires_grad leaf.

        The loss must be scalar.  Leaves that do not appear in the graph at
        all are untouched (their grad stays None, meaning zero).  The tape
        is released as it is replayed: once a node's closure has run, the
        closure, its parent links and the node's own gradient are dropped,
        so buffers saved for backward free one node at a time and no op
        result outlives the caller's own references.
        """
        if self.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise ContractError("loss does not depend on any requires_grad tensor")
        nodes: list[Tensor] = []
        seen: set[int] = set()
        stack: list[Tensor] = [self]
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t._consumed:
                raise ContractError("backward was already run on this graph")
            if t._backward_fn is not None:
                nodes.append(t)
                stack.extend(t._parents)
        nodes.sort(key=lambda t: t._seqno)
        self.grad = np.ones_like(self.data)
        while nodes:  # newest first; popping drops the list's reference
            t = nodes.pop()
            fn, g = t._backward_fn, t.grad
            t._backward_fn, t._parents, t.grad = None, (), None
            t._consumed = True
            fn(g)

    # ---- operator sugar --------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return negate(self)

    def __abs__(self):
        return absval(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axes=None):
        return reduce_sum(self, axes)

    def mean(self, axes=None):
        return reduce_mean(self, axes)

    def reshape(self, shape):
        return reshape(self, shape)


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _acc(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add g into t.grad; an owned float32 g (a fresh array that nothing
    else references) becomes t.grad without a copy."""
    if not t.requires_grad:
        return
    if g.dtype != np.float32:
        g = g.astype(np.float32)
    if t.grad is None:
        t.grad = g if owned else np.array(g, dtype=np.float32)
    else:
        t.grad += g


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---- elementwise binary ops (identical shapes, or scalar-tensor) ---------

def _binary(a, b, op: str, fwd, bwd_a, bwd_b) -> Tensor:
    """fwd of the operands' values, each a Tensor's data or a float;
    bwd_a and bwd_b, given (g, x, y), take the gradient into a Tensor a
    or b.  A number operand is no parent and gets no gradient."""
    tensors = tuple(t for t in (a, b) if isinstance(t, Tensor))
    if not tensors:
        raise ContractError(f"{op}: at least one operand must be a Tensor")
    if len(tensors) == 2:
        _same_shape(a, b, op)
    x, y = (t.data if isinstance(t, Tensor) else float(t) for t in (a, b))

    def backward(g, a=a, b=b):
        for t, bwd in ((a, bwd_a), (b, bwd_b)):
            if isinstance(t, Tensor):
                _acc(t, bwd(g, x, y))

    return _make(fwd(x, y), tensors, backward)


def add(a, b) -> Tensor:
    return _binary(a, b, "add", lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary(a, b, "div", lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


# ---- elementwise unary ops ------------------------------------------------

def _unary(x: Tensor, data: np.ndarray, dgrad) -> Tensor:
    def backward(g, x=x):
        _acc(x, dgrad(g))

    return _make(data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _unary(x, np.where(mask, x.data, np.float32(0.0)),
                  lambda g: g * mask)


def leaky_relu(x: Tensor, alpha: float = 0.2) -> Tensor:
    """maximum(a*x, x) for 0 < alpha < 1; bit-equal to where(x > 0, x, a*x).

    np.maximum returns its first argument when that is NaN, so a*x goes
    first and a NaN input comes out as a*x, as in the where form.  The
    backward multiplies by a float32 slope of 1 or a, also without np.where.
    """
    a = np.float32(alpha)
    y = a * x.data
    np.maximum(y, x.data, out=y)
    return _unary(x, y, lambda g: _leaky_grad(g, x.data, a))


def _leaky_grad(g: np.ndarray, v: np.ndarray, a: np.float32) -> np.ndarray:
    """g times the leaky ReLU slope: 1 where v > 0, a elsewhere.

    v is the input x, or the output y when 0 < a < 1: then y = x where
    x > 0 and y = a*x <= 0 (or NaN) elsewhere, so y > 0 exactly where
    x > 0, NaN, -0.0 and a*x underflowing to 0 included.
    """
    slope = np.maximum(v > 0, a, dtype=np.float32)
    slope *= g
    return slope


def sigmoid(x: Tensor) -> Tensor:
    # Stable two-branch evaluation, then the documented output clamp.
    d = x.data
    pos = d >= 0
    e = np.exp(-np.abs(d))
    y = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e)).astype(np.float32)
    y = np.clip(y, _SIGMOID_LO, _SIGMOID_HI)
    return _unary(x, y, lambda g: g * y * (1.0 - y))


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    return _unary(x, y, lambda g: g * y)


def log(x: Tensor) -> Tensor:
    xc = np.maximum(x.data, np.float32(_LOG_FLOOR))
    mask = x.data >= _LOG_FLOOR
    return _unary(x, np.log(xc), lambda g: np.where(mask, g / xc, np.float32(0.0)))


def square(x: Tensor) -> Tensor:
    return _unary(x, x.data * x.data, lambda g: g * (2.0 * x.data))


def sqrt(x: Tensor) -> Tensor:
    xc = np.maximum(x.data, np.float32(_LOG_FLOOR))
    y = np.sqrt(xc)
    mask = x.data >= _LOG_FLOOR
    return _unary(x, y, lambda g: np.where(mask, g * (0.5 / y), np.float32(0.0)))


def negate(x: Tensor) -> Tensor:
    return _unary(x, -x.data, lambda g: -g)


def scale(x: Tensor, c: float) -> Tensor:
    c = np.float32(c)
    return _unary(x, c * x.data, lambda g: c * g)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only where un-clamped."""
    y = np.clip(x.data, np.float32(lo), np.float32(hi))
    mask = (x.data >= lo) & (x.data <= hi)
    return _unary(x, y, lambda g: np.where(mask, g, np.float32(0.0)))


def absval(x: Tensor) -> Tensor:
    s = np.sign(x.data)
    return _unary(x, np.abs(x.data), lambda g: g * s)


# ---- matrix and structured ops --------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backward(g, a=a, b=b):
        _acc(a, g @ b.data.T)
        _acc(b, a.data.T @ g)

    return _make(data, (a, b), backward)


def transpose2d(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise DimensionError(f"transpose2d needs rank 2, got {x.shape}")
    return _unary(x, np.ascontiguousarray(x.data.T), lambda g: g.T)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise DimensionError(f"reshape {x.shape} -> {shape}: size differs")
    old = x.shape
    return _unary(x, x.data.reshape(shape), lambda g: g.reshape(old))


def concat(a: Tensor, b: Tensor, axis: int = 1) -> Tensor:
    if a.ndim != b.ndim:
        raise DimensionError(f"concat: ranks differ, {a.shape} vs {b.shape}")
    data = np.concatenate([a.data, b.data], axis=axis)
    split = a.shape[axis]

    def backward(g, a=a, b=b):
        ga, gb = np.split(g, [split], axis=axis)
        _acc(a, ga)
        _acc(b, gb)

    return _make(data, (a, b), backward)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-feature bias along axis 1: (N,F)+(F,) over rows, or
    NCHW+(C,) per channel."""
    if x.ndim not in (2, 4) or b.shape != (x.shape[1],):
        raise DimensionError(f"add_bias: incompatible shapes {x.shape} and {b.shape}")
    axes = (0, *range(2, x.ndim))
    data = x.data + b.data.reshape((-1,) + (1,) * (x.ndim - 2))

    def backward(g, x=x, b=b):
        _acc(x, g)
        _acc(b, np.sum(g, axis=axes, dtype=np.float64).astype(np.float32))

    return _make(data, (x, b), backward)


def scale_rows(x: Tensor, s: Tensor) -> Tensor:
    """Multiply row i of x (N,F) by scalar s[i] (shape (N,))."""
    if x.ndim != 2 or s.shape != (x.shape[0],):
        raise DimensionError(f"scale_rows: incompatible shapes {x.shape} and {s.shape}")
    data = x.data * s.data[:, None]

    def backward(g, x=x, s=s):
        _acc(x, g * s.data[:, None])
        _acc(s, np.sum(g * x.data, axis=1, dtype=np.float64).astype(np.float32))

    return _make(data, (x, s), backward)


# ---- reductions ------------------------------------------------------------

def _norm_axes(axes, ndim: int):
    if axes is None:
        return None
    if isinstance(axes, (int, np.integer)):
        axes = (int(axes),)
    axes = tuple(int(a) for a in axes)
    for a in axes:
        if not (-ndim <= a < ndim):
            raise DimensionError(f"axis {a} invalid for rank {ndim}")
    return tuple(sorted(a % ndim for a in axes))


def _expand(g: np.ndarray, shape: tuple[int, ...], axes) -> np.ndarray:
    if axes is None:
        return np.broadcast_to(g, shape)
    for a in axes:
        g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


def reduce_sum(x: Tensor, axes=None) -> Tensor:
    axes = _norm_axes(axes, x.ndim)
    data = np.sum(x.data, axis=axes, dtype=np.float64).astype(np.float32)
    shape = x.shape
    return _unary(x, data, lambda g: np.ascontiguousarray(_expand(g, shape, axes)))


def reduce_mean(x: Tensor, axes=None) -> Tensor:
    axes = _norm_axes(axes, x.ndim)
    count = x.size if axes is None else int(np.prod([x.shape[a] for a in axes]))
    data = (np.sum(x.data, axis=axes, dtype=np.float64) / count).astype(np.float32)
    shape = x.shape
    inv = np.float32(1.0 / count)
    return _unary(x, data, lambda g: np.ascontiguousarray(_expand(g * inv, shape, axes)))


# ---- 2-d convolution and its adjoint ---------------------------------------

def _cm(a: np.ndarray) -> np.ndarray:
    """The (C, N, H, W) view of an NCHW array, C-contiguous when a's
    memory is channel-major."""
    return a.transpose(1, 0, 2, 3)


def _inside(off: int, s: int, size: int, count: int) -> tuple[int, int]:
    """[i0, i1) of the i in [0, count) with 0 <= i*s + off < size."""
    i0 = min(max(0, -(off // s)), count)
    return i0, max(i0, min(count, (size - 1 - off) // s + 1))


def _gather_cols(xc: np.ndarray, k: int, s: int, lo: int, ho: int,
                 wo: int) -> np.ndarray:
    """Window matrix (C*K*K, N*Ho*Wo) of a channel-major (C, N, H, W) xc.

    Caffe's im2col layout: row (c, a, b) and column (n, i, j) hold
    xc[c, n, i*s + a - lo, j*s + b - lo], zero where that falls off the
    grid, so a conv padded by p has lo = p and needs no padded copy.  Each
    tap is one strided copy of every channel's planes.
    """
    c, n, h, w = xc.shape
    cols = np.empty((c, k, k, n, ho, wo), dtype=np.float32)
    for a in range(k):
        i0, i1 = _inside(a - lo, s, h, ho)
        for b in range(k):
            j0, j1 = _inside(b - lo, s, w, wo)
            tap = cols[:, a, b]
            if i0 < i1 and j0 < j1:
                tap[:, :, i0:i1, j0:j1] = xc[
                    :, :, i0 * s + a - lo:(i1 - 1) * s + a - lo + 1:s,
                    j0 * s + b - lo:(j1 - 1) * s + b - lo + 1:s]
            if i0 > 0 or i1 < ho:
                tap[:, :, :i0] = 0
                tap[:, :, i1:] = 0
            if j0 > 0 or j1 < wo:
                tap[:, :, i0:i1, :j0] = 0
                tap[:, :, i0:i1, j1:] = 0
    return cols.reshape(c * k * k, n * ho * wo)


def _full_cols(xc: np.ndarray, k: int) -> np.ndarray:
    """_gather_cols(xc, k, 1, k - 1, H + k - 1, W + k - 1) by block copies:
    the windows of a full stride-1 correlation of a (C, N, H, W) xc.

    xc is copied once into a (C, N, H + k - 1, W + k - 1) grid whose first
    k - 1 rows and columns are zero, flat per channel with (k - 1)*(W + k)
    zeros after it.  A window past an image's last column reads the next
    row's zero columns, and one past its last row the next image's zero
    rows (or the zeros after the grid), so tap (a, b) is the contiguous
    run of the flat grid at offset a*(W + k - 1) + b.
    """
    c, n, h, w = xc.shape
    hg, wg = h + k - 1, w + k - 1
    size = n * hg * wg
    flat = np.zeros((c, size + (k - 1) * (wg + 1)), dtype=np.float32)
    flat[:, :size].reshape(c, n, hg, wg)[:, :, k - 1:, k - 1:] = xc
    cols = np.empty((c, k, k, size), dtype=np.float32)
    for a in range(k):
        for b in range(k):
            cols[:, a, b] = flat[:, a * wg + b:a * wg + b + size]
    return cols.reshape(c * k * k, size)


def _transpose_cols(gc: np.ndarray, w: np.ndarray, s: int, p: int, h: int,
                    wd: int) -> np.ndarray:
    """Transposed conv of a channel-major gc (O, N, Hi, Wi) by w (O, C, K, K)
    onto a channel-major (C, N, h, wd) grid, cropped by p.

    Output row o takes only the taps a = r + s*t of its phase
    r = (o + p) % s, from input row (o + p) // s - t.  So each of the s*s
    phases is a stride-1 correlation of gc with its ceil(K/s)^2 taps,
    flipped (taps past K are zero): one gather of gc's windows (by block
    copies when the phases' windows cover gc's full correlation, as with
    K = 4, s = 2, p = 1), one GEMM for every phase at once, and one strided
    copy a phase.  Each output cell is one dot product of that GEMM; a row
    no window reaches gets 0.
    """
    o, n, _, _ = gc.shape
    c, k = w.shape[1], w.shape[2]
    t = -(-k // s)
    q0 = p // s  # the first window of each extent
    hq, wq = (h - 1 + p) // s + 1 - q0, (wd - 1 + p) // s + 1 - q0
    taps = np.zeros((o, c, t * s, t * s), dtype=np.float32)
    taps[:, :, :k, :k] = w
    # taps[o, c, th, rh, tw, rw] is tap (th*s + rh, tw*s + rw); flipping th
    # and tw orders them as the window reads gc
    taps = taps.reshape(o, c, t, s, t, s)[:, :, ::-1, :, ::-1]
    wmat = taps.transpose(3, 5, 1, 0, 2, 4).reshape(s * s * c, o * t * t)
    # the window matrix is a temporary, freed before out is made
    full = q0 == 0 and (hq, wq) == (gc.shape[2] + t - 1, gc.shape[3] + t - 1)
    phases = (wmat @ (_full_cols(gc, t) if full else _gather_cols(
        gc, t, 1, t - 1 - q0, hq, wq))).reshape(s, s, c, n, hq, wq)
    out = np.empty((c, n, h, wd), dtype=np.float32)
    for rh in range(s):
        oh = (rh - p) % s  # the first output row of phase rh
        ih = (oh + p) // s - q0
        for rw in range(s):
            ow = (rw - p) % s
            iw = (ow + p) // s - q0
            dst = out[:, :, oh::s, ow::s]
            dst[...] = phases[rh, rw, :, :, ih:ih + dst.shape[2],
                              iw:iw + dst.shape[3]]
    return out


def _conv(op: str, x: Tensor, w: Tensor, stride: int, padding: int, bias,
          leak, transposed: bool) -> Tensor:
    """The one node of conv2d (transposed False) and conv2d_transpose.

    w (O, C, K, K) links a C-channel grid and an O-channel grid: down is
    the im2col GEMM from the C side to the O side, up (_transpose_cols) its
    adjoint from the O side back.  conv2d runs down forward and up for its
    input gradient, conv2d_transpose the reverse, and both take the weight
    gradient as the C side's windows times the O side's array.  The output
    is leaky_relu(add_bias(out, bias), leak) bit for bit, in place; a bias
    or leak of None skips its step.
    """
    s, p = int(stride), int(padding)
    if s < 1:
        raise ContractError(f"{op}: stride must be positive, got {s}")
    if p < 0:
        raise ContractError(f"{op}: padding must be non-negative, got {p}")
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"{op} needs NCHW input and OIKK kernel, got {x.shape}, {w.shape}")
    n, ci, hi, wi = x.shape
    o, c, k, k2 = w.shape
    cin, cout = (o, c) if transposed else (c, o)
    if k != k2:
        raise DimensionError(f"{op}: kernel must be square, got {w.shape}")
    if ci != cin:
        raise DimensionError(f"{op}: input has {ci} channels, kernel expects {cin}")
    if transposed:  # (hc, wc) is the C side's extent, (ho, wo) the O side's
        ho, wo = hi, wi
        hc, wc = (hi - 1) * s + k - 2 * p, (wi - 1) * s + k - 2 * p
    else:
        hc, wc = hi, wi
        ho, wo = (hi + 2 * p - k) // s + 1, (wi + 2 * p - k) // s + 1
    eh, ew = (hc, wc) if transposed else (ho, wo)
    if eh < 1 or ew < 1:
        raise DimensionError(
            f"{op}: output extent {eh}x{ew} non-positive for input {hi}x{wi}, "
            f"kernel {k}, stride {s}, padding {p}")
    if bias is not None and bias.shape != (cout,):
        raise DimensionError(f"{op}: bias shape {bias.shape}, output has {cout} channels")
    if leak is not None and not 0.0 < leak < 1.0:  # the backward reads the slope off y
        raise ContractError(f"{op}: leak must be in (0, 1), got {leak}")
    wdata = w.data
    wmat = wdata.reshape(o, c * k * k)

    def down(cols):
        return (wmat @ cols).reshape(o, n, ho, wo)

    xc = _cm(x.data)
    out = (_transpose_cols(xc, wdata, s, p, hc, wc) if transposed
           else down(_gather_cols(xc, k, s, p, ho, wo)))
    if bias is not None:
        out += bias.data[:, None, None, None]
    if leak is not None:
        np.maximum(np.float32(leak) * out, out, out=out)
    y = _cm(out)

    def backward(g, x=x, w=w, bias=bias, y=y):
        gc = _cm(g)
        if leak is not None:
            gc = _leaky_grad(gc, _cm(y), np.float32(leak))
        if bias is not None:
            _acc(bias, np.sum(gc, axis=(1, 2, 3), dtype=np.float64).astype(np.float32))
        c_side, o_side = (gc, _cm(x.data)) if transposed else (_cm(x.data), gc)
        cols = (_gather_cols(c_side, k, s, p, ho, wo)
                if w.requires_grad or transposed else None)
        if w.requires_grad:
            gw = (cols @ o_side.reshape(o, n * ho * wo).T).T
            _acc(w, np.ascontiguousarray(gw).reshape(o, c, k, k), owned=True)
        if x.requires_grad:  # false where x is the data, as in a first layer
            if transposed:
                gx = down(cols)
            else:
                cols = None  # freed before _transpose_cols runs: a lower peak
                gx = _transpose_cols(gc, wdata, s, p, hc, wc)
            _acc(x, _cm(gx), owned=True)

    return _make(y, (x, w) if bias is None else (x, w, bias), backward)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None, leak: float | None = None) -> Tensor:
    """Strided 2-d cross-correlation; x is NCHW, w is (out, in, K, K).

    The result is NCHW with channel-major memory, as the GEMM writes it.
    With bias (out,) and leak, the one node computes
    leaky_relu(add_bias(conv2d(x, w), bias), leak) with the same bytes as
    that chain, keeps only its output and x, and gathers x's windows
    again for the weight gradient.
    """
    return _conv("conv2d", x, w, stride, padding, bias, leak, False)


def conv2d_transpose(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0,
                     bias: Tensor | None = None,
                     leak: float | None = None) -> Tensor:
    """Adjoint of conv2d under the same stride/padding.

    The kernel keeps its conv2d layout (out, in, K, K): used forward here it
    maps `out`-channel inputs back to `in`-channel outputs, so that
    <conv2d(x, w), y> == <x, conv2d_transpose(y, w)> holds exactly in exact
    arithmetic.  Output spatial extent = (H - 1) * stride + K - 2 * padding,
    NCHW with channel-major memory.  bias and leak fuse as in conv2d; the
    node keeps its output and x.
    """
    return _conv("conv2d_transpose", x, w, stride, padding, bias, leak, True)
