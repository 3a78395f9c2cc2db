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

Convolutions are GEMMs over window matrices, in two layouts.  Reading
windows (conv2d forward and weight gradient, both conv2d_transpose
gradients) uses Caffe's im2col layout, (C*K*K, N*Ho*Wo), which one copy of
long stride-s rows fills, and the GEMM puts the kernel matrix first.
Writing windows back (conv2d input gradient, conv2d_transpose forward)
uses a channels-last (N*H*W, K*K*C) layout whose taps add onto the grid in
(a, b) order.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _acc(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if g.dtype != np.float32:
        g = g.astype(np.float32)
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float32)
    else:
        t.grad += g


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---- elementwise binary ops (identical shapes, or scalar-tensor) ---------

def _binary(a, b, op: str, fwd, bwd_a, bwd_b) -> Tensor:
    a_t = isinstance(a, Tensor)
    b_t = isinstance(b, Tensor)
    if a_t and b_t:
        _same_shape(a, b, op)
        data = fwd(a.data, b.data)

        def backward(g, a=a, b=b):
            _acc(a, bwd_a(g, a.data, b.data))
            _acc(b, bwd_b(g, a.data, b.data))

        return _make(data, (a, b), backward)
    if a_t:
        c = float(b)
        data = fwd(a.data, c)

        def backward(g, a=a, c=c):
            _acc(a, bwd_a(g, a.data, c))

        return _make(data, (a,), backward)
    if b_t:
        c = float(a)
        data = fwd(c, b.data)

        def backward(g, b=b, c=c):
            _acc(b, bwd_b(g, c, b.data))

        return _make(data, (b,), backward)
    raise ContractError(f"{op}: at least one operand must be a Tensor")


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
    slope = (v > 0).astype(np.float32)
    np.maximum(slope, a, out=slope)
    slope *= g
    return slope


def sigmoid(x: Tensor) -> Tensor:
    # Stable two-branch evaluation, then the documented output clamp.
    d = x.data
    pos = d >= 0
    e = np.exp(np.where(pos, -d, d))
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
    """Add a per-feature bias: (N,F)+(F,) over rows, or NCHW+(C,) per channel."""
    if x.ndim == 2 and b.shape == (x.shape[1],):
        data = x.data + b.data
        axes = (0,)
        bshape = b.shape
    elif x.ndim == 4 and b.shape == (x.shape[1],):
        data = x.data + b.data[None, :, None, None]
        axes = (0, 2, 3)
        bshape = b.shape
    else:
        raise DimensionError(f"add_bias: incompatible shapes {x.shape} and {b.shape}")

    def backward(g, x=x, b=b):
        _acc(x, g)
        _acc(b, np.sum(g, axis=axes, dtype=np.float64).astype(np.float32).reshape(bshape))

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

def _check_conv_args(stride: int, padding: int) -> tuple[int, int]:
    stride = int(stride)
    padding = int(padding)
    if stride < 1:
        raise ContractError(f"stride must be positive, got {stride}")
    if padding < 0:
        raise ContractError(f"padding must be non-negative, got {padding}")
    return stride, padding


def _pad_hw(x: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    out[:, :, p:p + h, p:p + w] = x
    return out


def _gather_cols(x: np.ndarray, k: int, s: int):
    """(N,C,H,W) -> ((C*K*K, N*Ho*Wo) window matrix, Ho, Wo).

    Caffe's im2col layout: rows in (c, a, b) order, columns in (n, i, j)
    order, so row (c, a, b) is input plane c shifted by tap (a, b) and
    sampled with stride s.  The one copy moves those long strided rows;
    the transposed (N*Ho*Wo, C*K*K) layout would move K-float pieces.
    """
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    n, c, ho, wo = win.shape[:4]
    cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, n * ho * wo)
    return np.ascontiguousarray(cols), ho, wo


def _channels_last(w: np.ndarray) -> np.ndarray:
    """(O, C, K, K) kernel -> (O, K*K*C) matrix, columns in (a, b, c) order."""
    o, c, k, _ = w.shape
    return w.transpose(0, 2, 3, 1).reshape(o, k * k * c)


def _channels_last_rows(x: np.ndarray) -> np.ndarray:
    """(N, C, H, W) activations -> (N*H*W, C) matrix, one row a pixel."""
    n, c, h, w = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n * h * w, c)


def _scatter_cols(cols: np.ndarray, n: int, c: int, hi: int, wi: int,
                  k: int, s: int, h_out: int, w_out: int, p: int) -> np.ndarray:
    """Adjoint of _gather_cols: accumulate windows back onto a (N,C,H,W) grid.

    cols is (N*Hi*Wi, K*K*C) with columns in (a, b, c) order, the product
    with a _channels_last kernel.  Taps add onto an (N,H,W,C) buffer in
    (a, b) order, then one transpose gives a contiguous NCHW result.
    """
    win = cols.reshape(n, hi, wi, k, k, c)
    full = np.zeros((n, h_out + 2 * p, w_out + 2 * p, c), dtype=np.float32)
    for a in range(k):
        for b in range(k):
            full[:, a:a + s * hi:s, b:b + s * wi:s] += win[:, :, :, a, b]
    full = full[:, p:p + h_out, p:p + w_out]
    return np.ascontiguousarray(full.transpose(0, 3, 1, 2))


def _bias_leaky(op: str, out: np.ndarray, bias, leak) -> np.ndarray:
    """leaky_relu(add_bias(out, bias), leak), bit for bit, in place on a
    fresh NCHW out; a bias or leak of None skips its step."""
    if bias is not None:
        if bias.shape != (out.shape[1],):
            raise DimensionError(
                f"{op}: bias shape {bias.shape}, output has {out.shape[1]} channels")
        out += bias.data[None, :, None, None]
    if leak is not None:
        if not 0.0 < leak < 1.0:  # the backward reads the slope off out
            raise ContractError(f"{op}: leak must be in (0, 1), got {leak}")
        np.maximum(np.float32(leak) * out, out, out=out)
    return out


def _bias_leaky_grad(g: np.ndarray, y: np.ndarray, bias, leak) -> np.ndarray:
    """The gradient of _bias_leaky's input given g, the gradient of its
    output y; adds the bias gradient to bias.grad on the way."""
    if leak is not None:
        g = _leaky_grad(g, y, np.float32(leak))
    if bias is not None:
        _acc(bias, np.sum(g, axis=(0, 2, 3), dtype=np.float64).astype(np.float32))
    return g


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None, leak: float | None = None) -> Tensor:
    """Strided 2-d cross-correlation; x is NCHW, w is (out, in, K, K).

    With bias (out,) and leak, the one node computes
    leaky_relu(add_bias(conv2d(x, w), bias), leak) with the same bytes as
    that chain, keeps only its output and x, and gathers x's windows
    again for the weight gradient.
    """
    s, p = _check_conv_args(stride, padding)
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d needs NCHW input and OIKK kernel, got {x.shape}, {w.shape}")
    n, c, h, wd = x.shape
    o, ci, k, k2 = w.shape
    if k != k2:
        raise DimensionError(f"conv2d: kernel must be square, got {w.shape}")
    if c != ci:
        raise DimensionError(f"conv2d: input has {c} channels, kernel expects {ci}")
    ho = (h + 2 * p - k) // s + 1
    wo = (wd + 2 * p - k) // s + 1
    if h + 2 * p < k or wd + 2 * p < k or ho < 1 or wo < 1:
        raise DimensionError(
            f"conv2d: output extent {ho}x{wo} non-positive for input {h}x{wd}, "
            f"kernel {k}, stride {s}, padding {p}")
    cols, _, _ = _gather_cols(_pad_hw(x.data, p), k, s)
    wmat = w.data.reshape(o, c * k * k)
    out = (wmat @ cols).reshape(o, n, ho, wo).transpose(1, 0, 2, 3)
    del cols
    y = _bias_leaky("conv2d", np.ascontiguousarray(out), bias, leak)

    def backward(g, x=x, w=w, bias=bias, y=y, wdata=w.data):
        g = _bias_leaky_grad(g, y, bias, leak)
        gmat = _channels_last_rows(g)
        if w.requires_grad:
            cols, _, _ = _gather_cols(_pad_hw(x.data, p), k, s)
            _acc(w, (gmat.T @ cols.T).reshape(o, c, k, k))
            del cols
        if x.requires_grad:  # false where x is the data, as in a first layer
            gcols = gmat @ _channels_last(wdata)
            _acc(x, _scatter_cols(gcols, n, c, ho, wo, k, s, h, wd, p))

    return _make(y, (x, w) if bias is None else (x, w, bias), backward)


def conv2d_transpose(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0,
                     bias: Tensor | None = None,
                     leak: float | None = None) -> Tensor:
    """Adjoint of conv2d under the same stride/padding.

    The kernel keeps its conv2d layout (out, in, K, K): used forward here it
    maps `out`-channel inputs back to `in`-channel outputs, so that
    <conv2d(x, w), y> == <x, conv2d_transpose(y, w)> holds exactly in exact
    arithmetic.  Output spatial extent = (H - 1) * stride + K - 2 * padding.
    bias and leak fuse as in conv2d; the node keeps its output and x.
    """
    s, p = _check_conv_args(stride, padding)
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d_transpose needs NCHW input and OIKK kernel, got {x.shape}, {w.shape}")
    n, o, hi, wi = x.shape
    o2, c, k, k2 = w.shape
    if k != k2:
        raise DimensionError(f"conv2d_transpose: kernel must be square, got {w.shape}")
    if o != o2:
        raise DimensionError(f"conv2d_transpose: input has {o} channels, kernel dim 0 is {o2}")
    ho = (hi - 1) * s + k - 2 * p
    wo = (wi - 1) * s + k - 2 * p
    if ho < 1 or wo < 1:
        raise DimensionError(f"conv2d_transpose: output extent {ho}x{wo} non-positive")
    wmat = w.data.reshape(o, c * k * k)
    cols = _channels_last_rows(x.data) @ _channels_last(w.data)
    y = _bias_leaky("conv2d_transpose",
                    _scatter_cols(cols, n, c, hi, wi, k, s, ho, wo, p), bias, leak)

    def backward(g, x=x, w=w, bias=bias, y=y, wmat=wmat):
        g = _bias_leaky_grad(g, y, bias, leak)
        gcols, _, _ = _gather_cols(_pad_hw(g, p), k, s)
        if x.requires_grad:
            _acc(x, (wmat @ gcols).reshape(o, n, hi, wi).transpose(1, 0, 2, 3))
        if w.requires_grad:
            _acc(w, (_channels_last_rows(x.data).T @ gcols.T).reshape(o, c, k, k))

    return _make(y, (x, w) if bias is None else (x, w, bias), backward)
