"""conv2d and conv2d_transpose against the float64 loop references.

Hypothesis draws kernels of 1-4 taps, strides 1-2 and paddings 0-1, odd
and even extents down to 1x1, one-clip batches and one-channel layers,
and inputs and output gradients laid out as NCHW arrays or as the
channel-major views the model passes between layers.  The forward and
both gradients are checked against tests/gradcheck.py's conv2d_ref and
conv2d_transpose_ref; a weight gradient is the sum of the reference over
each one-tap kernel, weighted by the output gradient, since both ops are
linear in the kernel.  The conv adjoint identity is checked on the same
draws.
"""

import itertools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spoofvae import tensor as T

import gradcheck

SETTINGS = settings(max_examples=60, deadline=None)


def _laid_out(a, channel_major):
    """float32 NCHW a, or the NCHW view of its channel-major copy."""
    a = a.astype(np.float32)
    if not channel_major:
        return np.ascontiguousarray(a)
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


@st.composite
def layers(draw):
    """(x, w, stride, padding, channel-major input, channel-major grad)."""
    n, c, o = (draw(st.integers(1, 3)) for _ in range(3))
    k, s, p = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(0, 1))
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, c, h, w)), rng.normal(size=(o, c, k, k)), s, p,
            draw(st.booleans()), draw(st.booleans()), rng)


def _run(op, x, w, s, p, g):
    """(output, x grad, w grad) of op given its output's gradient g."""
    xt = T.Tensor(x, requires_grad=True)
    wt = T.Tensor(w, requires_grad=True)
    y = op(xt, wt, s, p)
    assert y.shape == g.shape
    y._backward_fn(g)
    return y.data, xt.grad, wt.grad


def _kernel_grad(ref, x, w, s, p, g):
    """d<ref(x, w), g>/dw, one one-tap kernel at a time."""
    out = np.zeros(w.shape)
    for idx in itertools.product(*map(range, w.shape)):
        tap = np.zeros(w.shape)
        tap[idx] = 1.0
        out[idx] = np.sum(ref(x, tap, s, p) * g)
    return out


def _close(got, want):
    assert got.shape == want.shape
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5 * scale)


def _adjoint(y, g, x, back):
    """<y, g> == <x, back> up to float32 rounding of the terms."""
    scale = max(1.0, float(np.sum(np.abs(y * g))), float(np.sum(np.abs(x * back))))
    assert abs(float(np.sum(y * g)) - float(np.sum(x * back))) <= 1e-5 * scale


def _conv_extent(h, k, s, p):
    return (h + 2 * p - k) // s + 1 if h + 2 * p >= k else 0


@SETTINGS
@given(layers())
def test_conv2d_matches_the_reference(layer):
    x, w, s, p, cm_x, cm_g, rng = layer
    n, c, h, wd = x.shape
    o, k = w.shape[0], w.shape[2]
    ho, wo = _conv_extent(h, k, s, p), _conv_extent(wd, k, s, p)
    assume(ho >= 1 and wo >= 1)
    g = rng.normal(size=(n, o, ho, wo))
    y, gx, gw = _run(T.conv2d, _laid_out(x, cm_x), w, s, p, _laid_out(g, cm_g))
    x32, w32, g32 = (a.astype(np.float32).astype(np.float64) for a in (x, w, g))
    _close(y, gradcheck.conv2d_ref(x32, w32, s, p))
    full = gradcheck.conv2d_transpose_ref(g32, w32, s, 0)
    grid = np.zeros((n, c, h + 2 * p, wd + 2 * p))
    grid[:, :, :full.shape[2], :full.shape[3]] = \
        full[:, :, :h + 2 * p, :wd + 2 * p]
    _close(gx, grid[:, :, p:p + h, p:p + wd])
    _close(gw, _kernel_grad(gradcheck.conv2d_ref, x32, w32, s, p, g32))
    # adjoint: <conv2d(x, w), g> == <x, its input gradient>
    _adjoint(y, g32, x32, gx)


@SETTINGS
@given(layers())
def test_conv2d_transpose_matches_the_reference(layer):
    x, w, s, p, cm_x, cm_g, rng = layer
    n, c, h, wd = x.shape
    k = w.shape[2]
    # the transpose maps c channels back to w's dim 1; reuse w as (c, c2, k, k)
    w = rng.normal(size=(c, w.shape[0], k, k))
    ho, wo = (h - 1) * s + k - 2 * p, (wd - 1) * s + k - 2 * p
    assume(ho >= 1 and wo >= 1)
    g = rng.normal(size=(n, w.shape[1], ho, wo))
    y, gx, gw = _run(T.conv2d_transpose, _laid_out(x, cm_x), w, s, p,
                     _laid_out(g, cm_g))
    x32, w32, g32 = (a.astype(np.float32).astype(np.float64) for a in (x, w, g))
    _close(y, gradcheck.conv2d_transpose_ref(x32, w32, s, p))
    _close(gx, gradcheck.conv2d_ref(g32, w32, s, p))
    _close(gw, _kernel_grad(gradcheck.conv2d_transpose_ref, x32, w32, s, p, g32))
    # adjoint: <conv2d_transpose(x, w), g> == <x, conv2d(g, w)>
    _adjoint(y, g32, x32, T.conv2d(T.Tensor(_laid_out(g, cm_g)), T.Tensor(w), s, p).data)
