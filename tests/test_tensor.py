"""Tensor arithmetic, shape checking, and reverse-mode gradients."""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from spoofvae import tensor as T
from spoofvae import train
from spoofvae.errors import ContractError, DimensionError
from spoofvae.losses import CosFaceHead, LossWeights
from spoofvae.model import ModelConfig, build_model
from spoofvae.rng import Stream

import gradcheck


def arr(x):
    return np.asarray(x, dtype=np.float32)


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, arr([[1, 2], [3, 4]]))

    def test_hand_product(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b).data, arr([[19, 22], [43, 50]]))

    def test_row_times_column(self):
        a = T.Tensor([[1.0, 2.0, 3.0]])
        b = T.Tensor([[1.0], [1.0], [1.0]])
        assert np.array_equal(T.matmul(a, b).data, arr([[6]]))

    def test_inner_dim_mismatch_names_both_shapes(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((4, 2)))
        with pytest.raises(DimensionError, match=r"2, 3.*4, 2"):
            T.matmul(a, b)

    def test_rank_check(self):
        with pytest.raises(DimensionError):
            T.matmul(T.Tensor(np.zeros(3)), T.Tensor(np.zeros((3, 2))))


class TestConv2d:
    def test_identity_kernel(self):
        x = T.Tensor(np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3))
        w = T.Tensor(np.ones((1, 1, 1, 1)))
        out = T.conv2d(x, w, stride=1, padding=0)
        assert np.array_equal(out.data, x.data)

    def test_sum_kernel(self):
        x = T.Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = T.Tensor(np.ones((1, 1, 2, 2)))
        out = T.conv2d(x, w, stride=1, padding=0)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 10.0

    def test_strided_ones(self):
        x = T.Tensor(np.ones((1, 1, 4, 4)))
        w = T.Tensor(np.ones((1, 1, 2, 2)))
        out = T.conv2d(x, w, stride=2, padding=0)
        assert out.shape == (1, 1, 2, 2)
        assert np.array_equal(out.data, np.full((1, 1, 2, 2), 4.0, dtype=np.float32))

    def test_matches_reference_with_padding(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 6, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        got = T.conv2d(T.Tensor(x), T.Tensor(w), stride=2, padding=1).data
        want = gradcheck.conv2d_ref(x, w, 2, 1)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-5, atol=1e-5)


class TestConv2dTranspose:
    def test_broadcast_of_single_value(self):
        x = T.Tensor(np.full((1, 1, 1, 1), 3.0))
        w = T.Tensor(np.ones((1, 1, 2, 2)))
        out = T.conv2d_transpose(x, w, stride=2, padding=0)
        assert out.shape == (1, 1, 2, 2)
        assert np.array_equal(out.data, np.full((1, 1, 2, 2), 3.0, dtype=np.float32))

    def test_zero_kernel(self):
        x = T.Tensor(np.ones((1, 2, 3, 3)))
        w = T.Tensor(np.zeros((2, 1, 2, 2)))
        out = T.conv2d_transpose(x, w, stride=2, padding=0)
        assert not np.any(out.data)

    def test_adjoint_shape_formula(self):
        x = T.Tensor(np.ones((1, 1, 2, 2)))
        w = T.Tensor(np.ones((1, 1, 2, 2)))
        out = T.conv2d_transpose(x, w, stride=2, padding=0)
        assert out.shape == (1, 1, 4, 4)

    def test_true_adjoint_of_conv2d(self):
        # <conv(x, w), y> must equal <x, conv_transpose(y, w)>
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 8, 6))
        w = rng.normal(size=(4, 3, 4, 4))
        y = rng.normal(size=(2, 4, 4, 3))
        lhs = float(np.sum(T.conv2d(T.Tensor(x), T.Tensor(w), 2, 1).data
                           * y.astype(np.float32)))
        rhs = float(np.sum(T.conv2d_transpose(T.Tensor(y), T.Tensor(w), 2, 1).data
                           * x.astype(np.float32)))
        assert lhs == pytest.approx(rhs, rel=1e-4)


class TestUnary:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(T.Tensor([0.0])).data[0] == 0.5

    def test_relu(self):
        out = T.relu(T.Tensor([-2.0, 3.0]))
        assert np.array_equal(out.data, arr([0.0, 3.0]))

    def test_exp_of_one(self):
        assert T.exp(T.Tensor([1.0])).data[0] == pytest.approx(np.e, rel=1e-6)

    def test_log_clamps_non_positive_input(self):
        out = T.log(T.Tensor([0.0, -5.0, 1.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[2] == 0.0

    def test_sqrt_clamps_negative_input(self):
        out = T.sqrt(T.Tensor([-4.0, 4.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[1] == 2.0

    def test_sigmoid_saturation_clamped(self):
        out = T.sigmoid(T.Tensor([-100.0, 100.0]))
        assert out.data[0] == pytest.approx(1e-7, rel=1e-3)
        assert out.data[1] == pytest.approx(1.0 - 1e-7, rel=1e-9)

    def test_sigmoid_bytes_match_the_two_branch_formula(self):
        # the exponent is -|d|, which the earlier two-where form
        # np.where(d >= 0, -d, d) gave branch by branch; outputs and
        # gradients keep their bytes at signed zeros, infinities, NaNs,
        # the smallest subnormal and the float32 range's edges
        def two_where(d):
            pos = d >= 0
            e = np.exp(np.where(pos, -d, d))
            y = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
            return np.clip(y.astype(np.float32), T._SIGMOID_LO,
                           T._SIGMOID_HI)

        special = [0.0, np.inf, np.nan, 1e-45, 88.0, 3.4e38]
        rng = np.random.default_rng(5)
        d = np.concatenate([arr(special), -arr(special),
                            rng.standard_normal(4096).astype(np.float32)])
        w = rng.standard_normal(d.size).astype(np.float32)
        x = T.Tensor(d, requires_grad=True)
        y = T.sigmoid(x)
        T.reduce_sum(T.mul(y, T.Tensor(w))).backward()
        ref = two_where(d)
        assert y.data.tobytes() == ref.tobytes()
        assert x.grad.tobytes() == (w * ref * (1.0 - ref)).tobytes()

    def test_leaky_relu_slope(self):
        out = T.leaky_relu(T.Tensor([-1.0, 2.0]), 0.2)
        assert np.allclose(out.data, arr([-0.2, 2.0]))

    def test_clip(self):
        out = T.clip(T.Tensor([-2.0, 0.3, 2.0]), -1.0, 1.0)
        assert np.array_equal(out.data, arr([-1.0, 0.3, 1.0]))


class TestBinary:
    def test_hand_sum(self):
        out = T.Tensor([1.0, 2.0, 3.0]) + T.Tensor([4.0, 5.0, 6.0])
        assert np.array_equal(out.data, arr([5.0, 7.0, 9.0]))

    def test_multiplicative_identity(self):
        a = np.array([1.5, -2.0, 0.0], dtype=np.float32)
        out = T.Tensor(a) * T.Tensor(np.ones(3))
        assert np.array_equal(out.data, a)

    def test_annihilator(self):
        out = T.Tensor([1.5, -2.0, 3.0]) * T.Tensor(np.zeros(3))
        assert not np.any(out.data)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.Tensor(np.zeros(3)) + T.Tensor(np.zeros(4))

    def test_scalar_operand_broadcasts(self):
        out = 2.0 * T.Tensor([1.0, 2.0]) + 1.0
        assert np.array_equal(out.data, arr([3.0, 5.0]))

    def test_rsub_rdiv(self):
        x = T.Tensor([2.0, 4.0])
        assert np.array_equal((1.0 - x).data, arr([-1.0, -3.0]))
        assert np.array_equal((8.0 / x).data, arr([4.0, 2.0]))


# op: (forward, gradient into x, gradient into y), numpy's formulas on
# float32 arrays, where a number operand is a float32 scalar
BINARY_FORMULAS = {
    T.add: (lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g),
    T.sub: (lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g),
    T.mul: (lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x),
    T.div: (lambda x, y: x / y, lambda g, x, y: g / y,
            lambda g, x, y: -g * x / (y * y)),
}


def _pull(out, g):
    """Backpropagate the upstream gradient g from out (sum of out * g)."""
    T.reduce_sum(T.mul(out, T.Tensor(g))).backward()


@pytest.mark.parametrize("op", list(BINARY_FORMULAS),
                         ids=lambda op: op.__name__)
@pytest.mark.parametrize("form", ["tensor-tensor", "tensor-number",
                                  "number-tensor"])
def test_binary_op_bytes_match_numpy_formulas(op, form):
    fwd, d_x, d_y = BINARY_FORMULAS[op]
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 5)).astype(np.float32)
    y = (rng.uniform(0.5, 2.0, (3, 5)) * rng.choice([-1, 1], (3, 5))
         ).astype(np.float32)
    g = rng.standard_normal((3, 5)).astype(np.float32)
    if form == "tensor-number":
        y = np.float32(-0.3)
    elif form == "number-tensor":
        x = np.float32(1.7)
    a = T.Tensor(x, requires_grad=True) if np.ndim(x) else float(x)
    b = T.Tensor(y, requires_grad=True) if np.ndim(y) else float(y)
    out = op(a, b)
    assert out.data.dtype == np.float32
    assert out.data.tobytes() == fwd(x, y).tobytes()
    # a number operand is no parent of the result
    assert out._parents == tuple(t for t in (a, b) if isinstance(t, T.Tensor))
    _pull(out, g)
    for t, d in ((a, d_x), (b, d_y)):
        if isinstance(t, T.Tensor):
            assert t.grad.dtype == np.float32
            assert t.grad.tobytes() == d(g, x, y).tobytes(), op.__name__


@pytest.mark.parametrize("op", list(BINARY_FORMULAS),
                         ids=lambda op: op.__name__)
def test_binary_op_of_two_numbers_is_refused(op):
    with pytest.raises(ContractError, match=op.__name__):
        op(2.0, 3.0)


@pytest.mark.parametrize("shape", [(4, 6), (2, 3, 4, 5)])
def test_add_bias_bytes_at_rank_two_and_four(shape):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(shape).astype(np.float32)
    b = rng.standard_normal(shape[1]).astype(np.float32)
    g = rng.standard_normal(shape).astype(np.float32)
    xt, bt = T.Tensor(x, requires_grad=True), T.Tensor(b, requires_grad=True)
    out = T.add_bias(xt, bt)
    per_axis1 = b.reshape((1, -1) + (1,) * (len(shape) - 2))
    assert out.data.tobytes() == (x + per_axis1).tobytes()
    _pull(out, g)
    assert xt.grad.tobytes() == g.tobytes()
    axes = (0,) + tuple(range(2, len(shape)))
    want = np.sum(g, axis=axes, dtype=np.float64).astype(np.float32)
    assert bt.grad.shape == b.shape
    assert bt.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("x_shape,b_shape", [
    ((2, 3, 4), (3,)),  # rank 3
    ((2, 3), (2,)),  # the bias does not match axis 1
    ((2, 3, 4, 5), (3, 1)),
    ((3,), (3,)),
])
def test_add_bias_refuses_other_shapes(x_shape, b_shape):
    with pytest.raises(DimensionError, match="add_bias"):
        T.add_bias(T.Tensor(np.zeros(x_shape)), T.Tensor(np.zeros(b_shape)))


class TestReduce:
    def test_sum_all(self):
        assert T.Tensor([1.0, 2.0, 3.0]).sum().item() == 6.0

    def test_mean_of_constant(self):
        assert T.Tensor(np.full((3, 5), 2.5)).mean().item() == 2.5

    def test_sum_over_axis(self):
        out = T.reduce_sum(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), 0)
        assert np.array_equal(out.data, arr([4.0, 6.0]))

    def test_mean_equals_sum_over_count(self):
        rng = np.random.default_rng(11)
        x = T.Tensor(rng.normal(size=(4, 6)))
        m = x.mean().item()
        s = x.sum().item() / 24.0
        assert m == pytest.approx(s, rel=1e-6)

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            T.reduce_sum(T.Tensor(np.zeros((2, 2))), 5)


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        loss = T.square(x).sum()
        loss.backward()
        assert np.array_equal(x.grad, arr([2.0, -4.0, 6.0]))

    def test_disconnected_leaf_gets_no_gradient(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        y = T.Tensor([5.0, 5.0], requires_grad=True)
        loss = T.square(x).sum()
        loss.backward()
        assert y.grad is None

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            T.square(x).backward()

    def test_double_backward_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        loss = T.square(x).sum()
        loss.backward()
        with pytest.raises(ContractError):
            loss.backward()

    def test_reused_tensor_accumulates(self):
        x = T.Tensor([3.0], requires_grad=True)
        loss = (x * x).sum()  # x used twice
        loss.backward()
        assert x.grad[0] == 6.0

    def test_no_grad_suppresses_taping(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            out = T.square(x).sum()
        assert not out.requires_grad
        with pytest.raises(ContractError):
            out.backward()

    def test_frozen_leaf_records_nothing(self):
        frozen = T.Tensor([2.0], requires_grad=False)
        live = T.Tensor([3.0], requires_grad=True)
        loss = (frozen * live).sum()
        loss.backward()
        assert frozen.grad is None
        assert live.grad[0] == 2.0


class TestGradientsAgainstFiniteDifferences:
    def test_every_op_once(self):
        rng = np.random.default_rng(2024)
        for c in gradcheck.make_cases(rng):
            c.run()

    def test_composite_chain(self):
        rng = np.random.default_rng(5)
        cases = {c.name: c for c in gradcheck.make_cases(rng)}
        cases["composite_mlp"].run()


# ---- col2im kernels: conv2d_transpose forward and the conv2d input gradient --

# (name, n, c, o, h, w, k, stride, padding) for conv2d(x (n,c,h,w), w (o,c,k,k));
# conv2d_transpose runs the same kernel from o channels back to c
COL2IM_CASES = [
    ("c1_k4s2p1", 2, 1, 3, 8, 6, 4, 2, 1),
    ("k3s2p1_odd", 2, 3, 4, 7, 9, 3, 2, 1),
    ("k3s1p1", 1, 2, 5, 5, 6, 3, 1, 1),
    ("k4s2p0", 2, 4, 2, 6, 8, 4, 2, 0),
    ("k6s3p2_odd", 1, 2, 3, 11, 13, 6, 3, 2),
    ("c1o1_k2s2_tail", 1, 1, 1, 5, 5, 2, 2, 0),
]


def _col2im_case(case, rng, draw=None):
    """(x, w, s, p, y): conv2d input x, kernel w, and a conv2d-output-shaped y."""
    _, n, c, o, h, wd, k, s, p = case
    draw = draw or (lambda *shape: rng.normal(size=shape))
    x, w = draw(n, c, h, wd), draw(o, c, k, k)
    ho, wo = (h + 2 * p - k) // s + 1, (wd + 2 * p - k) // s + 1
    return x, w, s, p, draw(n, o, ho, wo)


def _input_grad(x, w, s, p, y, x_requires_grad=True):
    """Gradients of sum(conv2d(x, w) * y) with respect to x and w."""
    xt = T.Tensor(x, requires_grad=x_requires_grad)
    wt = T.Tensor(w, requires_grad=True)
    T.reduce_sum(T.mul(T.conv2d(xt, wt, s, p), T.Tensor(y))).backward()
    return xt.grad, wt.grad


def _input_grad_ref(y, w, s, p, shape):
    """conv2d's input gradient by the loop reference: the unpadded transpose
    of y, on the padded input grid, cropped to the input (rows and columns
    that no window reaches get zero)."""
    full = gradcheck.conv2d_transpose_ref(y, w, s, 0)
    n, c, h, wd = shape
    grid = np.zeros((n, c, h + 2 * p, wd + 2 * p))
    grid[:, :, :full.shape[2], :full.shape[3]] = full
    return grid[:, :, p:p + h, p:p + wd]


def _tap_order_loop(y, w, s, p, shape, order):
    """float32 col2im adding whole taps in the given (a, b) order.

    Each tap is computed in float64 and rounded once, which is exact for
    the power-of-two-scaled integer inputs of test_bit_equal_to_phase_loop.
    """
    n, c, h, wd = shape
    _, _, hi, wi = y.shape
    full = np.zeros((n, c, h + 2 * p, wd + 2 * p), dtype=np.float32)
    for a, b in order:
        tap = np.einsum("noij,oc->ncij", y, w[:, :, a, b]).astype(np.float32)
        full[:, :, a:a + s * hi:s, b:b + s * wi:s] += tap
    return full[:, :, p:p + h, p:p + wd]


def _phase_loop(y, w, s, p, shape):
    """float32 transposed conv of y by w onto shape, phase by phase.

    Output row o takes taps a = r + s*t of its phase r = (o + p) % s from
    input row (o + p) // s - t.  Both GEMM operands are built by loops: row
    (r, r', c) of the kernel matrix holds, at column (o, t, t'), tap
    (r + s*(T-1-t), r' + s*(T-1-t')) of w (zero past K), and column
    (n, q, q') of the window matrix holds y[n, o, q + p//s - T+1 + t, ...]
    (zero off the grid); one product of the two gives every phase.
    """
    n, c, h, wd = shape
    _, o, hi, wi = y.shape
    k = w.shape[2]
    t = -(-k // s)
    q0 = p // s
    hq, wq = (h - 1 + p) // s + 1 - q0, (wd - 1 + p) // s + 1 - q0
    kmat = np.zeros((s, s, c, o, t, t), dtype=np.float32)
    cols = np.zeros((o, t, t, n, hq, wq), dtype=np.float32)
    for rh, rw, th, tw in itertools.product(range(s), range(s), range(t), range(t)):
        a, b = rh + s * (t - 1 - th), rw + s * (t - 1 - tw)
        if a < k and b < k:
            kmat[rh, rw, :, :, th, tw] = w[:, :, a, b].T
    for th, tw, qh, qw in itertools.product(range(t), range(t), range(hq), range(wq)):
        i, j = qh + q0 - t + 1 + th, qw + q0 - t + 1 + tw
        if 0 <= i < hi and 0 <= j < wi:
            cols[:, th, tw, :, qh, qw] = y[:, :, i, j].T
    phases = (kmat.reshape(s * s * c, o * t * t)
              @ cols.reshape(o * t * t, n * hq * wq)).reshape(s, s, c, n, hq, wq)
    out = np.empty((n, c, h, wd), dtype=np.float32)
    for oh, ow in itertools.product(range(h), range(wd)):
        out[:, :, oh, ow] = phases[(oh + p) % s, (ow + p) % s, :, :,
                                   (oh + p) // s - q0, (ow + p) // s - q0].T
    return out


@pytest.mark.parametrize("case", COL2IM_CASES, ids=[c[0] for c in COL2IM_CASES])
class TestCol2im:
    def test_transpose_forward_matches_loop_reference(self, case):
        _, w, s, p, y = _col2im_case(case, np.random.default_rng(31))
        got = T.conv2d_transpose(T.Tensor(y), T.Tensor(w), s, p).data
        want = gradcheck.conv2d_transpose_ref(y, w, s, p)
        assert got.shape == want.shape and T._cm(got).flags.c_contiguous
        assert np.allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_conv2d_input_grad_matches_loop_reference(self, case):
        x, w, s, p, y = _col2im_case(case, np.random.default_rng(32))
        gx, _ = _input_grad(x, w, s, p, y)
        want = _input_grad_ref(y, w, s, p, x.shape)
        assert gx.shape == x.shape
        assert np.allclose(gx, want, rtol=1e-5, atol=1e-5)

    def test_adjoint_identities(self, case):
        x, w, s, p, y = _col2im_case(case, np.random.default_rng(33))
        conv_y = float(np.sum(T.conv2d(T.Tensor(x), T.Tensor(w), s, p).data
                              * y.astype(np.float32), dtype=np.float64))
        gx, _ = _input_grad(x, w, s, p, y)
        assert conv_y == pytest.approx(
            float(np.sum(gx * x.astype(np.float32), dtype=np.float64)), rel=1e-4)
        tr = T.conv2d_transpose(T.Tensor(y), T.Tensor(w), s, p).data
        xt = x[:, :, :tr.shape[2], :tr.shape[3]]
        lhs = float(np.sum(T.conv2d(T.Tensor(xt), T.Tensor(w), s, p).data
                           * y.astype(np.float32), dtype=np.float64))
        rhs = float(np.sum(tr * xt.astype(np.float32), dtype=np.float64))
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_bit_equal_to_phase_loop(self, case):
        # integer inputs and one power-of-two scale per tap make every tap
        # product exact, while adding taps of different scales rounds, so
        # only how the taps are grouped and ordered decides the bytes: here
        # one GEMM over each phase's taps, as _phase_loop lays them out
        rng = np.random.default_rng(34)
        k = case[6]
        scale = 2.0 ** rng.integers(-14, 14, size=(k, k))
        x, w, s, p, y = _col2im_case(
            case, rng, lambda *shape: rng.integers(-3, 4, size=shape).astype(np.float32))
        w = (w * scale).astype(np.float32)
        tr = T.conv2d_transpose(T.Tensor(y), T.Tensor(w), s, p).data
        assert np.array_equal(
            tr, _phase_loop(y, w, s, p, (y.shape[0],) + tr.shape[1:]))
        gx, _ = _input_grad(x, w, s, p, y)
        want = _phase_loop(y, w, s, p, x.shape)
        assert np.array_equal(gx, want)
        if k >= 2 * s:  # four or more taps a pixel: adding whole taps in
            # (a, b) order, as the scatter kernel did, rounds differently
            lex = [(a, b) for a in range(k) for b in range(k)]
            assert not np.array_equal(
                want, _tap_order_loop(y, w, s, p, x.shape, lex))


def test_conv2d_input_without_grad_keeps_w_grad_bytes():
    x, w, s, p, y = _col2im_case(COL2IM_CASES[1], np.random.default_rng(35))
    gx, gw_live = _input_grad(x, w, s, p, y, x_requires_grad=True)
    none, gw_data = _input_grad(x, w, s, p, y, x_requires_grad=False)
    assert gx is not None and none is None
    assert gw_data.tobytes() == gw_live.tobytes()


# ---- leaky_relu against its np.where definition ------------------------------

def _leaky_specials():
    """Every pair of special values, as (x, g) float32 arrays, plus normals."""
    bits = np.array([0x7FC00000, 0xFFC00000, 0x7FC12345, 0xFFD00001],
                    dtype=np.uint32)  # quiet NaNs: both signs, two payloads
    special = np.concatenate([
        np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 3.4e38, -3.4e38,
                  1e-45, -1e-45, 1e-40, -1e-40, 1.17549435e-38, -1.17549435e-38],
                 dtype=np.float32),
        bits.view(np.float32)])
    xs, gs = (v.ravel() for v in np.meshgrid(special, special, indexing="ij"))
    rng = np.random.default_rng(37)
    normals = rng.normal(size=(2, 1000)).astype(np.float32)
    return np.concatenate([xs, normals[0]]), np.concatenate([gs, normals[1]])


@pytest.mark.parametrize("alpha", [0.2, 0.01, 0.5])
def test_leaky_relu_bit_equal_to_where_definition(alpha):
    x, g = _leaky_specials()
    a = np.float32(alpha)
    xt = T.Tensor(x.copy(), requires_grad=True)
    out = T.leaky_relu(xt, alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # the inf * 0 of the sum
        T.reduce_sum(T.mul(out, T.Tensor(g))).backward()
    mask = x > 0
    want_y = np.where(mask, x, a * x)
    want_g = np.where(mask, g, a * g)
    assert out.data.dtype == np.float32 and xt.grad.dtype == np.float32
    assert out.data.view(np.uint32).tobytes() == want_y.view(np.uint32).tobytes()
    assert xt.grad.view(np.uint32).tobytes() == want_g.view(np.uint32).tobytes()


# ---- conv layers fused with their bias and leaky ReLU ------------------------

SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45, -1e-45,
                     1e-40, -1e-40], dtype=np.float32)


def _sprinkled(rng, shape, share=0.1):
    """Normal float32 values with a share of them replaced by SPECIALS."""
    v = rng.normal(size=shape).astype(np.float32)
    at = rng.random(shape) < share
    v[at] = rng.choice(SPECIALS, size=int(at.sum()))
    return v


def _layer(op, x, w, b, s, p, g, leak, fused):
    """(output, x grad, w grad, b grad) of op's layer given the output's
    gradient g: one fused node, or the op -> add_bias -> leaky_relu chain."""
    xt, wt, bt = (T.Tensor(v, requires_grad=True) for v in (x, w, b))
    if fused:
        y = op(xt, wt, s, p, bias=bt, leak=leak)
    else:
        y = T.add_bias(op(xt, wt, s, p), bt)
        y = y if leak is None else T.leaky_relu(y, leak)
    T.reduce_sum(T.mul(y, T.Tensor(g))).backward()
    return y.data, xt.grad, wt.grad, bt.grad


@pytest.mark.parametrize("leak", [0.2, None])
@pytest.mark.parametrize("transpose", [False, True], ids=["conv2d", "conv2d_transpose"])
@pytest.mark.parametrize("case", COL2IM_CASES, ids=[c[0] for c in COL2IM_CASES])
def test_fused_layer_bit_equal_to_op_chain(case, transpose, leak):
    # each (input, bias) pair below gives pre-activations that are NaN,
    # +-inf, exact zeros or subnormals, which leak * x underflows; g holds
    # specials throughout
    rng = np.random.default_rng(39)
    x, w, s, p, y = _col2im_case(case, rng)
    op, x = (T.conv2d_transpose, y) if transpose else (T.conv2d, x)
    x, w = x.astype(np.float32), w.astype(np.float32)
    tiny = (rng.normal(size=w.shape[1] if transpose else w.shape[0]) * 1e-40
            ).astype(np.float32)
    tiny[0] = 0.0
    pairs = [(_sprinkled(rng, x.shape, 0.25), tiny / np.float32(1e-40)),
             (x * np.float32(1e-40), tiny), (np.zeros_like(x), tiny)]
    pairs += [(x, np.full_like(tiny, v)) for v in (np.inf, -np.inf, np.nan)]
    outs = []
    with np.errstate(all="ignore"):
        g = _sprinkled(rng, op(T.Tensor(x), T.Tensor(w), s, p).shape)
        for xv, b in pairs:
            fused = _layer(op, xv, w, b, s, p, g, leak, True)
            chain = _layer(op, xv, w, b, s, p, g, leak, False)
            for got, want in zip(fused, chain):
                assert got.dtype == want.dtype == np.float32
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            outs.append(fused[0])
    out = np.concatenate([o.ravel() for o in outs])
    assert np.isnan(out).any() and np.isposinf(out).any() and np.isneginf(out).any()
    assert (out == 0).any() and ((out > 0) & (out < 1e-38)).any()


@pytest.mark.parametrize("alpha", [0.2, 0.01, 0.5])
def test_leaky_slope_read_off_the_output(alpha):
    # the fused layers keep y, not x, and take the slope from y > 0
    x, g = _leaky_specials()
    y = T.leaky_relu(T.Tensor(x), alpha).data
    a = np.float32(alpha)
    assert T._leaky_grad(g, y, a).tobytes() == T._leaky_grad(g, x, a).tobytes()


@pytest.mark.parametrize("transpose", [False, True], ids=["conv2d", "conv2d_transpose"])
def test_fused_layer_against_finite_differences(transpose):
    # small weights and biases of +-2.5 keep every pre-activation at least
    # 0.7 from the kink, one sign a channel, so both slopes are checked
    rng = np.random.default_rng(40)
    if transpose:
        op, ref = T.conv2d_transpose, gradcheck.conv2d_transpose_ref
        x_shape, w_shape, out = (2, 3, 3, 3), (3, 2, 4, 4), (2, 2, 6, 6)
    else:
        op, ref = T.conv2d, gradcheck.conv2d_ref
        x_shape, w_shape, out = (2, 2, 5, 5), (3, 2, 3, 3), (2, 3, 3, 3)
    x, w = rng.uniform(-1, 1, x_shape), rng.uniform(-0.1, 0.1, w_shape)
    b = np.resize([2.5, -2.5], out[1])
    r = rng.uniform(-1, 1, out)

    def build(x, w, b):
        return (op(x, w, 2, 1, bias=b, leak=0.2) * T.Tensor(r)).sum()

    def ref_fn(x, w, b):
        pre = ref(x, w, 2, 1) + b[None, :, None, None]
        assert np.abs(pre).min() > 0.5
        return float(np.sum(np.where(pre > 0, pre, 0.2 * pre) * r))

    gradcheck.check_gradients(build, ref_fn, [x, w, b])


# ---- the one conv node: argument checks and the kernels of its backward ------

def _conv_call(transposed, **change):
    """Arguments of a valid call of conv2d or conv2d_transpose with one
    kernel (3, 2, 3, 3), with the shapes and values in change swapped in."""
    args = dict(x=(1, 3, 2, 2) if transposed else (1, 2, 4, 4), w=(3, 2, 3, 3),
                stride=2, padding=1, bias=None, leak=None)
    args.update(change)
    x, w, b = (None if args[k] is None else T.Tensor(np.zeros(args[k]))
               for k in ("x", "w", "bias"))
    return (x, w, args["stride"], args["padding"]), dict(bias=b, leak=args["leak"])


CONV_REJECTIONS = {  # name: (error, the change to a valid call, given transposed)
    "stride_0": (ContractError, lambda t: dict(stride=0)),
    "padding_-1": (ContractError, lambda t: dict(padding=-1)),
    "rank_3_input": (DimensionError, lambda t: dict(x=(3, 2, 2) if t else (2, 4, 4))),
    "non_square_kernel": (DimensionError, lambda t: dict(w=(3, 2, 3, 2))),
    "channel_mismatch": (DimensionError,
                         lambda t: dict(x=(1, 2, 2, 2) if t else (1, 3, 4, 4))),
    "non_positive_extent": (DimensionError,
                            lambda t: dict(x=(1, 3, 1, 1), padding=2) if t
                            else dict(x=(1, 2, 1, 1), padding=0)),
    "bias_shape": (DimensionError, lambda t: dict(bias=(4,))),
    "leak_0": (ContractError, lambda t: dict(leak=0.0)),
    "leak_1": (ContractError, lambda t: dict(leak=1.0)),
    "leak_-0.2": (ContractError, lambda t: dict(leak=-0.2)),
    "leak_nan": (ContractError, lambda t: dict(leak=float("nan"))),
}


@pytest.mark.parametrize("case", CONV_REJECTIONS)
@pytest.mark.parametrize("op", [T.conv2d, T.conv2d_transpose],
                         ids=["conv2d", "conv2d_transpose"])
def test_conv_rejects_bad_arguments_naming_the_op(op, case):
    transposed = op is T.conv2d_transpose
    args, kwargs = _conv_call(transposed)
    op(*args, **kwargs)  # the valid call runs, so the change is what fails
    error, change = CONV_REJECTIONS[case]
    args, kwargs = _conv_call(transposed, **change(transposed))
    with pytest.raises(error, match=rf"^{op.__name__}\b"):
        op(*args, **kwargs)


@pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_data"])
@pytest.mark.parametrize("op", [T.conv2d, T.conv2d_transpose],
                         ids=["conv2d", "conv2d_transpose"])
def test_conv_backward_kernel_calls(monkeypatch, op, x_grad):
    # conv2d_transpose gathers its gradient's windows once for both
    # gradients; conv2d gathers x's for the weight gradient and drops them
    # before _transpose_cols (whose own gather is not counted) runs
    transposed = op is T.conv2d_transpose
    rng = np.random.default_rng(42)
    x = T.Tensor(rng.normal(size=(2, 3, 3, 3) if transposed else (2, 2, 5, 5)),
                 requires_grad=x_grad)
    w = T.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    loss = T.reduce_sum(op(x, w, 2, 1, leak=0.2))
    gather, phases = T._gather_cols, T._transpose_cols
    calls, windows, held, inside = [], [], [], []

    def counted_gather(*args):
        cols = gather(*args)
        if not inside:
            calls.append("_gather_cols")
            windows.append(weakref.ref(cols))
        return cols

    def counted_phases(*args):
        calls.append("_transpose_cols")
        held.append(sum(r() is not None for r in windows))
        inside.append(1)
        try:
            return phases(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(T, "_gather_cols", counted_gather)
    monkeypatch.setattr(T, "_transpose_cols", counted_phases)
    loss.backward()
    up = x_grad and not transposed
    assert calls == ["_gather_cols"] + ["_transpose_cols"] * up
    assert held == [0] * up
    assert (x.grad is not None) == x_grad and w.grad is not None


def test_paper_size_stage2_micro_batch_tape_memory():
    # forward and backward of one stage-2 micro-batch of 16 clips at the
    # paper's 80x96, 16-128-channel size; with the bias and leaky ReLU as
    # their own nodes and conv2d keeping its im2col windows the traced peak
    # was about 66 MB, with one node a layer keeping its output about 28 MB
    cfg = ModelConfig()
    bundle = build_model(cfg, 3)
    bundle.freeze("general_encoder")
    head = CosFaceHead(cfg.latent_dim, stream=Stream(3).spawn(6))
    rng = np.random.default_rng(41)
    n = 16
    feats = rng.normal(size=(n, 1, cfg.n_mels, cfg.target_frames)).astype(np.float32)
    labels = np.arange(n) % 2
    rows = [rng.normal(size=(n, cfg.latent_dim)).astype(np.float32) for _ in range(4)]
    general = np.stack(rows[:2], axis=1)  # the frozen mu and logvar rows
    gc.collect()
    tracemalloc.start()
    try:
        total, _ = train._stage2_loss(bundle, head, feats, labels, general,
                                      LossWeights(), np.arange(n), *rows[2:],
                                      1.0, n // 2)
        total.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for _, p in bundle.trainable_params(train.STAGE2_NETS))
    assert peak < 40e6, f"traced peak {peak / 1e6:.1f} MB"
