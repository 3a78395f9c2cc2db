"""Adam / AdamW update rules and decay schedule."""

import numpy as np
import pytest

from spoofvae.errors import ContractError
from spoofvae.optim import Adam, AdamW
from spoofvae.tensor import Tensor


def make_param(values):
    return Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        # with constant gradient g, step 1 moves by lr*g/(|g|+eps)
        p = make_param([1.0, -2.0, 0.5])
        before = p.data.copy()
        opt = Adam([("p", p)], learning_rate=1e-3)
        p.grad = np.full(3, 2.0, dtype=np.float32)
        opt.step()
        # float32 cancellation in (before - after) costs ~1e-4 relative
        delta = before.astype(np.float64) - p.data.astype(np.float64)
        assert np.allclose(delta, 1e-3, rtol=1e-3)

    def test_zero_gradient_leaves_params_unchanged(self):
        p = make_param([1.0, 2.0])
        before = p.data.copy()
        opt = Adam([("p", p)])
        p.grad = np.zeros(2, dtype=np.float32)
        opt.step()
        assert np.array_equal(p.data, before)

    def test_none_gradient_treated_as_zero(self):
        p = make_param([1.0])
        q = make_param([1.0])
        a = Adam([("p", p)])
        b = Adam([("q", q)])
        p.grad = None
        q.grad = np.zeros(1, dtype=np.float32)
        a.step()
        b.step()
        assert np.array_equal(p.data, q.data)

    def test_step_count_increments_by_one(self):
        p = make_param([1.0])
        opt = Adam([("p", p)])
        for want in (1, 2, 3):
            p.grad = np.ones(1, dtype=np.float32)
            opt.step()
            assert opt.t == want

    def test_descends_a_quadratic(self):
        p = make_param([5.0])
        opt = Adam([("p", p)], learning_rate=0.1)
        for _ in range(200):
            opt.zero_grad()
            p.grad = 2.0 * p.data  # d/dp of p^2
            opt.step()
        assert abs(float(p.data[0])) < 0.5

    def test_lr_decay_is_multiplicative_per_step(self):
        p = make_param([1.0])
        opt = Adam([("p", p)], learning_rate=1e-3, lr_decay=5e-7)
        p.grad = np.ones(1, dtype=np.float32)
        opt.step()
        assert opt.lr == pytest.approx(1e-3 * (1.0 - 5e-7), rel=1e-12)
        p.grad = np.ones(1, dtype=np.float32)
        opt.step()
        assert opt.lr == pytest.approx(1e-3 * (1.0 - 5e-7) ** 2, rel=1e-12)

    def test_moment_shapes_match_params(self):
        p = make_param(np.zeros((3, 4)))
        opt = Adam([("p", p)])
        assert opt.m["p"].shape == (3, 4)
        assert opt.v["p"].shape == (3, 4)

    def test_duplicate_names_rejected(self):
        p, q = make_param([1.0]), make_param([2.0])
        with pytest.raises(ContractError):
            Adam([("p", p), ("p", q)])


class TestAdamW:
    def test_pure_decay_with_zero_gradient(self):
        # p=1, lr=1e-4, wd=1e-3, zero grad -> p shrinks to 1 - 1e-7
        p = make_param([1.0])
        opt = AdamW([("p", p)], learning_rate=1e-4, weight_decay=1e-3)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert float(p.data[0]) == pytest.approx(1.0 - 1e-7, abs=5e-8)

    def test_zero_weight_decay_bitwise_matches_adam(self):
        rng = np.random.default_rng(42)
        init = rng.normal(size=(4, 3)).astype(np.float32)
        pa = make_param(init.copy())
        pw = make_param(init.copy())
        a = Adam([("p", pa)], learning_rate=3e-4, lr_decay=1e-6)
        w = AdamW([("p", pw)], learning_rate=3e-4, weight_decay=0.0, lr_decay=1e-6)
        for _ in range(25):
            g = rng.normal(size=(4, 3)).astype(np.float32)
            pa.grad = g.copy()
            pw.grad = g.copy()
            a.step()
            w.step()
        assert pa.data.tobytes() == pw.data.tobytes()

    def test_decay_applied_before_gradient_update(self):
        # with beta1=0 the step-1 update from gradient g is lr*g/(|g|+eps);
        # the decay must act on the incoming parameter value first
        p = make_param([2.0])
        lr, wd = 1e-2, 0.1
        opt = AdamW([("p", p)], learning_rate=lr, beta1=0.0, weight_decay=wd)
        p.grad = np.ones(1, dtype=np.float32)
        opt.step()
        want = 2.0 * (1.0 - lr * wd) - lr * 1.0 / (1.0 + opt.epsilon)
        assert float(p.data[0]) == pytest.approx(want, rel=1e-5)
