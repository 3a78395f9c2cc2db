"""Loss terms, stage objectives, and their oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofvae import losses as L
from spoofvae.errors import ContractError, DimensionError
from spoofvae.model import ActivationMap, LatentDistribution
from spoofvae.rng import Stream
from spoofvae.tensor import Tensor

import gradcheck


def dist(mu, logvar):
    return LatentDistribution(mu=Tensor(np.atleast_2d(mu)),
                              logvar=Tensor(np.atleast_2d(logvar)))


def kl_closed_form(mu, logvar):
    mu = np.atleast_2d(np.asarray(mu, dtype=np.float64))
    lv = np.atleast_2d(np.asarray(logvar, dtype=np.float64))
    return float(0.5 * np.mean(np.sum(mu ** 2 + np.exp(lv) - 1.0 - lv, axis=1)))


class TestReconLoss:
    def test_identity_is_zero(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5)))
        assert L.recon_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_hand_mean_of_squares(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        zero = Tensor(np.zeros((2, 2)))
        assert L.recon_loss(x, zero).item() == pytest.approx(7.5, rel=1e-6)

    def test_constant_offset_squares(self):
        x = Tensor(np.full((3, 4), 1.0))
        y = Tensor(np.full((3, 4), 1.0 - 0.25))
        assert L.recon_loss(x, y).item() == pytest.approx(0.0625, rel=1e-5)

    def test_extent_mismatch(self):
        with pytest.raises(DimensionError):
            L.recon_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


class TestKlLoss:
    def test_standard_normal_is_exactly_zero(self):
        assert L.kl_loss(dist(np.zeros(4), np.zeros(4))).item() == 0.0

    def test_unit_mean_scalar(self):
        assert L.kl_loss(dist([1.0], [0.0])).item() == pytest.approx(0.5, rel=1e-6)

    def test_log_four_variance(self):
        want = 0.5 * (4.0 - 1.0 - np.log(4.0))
        got = L.kl_loss(dist([0.0], [np.log(4.0)])).item()
        assert got == pytest.approx(want, rel=1e-5)
        assert got == pytest.approx(0.8069, abs=5e-4)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        d = dist(rng.normal(size=(3, 6)), rng.normal(size=(3, 6)))
        assert L.kl_loss(d).item() >= -1e-6

    def test_matches_monte_carlo(self):
        # independent sampling estimate of E_q[log q - log p]
        settings_list = [
            (np.array([0.5, -1.0, 2.0, 0.0]), np.array([0.2, -0.5, 1.0, 0.0])),
            (np.array([1.5, 0.3, -0.7, 0.9]), np.array([-1.0, 0.5, 0.0, 0.8])),
            (np.array([0.0, 0.0, 0.0, 0.0]), np.array([1.2, -0.8, 0.4, -0.3])),
        ]
        rng = np.random.default_rng(2024)
        n = 100_000
        for mu, lv in settings_list:
            closed = L.kl_loss(dist(mu, lv)).item()
            eps = rng.standard_normal((n, 4))
            z = mu + np.exp(0.5 * lv) * eps
            log_q = -0.5 * np.sum(np.log(2 * np.pi) + lv + eps ** 2, axis=1)
            log_p = -0.5 * np.sum(np.log(2 * np.pi) + z ** 2, axis=1)
            mc = float(np.mean(log_q - log_p))
            assert closed == pytest.approx(mc, rel=0.02)


class TestCosFaceLoss:
    def head(self, w, s=1.0, m=0.0):
        return L.CosFaceHead(np.asarray(w).shape[1], scale=s, margin=m,
                             weight=np.asarray(w, dtype=np.float32))

    def test_symmetric_cosines_give_ln2(self):
        h = self.head([[1.0, 0.0], [0.0, 1.0]], s=1.0, m=0.0)
        f = Tensor(np.array([[1.0, 1.0]]))
        got = L.cosface_loss(f, np.array([0]), h).item()
        assert got == pytest.approx(np.log(2.0), rel=1e-5)

    def test_separable_limit_approaches_zero(self):
        h = self.head([[1.0, 0.0], [-1.0, 0.0]], s=30.0, m=0.0)
        f = Tensor(np.array([[5.0, 0.0]]))
        assert L.cosface_loss(f, np.array([0]), h).item() <= 1e-6

    def test_margin_closed_form_tiny_loss(self):
        # cos to true class 0.9, to other 0.1, margin 0.35, scale 64:
        # exact value softplus(-28.8) ~ 3.1e-13; float32 smallest
        # representable loss after the sigmoid clamp is ~1.2e-7
        h = self.head([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], s=64.0, m=0.35)
        f = Tensor(np.array([[0.9, 0.1, np.sqrt(1.0 - 0.81 - 0.01)]]))
        assert L.cosface_loss(f, np.array([0]), h).item() <= 1e-6

    def test_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(2, 8))
        f = rng.normal(size=(5, 8))
        y = np.array([0, 1, 1, 0, 1])
        h = self.head(w, s=10.0, m=0.2)
        base = L.cosface_loss(Tensor(f), y, h).item()
        for c in (0.5, 3.0, 40.0):
            scaled = L.cosface_loss(Tensor(c * f), y, h).item()
            assert scaled == pytest.approx(base, abs=1e-5)

    @given(st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_loss_monotone_in_margin(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(2, 6))
        f = rng.normal(size=(4, 6))
        y = rng.integers(0, 2, size=4)
        losses = []
        for m in (0.0, 0.2, 0.4, 0.6):
            h = self.head(w, s=8.0, m=m)
            losses.append(L.cosface_loss(Tensor(f), y, h).item())
        assert all(b >= a - 1e-6 for a, b in zip(losses, losses[1:]))

    def test_zero_vector_is_finite(self):
        h = self.head([[1.0, 0.0], [0.0, 1.0]], s=30.0, m=0.35)
        f = Tensor(np.zeros((1, 2)))
        assert np.isfinite(L.cosface_loss(f, np.array([1]), h).item())

    def test_head_validation(self):
        with pytest.raises(ContractError):
            L.CosFaceHead(4, scale=-1.0, stream=Stream(0))
        with pytest.raises(ContractError):
            L.CosFaceHead(4, margin=1.0, stream=Stream(0))
        with pytest.raises(DimensionError):
            L.CosFaceHead(4, weight=np.zeros((3, 4)))

    # NaN compares false against every bound, and 1e39 is inf in the
    # float32 the head computes in; each once built a head
    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, 1e39, 10 ** 400,
                                       0.0, -1.0])
    def test_head_rejects_a_scale_out_of_its_range(self, scale):
        with pytest.raises(ContractError,
                           match="^scale must be finite and > 0, got "):
            L.CosFaceHead(4, scale=scale, stream=Stream(0))

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -1e-9, 1.0])
    def test_head_rejects_a_margin_out_of_its_range(self, margin):
        with pytest.raises(ContractError,
                           match=r"^margin must be in \[0, 1\), got "):
            L.CosFaceHead(4, margin=margin, stream=Stream(0))

    def test_head_takes_the_ends_of_its_ranges(self):
        f32_max = float(np.finfo(np.float32).max)
        for scale, margin in ((5e-324, 0.0), (f32_max, np.nextafter(1, 0))):
            head = L.CosFaceHead(4, scale=scale, margin=margin,
                                 stream=Stream(0))
            assert (head.scale, head.margin) == (scale, margin)

    def test_bad_labels_rejected(self):
        h = self.head([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ContractError):
            L.cosface_loss(Tensor(np.ones((1, 2))), np.array([2]), h)


class TestConcentrationLoss:
    def test_zero_bona_fide_maps(self):
        maps = ActivationMap(Tensor(np.zeros((2, 1, 3, 3))))
        got = L.concentration_loss(maps, np.array([0, 0]))
        assert got.item() == 0.0

    def test_all_ones_map(self):
        maps = ActivationMap(Tensor(np.ones((1, 1, 4, 4))))
        assert L.concentration_loss(maps, np.array([0])).item() == 1.0

    def test_synthetic_only_batch_contributes_zero(self):
        maps = ActivationMap(Tensor(np.ones((3, 1, 2, 2))))
        got = L.concentration_loss(maps, np.array([1, 1, 1]))
        assert got.item() == 0.0

    def test_only_bona_fide_rows_counted(self):
        vals = np.zeros((2, 1, 2, 2), dtype=np.float32)
        vals[0] = 0.5   # bona fide
        vals[1] = 1.0   # synthetic, must be ignored
        got = L.concentration_loss(ActivationMap(Tensor(vals)), np.array([0, 1]))
        assert got.item() == pytest.approx(0.5, rel=1e-6)


class TestBceLoss:
    def test_perfect_prediction_is_tiny(self):
        # clamp floors the prediction at float32(1 - 1e-7) = 1 - 2^-23
        got = L.bce_loss(Tensor([1.0]), np.array([1])).item()
        assert got == pytest.approx(-np.log(np.float32(1.0) - np.float32(1e-7)),
                                    rel=1e-3)
        assert 0.0 < got < 1e-6

    def test_half_confidence_is_ln2(self):
        assert L.bce_loss(Tensor([0.5]), np.array([1])).item() == \
            pytest.approx(np.log(2.0), rel=1e-5)
        assert L.bce_loss(Tensor([0.5]), np.array([0])).item() == \
            pytest.approx(np.log(2.0), rel=1e-5)

    def test_minimized_at_true_label(self):
        for y in (0, 1):
            losses = [L.bce_loss(Tensor([p]), np.array([y])).item()
                      for p in (0.01, 0.3, 0.5, 0.7, 0.99)]
            best = np.argmin(losses)
            assert best == (len(losses) - 1 if y == 1 else 0)

    def test_finite_for_extreme_inputs(self):
        got = L.bce_loss(Tensor([0.0, 1.0]), np.array([1, 0])).item()
        assert np.isfinite(got)


class TestStageObjectives:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.x = Tensor(rng.normal(size=(2, 1, 4, 4)))
        self.x_rec = Tensor(rng.normal(size=(2, 1, 4, 4)))
        self.d = dist(rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))
        self.f_d = Tensor(rng.normal(size=(2, 4)))
        self.maps = ActivationMap(Tensor(rng.uniform(0, 1, size=(2, 1, 4, 4))))
        self.y_hat = Tensor(rng.uniform(0.1, 0.9, size=2))
        self.y = np.array([0, 1])
        self.head = L.CosFaceHead(4, weight=rng.normal(size=(2, 4)))

    def test_stage1_perfect_reconstruction_and_prior_is_zero(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        zero_d = dist(np.zeros(3), np.zeros(3))
        total, report = L.stage1_loss(x, Tensor(x.data.copy()), zero_d)
        assert total.item() == 0.0
        assert report.total == 0.0

    def test_stage1_zero_kl_weight_equals_recon(self):
        w = L.LossWeights(w_kl=0.0)
        total, report = L.stage1_loss(self.x, self.x_rec, self.d, w)
        assert total.item() == L.recon_loss(self.x, self.x_rec).item()
        assert report.terms["recon"] == total.item()

    def test_stage1_total_is_weighted_sum(self):
        w = L.LossWeights(w_recon=0.7, w_kl=2.0)
        total, report = L.stage1_loss(self.x, self.x_rec, self.d, w)
        want = 0.7 * report.terms["recon"] + 2.0 * report.terms["kl"]
        assert report.total == pytest.approx(want, rel=1e-6)
        assert total.item() == pytest.approx(want, rel=1e-6)

    def stage2(self, w=None):
        return L.stage2_loss(self.x, self.x_rec, self.d, self.f_d, self.maps,
                             self.y_hat, self.y, self.head, w)

    def test_stage2_all_zero_weights(self):
        w = L.LossWeights(0.0, 0.0, 0.0, 0.0, 0.0)
        total, report = self.stage2(w)
        assert total.item() == 0.0
        assert report.total == 0.0

    def test_stage2_single_term_isolation(self):
        for name, w in [
            ("recon", L.LossWeights(1.0, 0.0, 0.0, 0.0, 0.0)),
            ("kl", L.LossWeights(0.0, 1.0, 0.0, 0.0, 0.0)),
            ("cos", L.LossWeights(0.0, 0.0, 1.0, 0.0, 0.0)),
            ("con", L.LossWeights(0.0, 0.0, 0.0, 1.0, 0.0)),
            ("bce", L.LossWeights(0.0, 0.0, 0.0, 0.0, 1.0)),
        ]:
            total, report = self.stage2(w)
            assert total.item() == pytest.approx(report.terms[name], rel=1e-6)

    def test_stage2_total_matches_weighted_sum(self):
        w = L.LossWeights(0.5, 1.5, 2.0, 0.25, 3.0)
        total, report = self.stage2(w)
        want = sum(report.weights[k] * report.terms[k] for k in report.terms)
        assert report.total == pytest.approx(want, rel=1e-6)

    def test_negative_weight_rejected(self):
        with pytest.raises(ContractError):
            L.LossWeights(w_recon=-0.1)

    def test_weights_round_trip(self):
        w = L.LossWeights(0.5, 1.5, 2.0, 0.25, 3.0)
        assert L.LossWeights.from_dict(w.to_dict()) == w
        with pytest.raises(ContractError):
            L.LossWeights.from_dict({"w_recon": 1.0, "bogus": 2.0})


class TestLossGradients:
    def test_each_loss_against_finite_differences(self):
        rng = np.random.default_rng(99)
        for case in gradcheck.make_loss_cases(rng):
            case.run()


class TestLogRecord:
    def test_format(self):
        report = L.LossReport(terms={"recon": 1.23456789, "kl": 0.000123456},
                              weights={"recon": 1.0, "kl": 1.0},
                              total=1.23469135)
        line = L.format_loss_record(7, report, lr=0.00123456)
        assert line == "step=7 recon=1.23457 kl=0.000123456 total=1.23469 lr=0.00123456"
        assert "\n" not in line

    def test_without_lr(self):
        report = L.LossReport(terms={"recon": 2.0}, weights={"recon": 1.0}, total=2.0)
        assert L.format_loss_record(0, report) == "step=0 recon=2 total=2"
