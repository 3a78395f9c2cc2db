"""Network shapes, determinism, latent plumbing, and freezing."""

import numpy as np
import pytest

from spoofvae import model as M
from spoofvae import tensor as T
from spoofvae.errors import ContractError, DimensionError
from spoofvae.rng import Stream
from spoofvae.tensor import Tensor

import gradcheck

CFG = M.ModelConfig(n_mels=32, target_frames=32, latent_dim=8,
                    channels=(4, 8, 8, 16), classifier_channels=(4, 8))


@pytest.fixture(scope="module")
def bundle():
    return M.build_model(CFG, seed=123)


def batch(n=2, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(n, 1, CFG.n_mels, CFG.target_frames)))


class TestConfig:
    def test_extent_must_match_halvings(self):
        with pytest.raises(ContractError):
            M.ModelConfig(n_mels=50, target_frames=96)

    def test_round_trip(self):
        d = CFG.to_dict()
        assert M.ModelConfig.from_dict(d) == CFG

    def test_unknown_key_rejected(self):
        with pytest.raises(ContractError):
            M.ModelConfig.from_dict({"n_mels": 32, "bogus": 1})


class TestEncoder:
    def test_output_lengths_equal_latent_dim(self, bundle):
        dist = M.encode(bundle, M.GENERAL, batch(3))
        assert dist.mu.shape == (3, CFG.latent_dim)
        assert dist.logvar.shape == (3, CFG.latent_dim)

    def test_identical_inputs_identical_outputs(self, bundle):
        x = batch(2, seed=5)
        a = M.encode(bundle, M.GENERAL, x)
        b = M.encode(bundle, M.GENERAL, Tensor(x.data.copy()))
        assert np.array_equal(a.mu.data, b.mu.data)
        assert np.array_equal(a.logvar.data, b.logvar.data)

    def test_zeroed_heads_return_bias(self, bundle):
        enc = M.Encoder(CFG, Stream(9))
        enc.mu_head.w.data[:] = 0.0
        enc.mu_head.b.data[:] = 1.5
        enc.logvar_head.w.data[:] = 0.0
        enc.logvar_head.b.data[:] = -0.5
        mu, logvar = enc(batch(2, seed=3))
        assert np.allclose(mu.data, 1.5)
        assert np.allclose(logvar.data, -0.5)

    def test_extent_mismatch_rejected(self, bundle):
        bad = Tensor(np.zeros((2, 1, 16, 32), dtype=np.float32))
        with pytest.raises(DimensionError):
            M.encode(bundle, M.GENERAL, bad)

    def test_unknown_encoder_name(self, bundle):
        with pytest.raises(ContractError):
            M.encode(bundle, "other", batch())

    def test_both_encoders_share_architecture(self, bundle):
        def layout(name):
            return [(pname.split(".", 1)[1], p.shape)
                    for pname, p in bundle.named_params((name,))]
        assert layout("general_encoder") == layout("disentangled_encoder")
        assert layout("general_encoder") != layout("classifier")


class TestReparameterize:
    def dist(self, mu, logvar):
        return M.LatentDistribution(mu=Tensor(np.atleast_2d(mu)),
                                    logvar=Tensor(np.atleast_2d(logvar)))

    def test_zero_noise_returns_mu(self):
        d = self.dist([1.0, -2.0], [0.3, 0.3])
        s = M.reparameterize(d, eps=np.zeros((1, 2)))
        assert np.allclose(s.z.data, [[1.0, -2.0]])

    def test_unit_variance_adds_noise(self):
        d = self.dist([1.0], [0.0])
        s = M.reparameterize(d, eps=np.array([[np.e]]))
        assert s.z.data[0, 0] == pytest.approx(1.0 + np.e, rel=1e-6)

    def test_logvar_ln4_gives_sigma_two(self):
        d = self.dist([0.0], [np.log(4.0)])
        s = M.reparameterize(d, eps=np.array([[1.0]]))
        assert s.z.data[0, 0] == pytest.approx(2.0, rel=1e-6)

    def test_gradients_flow_to_mu_and_logvar_not_eps(self):
        mu = Tensor(np.array([[0.3, -0.2]], dtype=np.float32), requires_grad=True)
        logvar = Tensor(np.array([[0.1, 0.4]], dtype=np.float32), requires_grad=True)
        eps = np.array([[0.7, -1.1]])
        s = M.reparameterize(M.LatentDistribution(mu, logvar), eps=eps)
        s.z.sum().backward()
        assert np.allclose(mu.grad, 1.0)
        want = 0.5 * np.exp(0.5 * logvar.data) * eps
        assert np.allclose(logvar.grad, want, rtol=1e-5)

    def test_reparameterize_gradient_against_finite_differences(self):
        rng = np.random.default_rng(17)
        mu0 = rng.normal(size=(2, 3))
        lv0 = rng.normal(size=(2, 3)) * 0.5
        eps = rng.normal(size=(2, 3))
        r = rng.uniform(-1, 1, size=(2, 3))

        def build(m, lv):
            s = M.reparameterize(M.LatentDistribution(m, lv), eps=eps)
            return (s.z * Tensor(r)).sum()

        def ref(m, lv):
            return float(np.sum((m + np.exp(0.5 * lv) * eps) * r))

        gradcheck.check_gradients(build, ref, [mu0, lv0])


class TestLatentPlumbing:
    def test_concat_order(self):
        g = M.LatentSample(Tensor([[1.0, 2.0]]), M.GENERAL)
        d = M.LatentSample(Tensor([[3.0, 4.0]]), M.DISENTANGLED)
        joint = M.concat_features(g, d)
        assert np.array_equal(joint.f.data, np.array([[1, 2, 3, 4]], dtype=np.float32))

    def test_slicing_recovers_halves(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
        joint = M.concat_features(
            M.LatentSample(Tensor(a), M.GENERAL),
            M.LatentSample(Tensor(b), M.DISENTANGLED))
        assert joint.f.shape == (3, 16)
        assert np.allclose(joint.f.data[:, :8], a.astype(np.float32))
        assert np.allclose(joint.f.data[:, 8:], b.astype(np.float32))

    def test_wrong_tags_rejected(self):
        g = M.LatentSample(Tensor([[1.0]]), M.GENERAL)
        d = M.LatentSample(Tensor([[2.0]]), M.DISENTANGLED)
        with pytest.raises(ContractError):
            M.concat_features(d, g)

    def test_unknown_source_tag_rejected(self):
        with pytest.raises(ContractError):
            M.LatentSample(Tensor([[1.0]]), "mystery")


class TestDecoders:
    def test_general_decoder_extent_and_determinism(self, bundle):
        z = M.LatentSample(Tensor(np.random.default_rng(1).normal(size=(2, 8))),
                           M.GENERAL)
        a = M.decode_general(bundle, z)
        b = M.decode_general(bundle, z)
        assert a.shape == (2, 1, CFG.n_mels, CFG.target_frames)
        assert np.array_equal(a.data, b.data)

    def test_general_decoder_requires_general_tag(self, bundle):
        z = M.LatentSample(Tensor(np.zeros((1, 8))), M.DISENTANGLED)
        with pytest.raises(ContractError):
            M.decode_general(bundle, z)

    def test_joint_decoder_takes_double_width(self, bundle):
        f = M.JointFeature(Tensor(np.zeros((2, 16), dtype=np.float32)))
        out = M.decode_joint(bundle, f)
        assert out.shape == (2, 1, CFG.n_mels, CFG.target_frames)
        with pytest.raises(DimensionError):
            M.decode_joint(bundle, M.JointFeature(Tensor(np.zeros((2, 8)))))

    def test_joint_and_general_decoders_have_disjoint_storage(self, bundle):
        gen = dict(bundle.general_decoder.params("general_decoder"))
        joint = dict(bundle.joint_decoder.params("joint_decoder"))
        gen_ids = {id(p.data) for p in gen.values()}
        joint_ids = {id(p.data) for p in joint.values()}
        assert not gen_ids & joint_ids
        probe = bundle.joint_decoder.fc.w.data.copy()
        bundle.general_decoder.fc.w.data += 1.0
        assert np.array_equal(bundle.joint_decoder.fc.w.data, probe)
        bundle.general_decoder.fc.w.data -= 1.0

    def test_map_decoder_output_in_unit_interval(self, bundle):
        z = M.LatentSample(Tensor(np.random.default_rng(3).normal(size=(4, 8)) * 5),
                           M.DISENTANGLED)
        a = M.decode_activation(bundle, z)
        assert a.values.shape == (4, 1, CFG.n_mels, CFG.target_frames)
        assert np.all(a.values.data >= 0.0)
        assert np.all(a.values.data <= 1.0)

    def test_map_decoder_zero_final_layer_gives_half(self):
        b = M.build_model(CFG, seed=77)
        b.map_decoder.deconvs[-1].w.data[:] = 0.0
        b.map_decoder.deconvs[-1].b.data[:] = 0.0
        z = M.LatentSample(Tensor(np.random.default_rng(4).normal(size=(2, 8))),
                           M.DISENTANGLED)
        a = M.decode_activation(b, z)
        assert np.allclose(a.values.data, 0.5)

    def test_zero_parameter_decoder_outputs_bias(self):
        b = M.build_model(CFG, seed=78)
        for _, p in b.general_decoder.params("x"):
            p.data[:] = 0.0
        z1 = M.LatentSample(Tensor(np.random.default_rng(5).normal(size=(1, 8))),
                            M.GENERAL)
        z2 = M.LatentSample(Tensor(np.random.default_rng(6).normal(size=(1, 8))),
                            M.GENERAL)
        out1 = M.decode_general(b, z1)
        out2 = M.decode_general(b, z2)
        assert np.array_equal(out1.data, out2.data)
        assert not np.any(out1.data)


class TestActivationAndClassifier:
    def test_apply_activation_identity_and_annihilator(self, bundle):
        x = batch(2, seed=7)
        ones = M.ActivationMap(Tensor(np.ones_like(x.data)))
        zeros = M.ActivationMap(Tensor(np.zeros_like(x.data)))
        assert np.array_equal(M.apply_activation(ones, x).data, x.data)
        assert not np.any(M.apply_activation(zeros, x).data)

    def test_apply_activation_hand_value(self):
        a = M.ActivationMap(Tensor(np.full((1, 1, 1, 1), 0.5)))
        x = Tensor(np.full((1, 1, 1, 1), 4.0))
        assert M.apply_activation(a, x).data[0, 0, 0, 0] == 2.0

    def test_apply_activation_extent_mismatch(self):
        a = M.ActivationMap(Tensor(np.ones((1, 1, 2, 2))))
        with pytest.raises(DimensionError):
            M.apply_activation(a, Tensor(np.ones((1, 1, 3, 3))))

    def test_classifier_range_and_shape(self, bundle):
        scores = M.classify(bundle, batch(5, seed=8))
        assert scores.shape == (5,)
        assert np.all(scores.data >= 0.0) and np.all(scores.data <= 1.0)

    def test_classifier_zero_head_is_constant_half(self):
        b = M.build_model(CFG, seed=79)
        b.classifier.head.w.data[:] = 0.0
        b.classifier.head.b.data[:] = 0.0
        s1 = M.classify(b, batch(3, seed=9))
        assert np.allclose(s1.data, 0.5)


class TestInfer:
    def test_repeated_calls_identical(self, bundle):
        x = batch(4, seed=10)
        y1, a1, m1 = M.infer(bundle, x)
        y2, a2, m2 = M.infer(bundle, x)
        assert np.array_equal(y1, y2)
        assert np.array_equal(a1, a2)
        assert np.array_equal(m1, m2)

    def test_zero_map_makes_score_input_independent(self):
        b = M.build_model(CFG, seed=80)
        # saturate the map decoder's final layer far negative: map ~ 0
        b.map_decoder.deconvs[-1].w.data[:] = 0.0
        b.map_decoder.deconvs[-1].b.data[:] = -50.0
        y1, a1, _ = M.infer(b, batch(2, seed=11))
        y2, _, _ = M.infer(b, batch(2, seed=12))
        assert np.allclose(a1, 0.0, atol=1e-6)
        assert np.allclose(y1, y2, atol=1e-6)

    def test_inference_does_not_touch_general_encoder(self, bundle):
        x = batch(2, seed=13)
        counter = {"n": 0}
        orig = M.Encoder.__call__

        def spy(self, inp):
            if self is bundle.general_encoder:
                counter["n"] += 1
            return orig(self, inp)

        M.Encoder.__call__ = spy
        try:
            M.infer(bundle, x)
        finally:
            M.Encoder.__call__ = orig
        assert counter["n"] == 0


class TestFreezing:
    def test_frozen_net_excluded_and_gradient_free(self):
        b = M.build_model(CFG, seed=81)
        b.freeze("general_encoder")
        trainable = [n for n, _ in b.trainable_params()]
        assert not any(n.startswith("general_encoder.") for n in trainable)
        assert any(n.startswith("disentangled_encoder.") for n in trainable)

        x = batch(2, seed=14)
        dist = M.encode(b, M.GENERAL, x)
        loss = (dist.mu.sum() + dist.logvar.sum())
        # loss depends only on frozen parameters and the input constant
        assert not loss.requires_grad

    def test_stage2_gradients_skip_frozen_encoder(self):
        b = M.build_model(CFG, seed=82)
        b.freeze("general_encoder")
        x = batch(3, seed=15)
        g_dist = M.encode(b, M.GENERAL, x)
        d_dist = M.encode(b, M.DISENTANGLED, x)
        f_g = M.reparameterize(g_dist, eps=np.zeros(g_dist.mu.shape), source=M.GENERAL)
        f_d = M.reparameterize(d_dist, eps=np.zeros(d_dist.mu.shape),
                               source=M.DISENTANGLED)
        x_hat = M.decode_joint(b, M.concat_features(f_g, f_d))
        a_map = M.decode_activation(b, f_d)
        y_hat = M.classify(b, M.apply_activation(a_map, x))
        loss = T.reduce_mean(T.square(x - x_hat)) + y_hat.mean() \
            + T.reduce_mean(a_map.values)
        loss.backward()
        for name, p in b.named_params(("general_encoder",)):
            assert p.grad is None, f"{name} received a gradient"
        for net in M.STAGE2_NETS:
            grads = [p.grad for _, p in b.named_params((net,))]
            assert any(g is not None and np.any(g) for g in grads), net

    def test_unknown_net_name_rejected(self):
        b = M.build_model(CFG, seed=83)
        with pytest.raises(ContractError):
            b.freeze("nonexistent")


class TestDeterministicInit:
    def test_same_seed_same_parameters(self):
        a = M.build_model(CFG, seed=42)
        b = M.build_model(CFG, seed=42)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_different_seeds_differ(self):
        a = M.build_model(CFG, seed=42)
        b = M.build_model(CFG, seed=43)
        same = all(np.array_equal(pa.data, pb.data)
                   for (_, pa), (_, pb) in zip(a.named_params(), b.named_params()))
        assert not same

    def test_param_names_unique_and_ordered(self):
        b = M.build_model(CFG, seed=1)
        names = [n for n, _ in b.named_params()]
        assert len(names) == len(set(names))
        assert names[0].startswith("general_encoder.")
        assert names[-1].startswith("classifier.")
