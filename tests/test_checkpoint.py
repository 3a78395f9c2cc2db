"""Checkpoint container: wire format, round trips, corruption handling."""

import numpy as np
import pytest

from conftest import TINY_FRONTEND, TINY_MODEL
from spoofvae.checkpoint import (MAGIC, Checkpoint, CosFaceHeader,
                                 checkpoint_from_bundle, load_checkpoint,
                                 load_net_params, restore_bundle,
                                 save_checkpoint)
from spoofvae.errors import ContractError, FormatError
from spoofvae.losses import CosFaceHead
from spoofvae import model as M
from spoofvae.model import (NET_NAMES, STAGE1_NETS, STAGE2_NETS, build_model,
                            infer)
from spoofvae.rng import Stream
from spoofvae.tensor import Tensor


def small_bundle(seed=5):
    return build_model(TINY_MODEL, seed=seed)


def stage1_checkpoint(seed=5):
    bundle = small_bundle(seed)
    history = [{"iteration": 0, "loss": 3.5, "smoothed_loss": 3.5},
               {"iteration": 1, "loss": 3.25, "smoothed_loss": 3.495}]
    return checkpoint_from_bundle(bundle, TINY_FRONTEND, stage=1,
                                  nets=STAGE1_NETS, iteration=2,
                                  metric_history=history)


def stage2_checkpoint(seed=6):
    bundle = small_bundle(seed)
    bundle.freeze("general_encoder")
    head = CosFaceHead(TINY_MODEL.latent_dim, stream=Stream(seed).spawn(6))
    nets = ("general_encoder",) + STAGE2_NETS
    return checkpoint_from_bundle(
        bundle, TINY_FRONTEND, stage=2, nets=nets, epoch=3, head=head,
        metric_history=[{"epoch": 3, "mean_loss": 1.0,
                         "val_balanced_accuracy": 0.75}])


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        ckpt = stage1_checkpoint()
        a = tmp_path / "a.dsva"
        b = tmp_path / "b.dsva"
        save_checkpoint(ckpt, a)
        save_checkpoint(load_checkpoint(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_fields_survive(self, tmp_path):
        ckpt = stage1_checkpoint()
        path = tmp_path / "c.dsva"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.stage == 1
        assert back.iteration == 2
        assert back.nets == STAGE1_NETS
        assert back.model_config == TINY_MODEL
        assert back.frontend == TINY_FRONTEND
        assert back.metric_history == ckpt.metric_history
        assert list(back.params) == list(ckpt.params)
        for name in ckpt.params:
            assert np.array_equal(back.params[name], ckpt.params[name])

    def test_stage2_cosface_and_frozen_survive(self, tmp_path):
        ckpt = stage2_checkpoint()
        path = tmp_path / "s2.dsva"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.frozen == ("general_encoder",)
        assert back.cosface == CosFaceHeader(scale=30.0, margin=0.35)
        assert "cosface_head.w" in back.params
        assert "general_decoder.fc.w" not in back.params

    def test_restored_bundle_scores_bitwise_equal(self, tmp_path):
        ckpt = stage2_checkpoint()
        path = tmp_path / "probe.dsva"
        save_checkpoint(ckpt, path)
        bundle, head = restore_bundle(ckpt)
        bundle2, head2 = restore_bundle(load_checkpoint(path))
        probe = Stream(3).normal(
            shape=(4, 1, TINY_MODEL.n_mels, TINY_MODEL.target_frames))
        probe = probe.astype(np.float32)
        s1, a1, m1 = infer(bundle, Tensor(probe))
        s2, a2, m2 = infer(bundle2, Tensor(probe))
        assert s1.tobytes() == s2.tobytes()
        assert a1.tobytes() == a2.tobytes()
        assert m1.tobytes() == m2.tobytes()
        assert np.array_equal(head.weight.data, head2.weight.data)

    @pytest.mark.parametrize("make", [stage1_checkpoint, stage2_checkpoint])
    def test_restore_draws_init_only_for_absent_networks(self, monkeypatch,
                                                          make):
        ckpt = make()
        fresh = build_model(TINY_MODEL, seed=0)
        drawn = []
        real = M._kaiming_uniform
        monkeypatch.setattr(M, "_kaiming_uniform",
                            lambda *args: drawn.append(args[1]) or real(*args))
        bundle, _ = restore_bundle(ckpt)
        absent = [n for n in NET_NAMES if n not in ckpt.nets]
        assert drawn == [p.data.shape for n, p in fresh.named_params(absent)
                         if n.endswith(".w")]
        for (name, p), (_, q) in zip(bundle.named_params(), fresh.named_params()):
            want = q.data if name.split(".")[0] in absent else ckpt.params[name]
            assert p.data.tobytes() == want.tobytes(), name

    def test_restore_marks_frozen(self):
        bundle, _ = restore_bundle(stage2_checkpoint())
        assert bundle.frozen == {"general_encoder"}
        for _, p in bundle.general_encoder.params("general_encoder"):
            assert not p.requires_grad


class TestSnapshotSemantics:
    def test_snapshot_copies_by_default(self):
        bundle = small_bundle()
        ckpt = checkpoint_from_bundle(bundle, TINY_FRONTEND, stage=1,
                                      nets=STAGE1_NETS)
        name, p = bundle.named_params(STAGE1_NETS)[0]
        assert not np.shares_memory(ckpt.params[name], p.data)
        p.data += 1.0
        assert not np.array_equal(ckpt.params[name], p.data)

    def test_alias_shares_storage(self):
        bundle = small_bundle()
        bundle.freeze("general_encoder")
        ckpt = checkpoint_from_bundle(bundle, TINY_FRONTEND, stage=1,
                                      nets=STAGE1_NETS)
        enc_name, enc_p = bundle.general_encoder.params("general_encoder")[0]
        dec_name, dec_p = bundle.general_decoder.params("general_decoder")[0]
        assert np.shares_memory(ckpt.params[enc_name], enc_p.data)
        assert not np.shares_memory(ckpt.params[dec_name], dec_p.data)

    def test_load_net_params_rejects_missing_tensor(self):
        ckpt = stage1_checkpoint()
        bundle = small_bundle()
        del ckpt.params["general_encoder.conv0.w"]
        with pytest.raises(FormatError, match="missing"):
            load_net_params(bundle, "general_encoder", ckpt)

    def test_load_net_params_rejects_shape_mismatch(self):
        ckpt = stage1_checkpoint()
        bundle = small_bundle()
        ckpt.params["general_encoder.conv0.w"] = np.zeros((1, 1, 3, 3),
                                                          dtype=np.float32)
        with pytest.raises(FormatError, match="shape"):
            load_net_params(bundle, "general_encoder", ckpt)

    def test_unknown_net_rejected(self):
        with pytest.raises(ContractError, match="unknown network"):
            Checkpoint(stage=1, iteration=0, epoch=0, model_config=TINY_MODEL,
                       frontend=TINY_FRONTEND, nets=("nonsense",), frozen=(),
                       params={})

    def test_non_float32_param_rejected(self):
        with pytest.raises(ContractError, match="float32"):
            Checkpoint(stage=1, iteration=0, epoch=0, model_config=TINY_MODEL,
                       frontend=TINY_FRONTEND, nets=STAGE1_NETS, frozen=(),
                       params={"x": np.zeros(3, dtype=np.float64)})


class TestCorruption:
    def _saved(self, tmp_path):
        path = tmp_path / "good.dsva"
        save_checkpoint(stage1_checkpoint(), path)
        return path, path.read_bytes()

    def test_bad_magic_names_byte_zero(self, tmp_path):
        path, buf = self._saved(tmp_path)
        path.write_bytes(b"XSVA" + buf[4:])
        with pytest.raises(FormatError, match="byte 0"):
            load_checkpoint(path)

    def test_wrong_version_names_byte_four(self, tmp_path):
        path, buf = self._saved(tmp_path)
        path.write_bytes(buf[:4] + b"\x01\x00\x00\x00" + buf[8:])
        with pytest.raises(FormatError, match=r"version 1 at byte 4 "
                                              r"\(supported: 2\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep", [0, 3, 7, 11, 40])
    def test_truncated_prefix_or_header(self, tmp_path, keep):
        path, buf = self._saved(tmp_path)
        path.write_bytes(buf[:keep])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_blob_reports_offset(self, tmp_path):
        path, buf = self._saved(tmp_path)
        path.write_bytes(buf[:-5])
        with pytest.raises(FormatError, match="truncated.*byte") as err:
            load_checkpoint(path)
        assert str(len(buf) - 5) in str(err.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, buf = self._saved(tmp_path)
        path.write_bytes(buf + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        path, buf = self._saved(tmp_path)
        mangled = bytearray(buf)
        mangled[12] = ord("!")  # header starts as '{'
        path.write_bytes(bytes(mangled))
        with pytest.raises(FormatError, match="header at byte 12"):
            load_checkpoint(path)

    def test_no_partial_state_on_truncation(self, tmp_path):
        path, buf = self._saved(tmp_path)
        path.write_bytes(buf[:len(buf) // 2])
        try:
            load_checkpoint(path)
        except FormatError:
            pass
        else:  # pragma: no cover - loader must reject
            raise AssertionError("truncated checkpoint was accepted")

    def test_magic_constant(self):
        assert MAGIC == b"DSVA"
