"""Stage configs, both training loops, and checkpoint selection."""

import dataclasses
import json
import math
import os
import struct
import tempfile

import numpy as np
import pytest

from spoofvae import evaluate, train
from spoofvae.checkpoint import (CosFaceHeader, restore_bundle,
                                 save_checkpoint)
from spoofvae.config import read_json_object
from spoofvae.errors import ContractError, FormatError, InputError
from spoofvae.evaluate import ScoredClips, balanced_accuracy, score_features
from spoofvae.losses import LossWeights
from spoofvae.model import STAGE1_NETS, STAGE2_NETS
from spoofvae.train import (StageConfig, _val_balanced_accuracy, load_features,
                            recorded_val_accuracy, select_best, train_stage1,
                            train_stage2)

from conftest import TINY_FRONTEND, TINY_MODEL, tiny_stage1, tiny_stage2
from test_cli import run as run_cli
from test_cli import write_config
from test_config import run


def checkpoint_bytes(ckpt) -> bytes:
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "ckpt.dsva")
        save_checkpoint(ckpt, path)
        with open(path, "rb") as fh:
            return fh.read()


class TestStageConfig:
    def test_stage1_defaults(self):
        cfg = StageConfig.stage1()
        assert cfg.stage == 1
        assert cfg.optimizer == "adam"
        assert cfg.learning_rate == 1e-3
        assert cfg.lr_decay == 5e-7
        assert cfg.weight_decay == 0.0
        assert cfg.batch_size == 32
        assert cfg.max_iterations == 300

    def test_stage2_defaults(self):
        cfg = StageConfig.stage2()
        assert cfg.stage == 2
        assert cfg.optimizer == "adamw"
        assert cfg.learning_rate == 1e-4
        assert cfg.weight_decay == 1e-3
        assert cfg.batch_size == 32
        assert cfg.epochs == 30
        assert cfg.cosface_scale == 30.0
        assert cfg.cosface_margin == 0.35

    def test_dict_round_trip(self):
        cfg = tiny_stage2(seed=99, loss_weights=LossWeights(w_con=0.0))
        doc = json.loads(json.dumps(cfg.to_dict()))
        assert StageConfig.from_dict(doc) == cfg

    def test_json_file_round_trip(self, tmp_path):
        cfg = tiny_stage1(learning_rate=2e-3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert StageConfig.from_dict(read_json_object(path)) == cfg

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="JSON"):
            StageConfig.from_dict(read_json_object(path))
        path.write_text("[1, 2]")
        with pytest.raises(InputError, match="object"):
            StageConfig.from_dict(read_json_object(path))

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="momentum"):
            StageConfig.from_dict({"stage": 1, "momentum": 0.9})

    def test_stage_required(self):
        with pytest.raises(InputError, match="stage"):
            StageConfig.from_dict({"learning_rate": 1e-3})
        with pytest.raises(InputError, match="stage must be 1 or 2, got 3"):
            StageConfig.from_dict({"stage": 3})

    def test_bad_nested_section_becomes_input_error(self):
        with pytest.raises(InputError, match="model"):
            StageConfig.from_dict({"stage": 1, "model": {"n_mels": -4}})

    def test_extent_mismatch_rejected(self):
        with pytest.raises(InputError, match="does not match frontend"):
            StageConfig.stage1(model=TINY_MODEL)  # default 80x96 frontend

    def test_loop_bounds_validated(self):
        with pytest.raises(InputError, match="max_iterations"):
            StageConfig(stage=1, max_iterations=0)
        with pytest.raises(InputError, match="epochs"):
            StageConfig(stage=2, epochs=0)
        with pytest.raises(InputError, match="optimizer"):
            StageConfig.stage1(optimizer="sgd")

    def test_presets_and_the_zero_boundaries_build(self):
        for make in (StageConfig.stage1, StageConfig.stage2):
            make()
            cfg = make(beta1=0, beta2=0.0, lr_decay=0, cosface_margin=0.0,
                       weight_decay=0, learning_rate=5e-324, epsilon=1e-300,
                       cosface_scale=1e-3)
            assert (cfg.beta1, cfg.weight_decay) == (0, 0)

    def test_a_setting_out_of_range_names_its_field(self):
        with pytest.raises(InputError, match=r"^beta2 must be in \[0, 1\), "
                                             r"got 1\.0$"):
            StageConfig.stage2(beta2=1.0)
        with pytest.raises(InputError, match="^learning_rate must be finite "
                                             "and > 0, got nan$"):
            StageConfig.stage1(learning_rate=math.nan)


# (field, value) of optimizer and margin settings out of their ranges; most
# once exited 2 mid-run or trained on (lr_decay 2 flips the lr's sign)
OUT_OF_RANGE = [
    ("cosface_margin", 1.5), ("cosface_margin", -0.25),
    ("learning_rate", math.nan), ("learning_rate", math.inf),
    ("learning_rate", 0), ("learning_rate", 10 ** 400),
    ("beta1", 1.0), ("beta1", -1), ("beta2", 1.0),
    ("weight_decay", math.inf), ("weight_decay", -1e-3),
    ("cosface_scale", math.nan), ("cosface_scale", 0.0),
    ("lr_decay", 2), ("lr_decay", 1), ("epsilon", -1), ("epsilon", 0),
]


@pytest.mark.parametrize("key, value", OUT_OF_RANGE,
                         ids=[f"{k}={v!r:.8}" for k, v in OUT_OF_RANGE])
@pytest.mark.parametrize("command, make", [("train-stage1", tiny_stage1),
                                           ("train-stage2", tiny_stage2)])
def test_a_setting_out_of_range_exits_one_before_any_clip(
        command, make, key, value, monkeypatch, tmp_path, toy_corpus):
    def never(*args):
        raise AssertionError("a clip was read")

    monkeypatch.setattr(evaluate, "load_clip_features", never)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(make().to_dict(), **{key: value})))
    code, err = run([command, "--config", str(path),
                     "--manifest", toy_corpus["manifest"],
                     "--out", str(tmp_path / "out")])
    assert code == 1, err
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


class TestStage1:
    def test_checkpoint_shape(self, stage1_ckpt):
        assert stage1_ckpt.stage == 1
        assert stage1_ckpt.nets == STAGE1_NETS
        assert stage1_ckpt.iteration == 12
        assert len(stage1_ckpt.metric_history) == 12
        assert stage1_ckpt.frontend == TINY_FRONTEND
        prefixes = {name.split(".")[0] for name in stage1_ckpt.params}
        assert prefixes == {"general_encoder", "general_decoder"}
        entry = stage1_ckpt.metric_history[0]
        assert set(entry) == {"iteration", "loss", "smoothed_loss"}
        assert entry["loss"] == entry["smoothed_loss"]  # first EMA value

    def test_same_seed_is_byte_identical(self, toy_corpus):
        records = toy_corpus["splits"]["train"][:6]
        cfg = tiny_stage1(max_iterations=4)
        a = checkpoint_bytes(train_stage1(records, cfg))
        b = checkpoint_bytes(train_stage1(records, cfg))
        assert a == b

    def test_seed_changes_weights(self, toy_corpus):
        records = toy_corpus["splits"]["train"][:6]
        a = train_stage1(records, tiny_stage1(max_iterations=2, seed=1))
        b = train_stage1(records, tiny_stage1(max_iterations=2, seed=2))
        name = "general_encoder.conv0.w"
        assert not np.array_equal(a.params[name], b.params[name])

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError, match="empty"):
            train_stage1([], tiny_stage1())

    def test_wrong_stage_config_is_contract_error(self, toy_corpus):
        with pytest.raises(ContractError, match="stage-2"):
            train_stage1(toy_corpus["splits"]["train"], tiny_stage2())

    def test_convergence_threshold_stops_early(self, toy_corpus):
        records = toy_corpus["splits"]["train"][:4]
        ckpt = train_stage1(records,
                            tiny_stage1(convergence_threshold=1e9))
        assert ckpt.iteration == 1
        assert len(ckpt.metric_history) == 1

    def test_loss_trends_down(self, toy_corpus):
        records = toy_corpus["splits"]["train"]
        ckpt = train_stage1(records, tiny_stage1(max_iterations=60))
        hist = ckpt.metric_history
        assert hist[-1]["smoothed_loss"] < hist[0]["loss"]

    def test_log_callback_runs_per_iteration(self, toy_corpus):
        lines = []
        train_stage1(toy_corpus["splits"]["train"][:4],
                     tiny_stage1(max_iterations=3), log=lines.append)
        assert len(lines) == 3
        assert all(isinstance(ln, str) and "total=" in ln and "step=" in ln
                   for ln in lines)


class TestStage2:
    def test_general_encoder_stays_frozen(self, stage1_ckpt, stage2_ckpts):
        enc_names = [n for n in stage1_ckpt.params
                     if n.startswith("general_encoder.")]
        assert enc_names
        for ckpt in stage2_ckpts:
            assert ckpt.frozen == ("general_encoder",)
            for name in enc_names:
                a = stage1_ckpt.params[name]
                b = ckpt.params[name]
                assert a.tobytes() == b.tobytes(), name

    def test_one_checkpoint_per_epoch(self, stage2_ckpts):
        assert len(stage2_ckpts) == 3
        for i, ckpt in enumerate(stage2_ckpts, start=1):
            assert ckpt.stage == 2
            assert ckpt.epoch == i
            assert len(ckpt.metric_history) == i
            entry = ckpt.metric_history[-1]
            assert set(entry) == {"epoch", "mean_loss",
                                  "val_balanced_accuracy"}
            assert entry["epoch"] == i
            assert 0.0 <= entry["val_balanced_accuracy"] <= 1.0

    def test_nets_exclude_general_decoder(self, stage2_ckpts):
        for ckpt in stage2_ckpts:
            assert set(ckpt.nets) == {"general_encoder"} | set(STAGE2_NETS)
            assert "general_decoder" not in ckpt.nets
            assert not any(n.startswith("general_decoder.")
                           for n in ckpt.params)

    def test_margin_head_recorded(self, stage2_ckpts):
        ckpt = stage2_ckpts[-1]
        assert ckpt.cosface == CosFaceHeader(scale=30.0, margin=0.35)
        assert "cosface_head.w" in ckpt.params

    def test_every_epoch_file_holds_only_weights(self, stage2_ckpts):
        # the blob region (all after the header) is the same length in
        # every epoch file: the weights, and no optimizer state
        weights = 4 * sum(a.size for a in stage2_ckpts[-1].params.values())
        for ckpt in stage2_ckpts:
            buf = checkpoint_bytes(ckpt)
            (header_len,) = struct.unpack("<I", buf[8:12])
            assert len(buf) - 12 - header_len == weights

    def test_same_seed_is_byte_identical(self, toy_corpus, stage1_ckpt):
        records = toy_corpus["splits"]["train"]
        dev = toy_corpus["splits"]["dev"]
        cfg = tiny_stage2(epochs=2)
        a = train_stage2(records, stage1_ckpt, cfg, val_records=dev)
        b = train_stage2(records, stage1_ckpt, cfg, val_records=dev)
        assert checkpoint_bytes(a[-1]) == checkpoint_bytes(b[-1])

    def test_single_class_rejected(self, toy_corpus):
        bona_only = [r for r in toy_corpus["splits"]["train"]
                     if r.label == "bonafide"]
        with pytest.raises(InputError, match="both labels"):
            train_stage2(bona_only, None, tiny_stage2())

    def test_architecture_mismatch_rejected(self, toy_corpus, stage1_ckpt):
        other = dataclasses.replace(TINY_MODEL, latent_dim=4)
        cfg = tiny_stage2(model=other)
        with pytest.raises(FormatError, match="does not match"):
            train_stage2(toy_corpus["splits"]["train"], stage1_ckpt, cfg)

    def test_stage2_checkpoint_rejected_as_warm_start(self, toy_corpus,
                                                      stage2_ckpts):
        with pytest.raises(FormatError, match="stage-1"):
            train_stage2(toy_corpus["splits"]["train"], stage2_ckpts[0],
                         tiny_stage2())

    def test_runs_without_warm_start(self, toy_corpus):
        ckpts = train_stage2(toy_corpus["splits"]["train"], None,
                             tiny_stage2(epochs=1))
        assert len(ckpts) == 1
        assert ckpts[0].frozen == ("general_encoder",)

    def test_wrong_stage_config_is_contract_error(self, toy_corpus):
        with pytest.raises(ContractError, match="stage-1"):
            train_stage2(toy_corpus["splits"]["train"], None, tiny_stage1())


class TestSelectBest:
    @staticmethod
    def fake_history(ckpt, accs):
        hist = [{"epoch": i + 1, "mean_loss": 1.0,
                 "val_balanced_accuracy": a} for i, a in enumerate(accs)]
        return dataclasses.replace(ckpt, metric_history=hist)

    def test_singleton(self, stage2_ckpts):
        assert select_best([stage2_ckpts[0]]) is stage2_ckpts[0]

    def test_highest_wins_ties_go_earliest(self, stage2_ckpts):
        base = stage2_ckpts[0]
        cands = [self.fake_history(base, [0.80]),
                 self.fake_history(base, [0.80, 0.95]),
                 self.fake_history(base, [0.80, 0.95, 0.95])]
        assert select_best(cands) is cands[1]

    def test_ties_go_to_the_lower_epoch_in_any_order(self, stage2_ckpts):
        late, early = (dataclasses.replace(stage2_ckpts[-1], epoch=e)
                       for e in (1000, 999))
        assert select_best([late, early]) is early
        assert select_best([early, late]) is early

    @pytest.mark.parametrize("val", [False, True])
    def test_select_best_cli_keeps_epoch_999_over_1000(
            self, val, tmp_path, toy_corpus, stage2_ckpts):
        # the directory lists epoch_1000.dsva before epoch_999.dsva
        for epoch in (999, 1000):
            save_checkpoint(dataclasses.replace(stage2_ckpts[-1], epoch=epoch),
                            tmp_path / f"epoch_{epoch:03d}.dsva")
        argv = ["select-best", "--checkpoint", str(tmp_path)]
        if val:
            argv += ["--val-manifest", toy_corpus["manifest"]]
        code, out, err = run_cli(argv)
        assert (code, out) == (0, f"{tmp_path / 'epoch_999.dsva'}\n"), err

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="at least one"):
            select_best([])

    def test_recorded_accuracy_reader(self, stage1_ckpt, stage2_ckpts):
        assert recorded_val_accuracy(stage2_ckpts[-1]) == \
            stage2_ckpts[-1].metric_history[-1]["val_balanced_accuracy"]
        with pytest.raises(InputError, match="val_balanced_accuracy"):
            recorded_val_accuracy(stage1_ckpt)
        bare = dataclasses.replace(stage2_ckpts[0], metric_history=[])
        with pytest.raises(InputError, match="history"):
            recorded_val_accuracy(bare)

    def test_recompute_matches_recorded(self, stage2_ckpts, toy_corpus):
        dev = toy_corpus["splits"]["dev"]
        assert select_best(stage2_ckpts, val_records=dev) is \
            select_best(stage2_ckpts)

    def test_recompute_needs_both_labels(self, stage2_ckpts, toy_corpus):
        bona = [r for r in toy_corpus["splits"]["dev"]
                if r.label == "bonafide"]
        with pytest.raises(InputError, match="both labels"):
            select_best(stage2_ckpts, val_records=bona)


# ---- validation accuracy from arrays --------------------------------------------

def test_validation_accuracy_equals_record_path(stage2_ckpts, toy_corpus):
    bundle, _ = restore_bundle(stage2_ckpts[-1])
    feats, labels = load_features(toy_corpus["splits"]["dev"], TINY_FRONTEND)
    scores = score_features(bundle, feats)
    ids = [str(i) for i in range(len(labels))]
    scored = ScoredClips(scores, labels, ids,
                         ["bonafide" if l == 0 else "G01" for l in labels])
    got = _val_balanced_accuracy(bundle, feats, labels, epoch=3)
    assert got == balanced_accuracy(scored)
    assert got == stage2_ckpts[-1].metric_history[-1]["val_balanced_accuracy"]


def test_non_finite_validation_scores_exit_two_naming_the_epoch(
        monkeypatch, tmp_path, toy_corpus, stage1_ckpt):
    # training stops at a non-finite loss or gradient first (see
    # test_non_finite.py), so the scores are made non-finite here
    monkeypatch.setattr(train, "score_features",
                        lambda bundle, feats: np.full(len(feats), np.nan))
    save_checkpoint(stage1_ckpt, tmp_path / "s1.dsva")
    cfg = tmp_path / "s2.json"
    cfg.write_text(json.dumps(tiny_stage2(epochs=1).to_dict()))
    code, err = run(["train-stage2", "--config", str(cfg),
                     "--manifest", toy_corpus["manifest"],
                     "--stage1-checkpoint", str(tmp_path / "s1.dsva"),
                     "--out", str(tmp_path / "out")])
    assert code == 2, err
    assert "epoch 1" in err and "validation scores are not finite" in err
    assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")
