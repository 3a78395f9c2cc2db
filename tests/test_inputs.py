"""Malformed checkpoint headers and model widths exit 1; stage configs take effect.

Each header probe edits the JSON header of a real stage-2 checkpoint and
runs `eval` on it; the CLI must report a bad file (exit 1), never an
internal error (exit 2).
"""

import dataclasses
import json
import struct

import numpy as np
import pytest

from spoofvae.checkpoint import save_checkpoint
from spoofvae.train import train_stage1

from conftest import tiny_stage1
from test_config import run

HEADER_KEYS = ("stage", "iteration", "epoch", "tensors", "nets", "frozen",
               "cosface", "metric_history", "model_config", "frontend")


def _drop(key):
    def edit(header):
        del header[key]
    return edit


def _as_list(header):
    return list(header.items())


def _drop_margin(header):
    del header["cosface"]["margin"]


def _unknown_net(header):
    header["nets"].append("nonsense")


def _negative_dim(header):
    header["tensors"][0][1][0] = -1


def _string_stage(header):
    header["stage"] = "2"


def _margin_out_of_range(header):
    header["cosface"]["margin"] = 1.5


PROBES = [(f"drop-{key}", _drop(key)) for key in HEADER_KEYS] + [
    ("list-header", _as_list),
    ("cosface-without-margin", _drop_margin),
    ("unknown-net", _unknown_net),
    ("negative-dim", _negative_dim),
    ("string-stage", _string_stage),
    ("cosface-margin-out-of-range", _margin_out_of_range),
]


@pytest.fixture(scope="module")
def good_checkpoint(tmp_path_factory, stage2_ckpts):
    path = tmp_path_factory.mktemp("header") / "good.dsva"
    save_checkpoint(stage2_ckpts[-1], path)
    return path


@pytest.mark.parametrize("edit", [e for _, e in PROBES],
                         ids=[name for name, _ in PROBES])
def test_malformed_header_exits_one(tmp_path, toy_corpus, good_checkpoint,
                                    edit):
    buf = good_checkpoint.read_bytes()
    (length,) = struct.unpack("<I", buf[8:12])
    header = json.loads(buf[12:12 + length])
    header = edit(header) or header
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    bad = tmp_path / "bad.dsva"
    bad.write_bytes(buf[:8] + struct.pack("<I", len(text)) + text +
                    buf[12 + length:])
    code, err = run(["eval", "--checkpoint", str(bad),
                     "--manifest", toy_corpus["manifest"]])
    assert code == 1, err
    assert "internal error" not in err


def test_unedited_header_evaluates(toy_corpus, good_checkpoint):
    code, err = run(["eval", "--checkpoint", str(good_checkpoint),
                     "--manifest", toy_corpus["manifest"]])
    assert code == 0, err


@pytest.mark.parametrize("model", [{"channels": []}, {"channels": [0, 4]},
                                   {"classifier_channels": []}],
                         ids=["empty", "zero", "empty-classifier"])
def test_bad_model_widths_exit_one(tmp_path, toy_corpus, model):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"stage": 1, "model": model}))
    code, err = run(["train-stage1", "--config", str(path),
                     "--manifest", toy_corpus["manifest"],
                     "--out", str(tmp_path / "out")])
    assert code == 1, err
    assert "channels" in err


def test_stage1_honours_adamw(toy_corpus):
    records = toy_corpus["splits"]["train"]
    adam = train_stage1(records, tiny_stage1(max_iterations=2))
    adamw = train_stage1(records, tiny_stage1(
        optimizer="adamw", weight_decay=0.5, max_iterations=2))
    assert list(adam.params) == list(adamw.params)
    for name, arr in adam.params.items():
        assert not np.array_equal(arr, adamw.params[name]), name


# ---- the cosface head's tensor --------------------------------------------------

def _without_head_tensor(params):
    return {k: v for k, v in params.items() if k != "cosface_head.w"}


def _wrong_head_shape(params):
    return {**params, "cosface_head.w": np.zeros((3, 8), dtype=np.float32)}


@pytest.mark.parametrize("edit", [_without_head_tensor, _wrong_head_shape],
                         ids=["missing", "wrong-shape"])
def test_bad_cosface_tensor_exits_one(tmp_path, toy_corpus, stage2_ckpts,
                                      edit):
    ckpt = stage2_ckpts[0]
    assert ckpt.cosface is not None
    path = tmp_path / "cut.dsva"
    save_checkpoint(dataclasses.replace(ckpt, params=edit(ckpt.params)), path)
    code, err = run(["eval", "--checkpoint", str(path),
                     "--manifest", toy_corpus["manifest"]])
    assert code == 1, err
    assert "cosface" in err and "internal error" not in err


# ---- recorded validation accuracy -----------------------------------------------

def _select_best_with_accuracy(tmp_path, ckpt, value):
    history = [dict(ckpt.metric_history[-1], val_balanced_accuracy=value)]
    save_checkpoint(dataclasses.replace(ckpt, metric_history=history),
                    tmp_path / "edited.dsva")
    return run(["select-best", "--checkpoint", str(tmp_path)])


@pytest.mark.parametrize("value", ["0.75", "nan", True, False, float("nan"),
                                   float("inf"), 1.5, None, [0.5]],
                         ids=["string", "string-nan", "true", "false", "nan",
                              "inf", "above-one", "null", "list"])
def test_bad_recorded_accuracy_exits_one(tmp_path, stage2_ckpts, value):
    code, err = _select_best_with_accuracy(tmp_path, stage2_ckpts[0], value)
    assert code == 1, err
    assert err.startswith(f"error: checkpoint {tmp_path / 'edited.dsva'}: ")
    assert "val_balanced_accuracy" in err and "internal error" not in err


def test_recorded_accuracy_as_integer_is_read(tmp_path, stage2_ckpts):
    code, err = _select_best_with_accuracy(tmp_path, stage2_ckpts[0], 1)
    assert code == 0, err


def test_non_finite_checkpoint_weights_exit_one_in_select_best(tmp_path,
                                                               toy_corpus,
                                                               stage2_ckpts):
    # a loaded file's weights are input: exit 1, unlike a fault in training
    ckpt = stage2_ckpts[0]
    nan = {k: np.full_like(v, np.nan) for k, v in ckpt.params.items()}
    save_checkpoint(dataclasses.replace(ckpt, params=nan), tmp_path / "nan.dsva")
    code, err = run(["select-best", "--checkpoint", str(tmp_path),
                     "--val-manifest", toy_corpus["manifest"]])
    assert code == 1, err
    assert f"epoch {ckpt.epoch}" in err and "not finite" in err
