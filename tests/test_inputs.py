"""Malformed checkpoint headers and model widths exit 1; stage configs take effect.

Each header probe edits the JSON header of a real stage-2 checkpoint and
runs `eval` on it; the CLI must report a bad file (exit 1), never an
internal error (exit 2).
"""

import json
import struct

import pytest

from spoofvae.checkpoint import save_checkpoint
from spoofvae.train import train_stage1

from conftest import tiny_stage1
from test_config import run

HEADER_KEYS = ("stage", "iteration", "epoch", "tensors", "nets", "frozen",
               "cosface", "optimizer", "metric_history", "model_config",
               "frontend")


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


PROBES = [(f"drop-{key}", _drop(key)) for key in HEADER_KEYS] + [
    ("list-header", _as_list),
    ("cosface-without-margin", _drop_margin),
    ("unknown-net", _unknown_net),
    ("negative-dim", _negative_dim),
    ("string-stage", _string_stage),
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


@pytest.mark.parametrize("channels", [[], [0, 4]], ids=["empty", "zero"])
def test_bad_model_widths_exit_one(tmp_path, toy_corpus, channels):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"stage": 1, "model": {"channels": channels}}))
    code, err = run(["train-stage1", "--config", str(path),
                     "--manifest", toy_corpus["manifest"],
                     "--out", str(tmp_path / "out")])
    assert code == 1, err
    assert "channels" in err


def test_stage1_honours_adamw(toy_corpus):
    cfg = tiny_stage1(optimizer="adamw", weight_decay=0.5, max_iterations=2)
    ckpt = train_stage1(toy_corpus["splits"]["train"], cfg)
    assert ckpt.optimizer["mode"] == "adamw"
    assert ckpt.optimizer["weight_decay"] == 0.5
