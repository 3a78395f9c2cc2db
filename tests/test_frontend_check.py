"""A frontend that cannot featurize any clip fails once, before any clip.

The settings come from a training config or from a checkpoint's header.
Either way the run stops with one error naming the problem (and the
checkpoint, when the frontend is the file's) instead of one failure per
clip.
"""

import dataclasses
import json
import re
import struct

import pytest

from spoofvae import dsp, evaluate, model
from spoofvae.checkpoint import save_checkpoint
from spoofvae.dsp import Waveform, mel_features
from spoofvae.errors import InputError
from spoofvae.evaluate import featurize
from spoofvae.model import ModelConfig

from conftest import TINY_FRONTEND, TINY_MODEL, tiny_stage1, tiny_stage2
from test_cli import run, write_config

# name -> (frontend overrides, the problem the one error names)
BAD = {
    "f_min": ({"f_min": -10.0}, "frontend: invalid mel range [-10.0, 8000.0]"),
    "fft_size": ({"fft_size": 256},
                 "frontend: fft_size 256 smaller than window (400 samples)"),
    "hop": ({"hop_ms": 0.01}, "frontend: window of 400 and hop of 0 samples"),
}


def _frontend(name):
    return dataclasses.replace(TINY_FRONTEND, **BAD[name][0])


@pytest.mark.parametrize("name", BAD)
def test_featurize_raises_before_reading_a_clip(name, toy_corpus, monkeypatch):
    reads = []
    monkeypatch.setattr(evaluate, "load_wav", reads.append)
    with pytest.raises(InputError, match="^" + re.escape(BAD[name][1])):
        featurize(toy_corpus["splits"]["eval"], _frontend(name))
    assert reads == []


@pytest.mark.parametrize("name", BAD)
def test_mel_features_names_the_problem(name):
    with pytest.raises(InputError, match="^" + re.escape(BAD[name][1])):
        mel_features(Waveform([0.0] * 16000), _frontend(name))


@pytest.fixture(scope="module")
def bad_checkpoints(tmp_path_factory, stage2_ckpts):
    root = tmp_path_factory.mktemp("badfront")
    paths = {}
    for name in BAD:
        ckpt = dataclasses.replace(stage2_ckpts[-1], frontend=_frontend(name))
        paths[name] = str(root / f"{name}.dsva")
        save_checkpoint(ckpt, paths[name])
    return paths


def _one_error_line(code, err, want):
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(want), err
    assert "failed:" not in err


@pytest.mark.parametrize("name", BAD)
@pytest.mark.parametrize("command", ["eval", "export-embeddings"])
def test_scoring_commands_exit_once_naming_the_checkpoint(
        command, name, tmp_path, toy_corpus, bad_checkpoints):
    path = bad_checkpoints[name]
    code, out, err = run([command, "--checkpoint", path, "--manifest",
                          toy_corpus["manifest"], "--out", str(tmp_path / "out")])
    _one_error_line(code, err, f"error: checkpoint {path}: {BAD[name][1]}")
    assert out == "" and not (tmp_path / "out").exists()


def test_infer_exits_once_naming_the_checkpoint(toy_corpus, bad_checkpoints):
    path = bad_checkpoints["f_min"]
    code, out, err = run(["infer", "--checkpoint", path, "--wav",
                          toy_corpus["splits"]["eval"][0].path])
    _one_error_line(code, err, f"error: checkpoint {path}: {BAD['f_min'][1]}")


@pytest.mark.parametrize("name", BAD)
@pytest.mark.parametrize("command, make", [("train-stage1", tiny_stage1),
                                           ("train-stage2", tiny_stage2)])
def test_training_exits_once_with_the_same_message(
        command, make, name, tmp_path, toy_corpus):
    cfg = make(frontend=_frontend(name))
    code, out, err = run([command, "--config",
                          write_config(tmp_path / "cfg.json", cfg),
                          "--manifest", toy_corpus["manifest"],
                          "--out", str(tmp_path / "out")])
    lines = [ln for ln in err.splitlines() if not ln.startswith("note:")]
    assert code == 1 and lines[0].startswith(f"error: {BAD[name][1]}"), err
    assert len(lines) == 1 and "failed" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", BAD)
def test_stage1_checkpoint_frontend_is_checked(name, tmp_path, toy_corpus,
                                               stage1_ckpt):
    # stage 2 featurizes with its own config, but the file is still unusable
    path = str(tmp_path / "stage1.dsva")
    save_checkpoint(dataclasses.replace(stage1_ckpt, frontend=_frontend(name)),
                    path)
    code, out, err = run(["train-stage2", "--config",
                          write_config(tmp_path / "cfg.json", tiny_stage2()),
                          "--manifest", toy_corpus["manifest"],
                          "--stage1-checkpoint", path,
                          "--out", str(tmp_path / "out")])
    _one_error_line(code, err, f"error: checkpoint {path}: {BAD[name][1]}")
    assert out == "" and not (tmp_path / "out").exists()


# well-typed values past a bound: each would ask for an array beyond any
# machine's memory (or of no extent), so building one must never start.
# name -> (frontend overrides, model overrides, the error); the model's
# input extent is the frontend's, and the error names the model when the
# case has model overrides and the frontend otherwise
TOO_BIG = {
    "window_ms": ({"window_ms": 9e99}, {},
                  "window_ms must give at most 65536 samples, got 9e+99 ms "
                  "at 16000 Hz"),
    "hop_ms": ({"hop_ms": 9e99}, {},
               "hop_ms must give at most 65536 samples, got 9e+99 ms at "
               "16000 Hz"),
    "fft_size": ({"fft_size": 1 << 40}, {},
                 "fft_size must be in [1, 65536], got 1099511627776"),
    "n_mels": ({"n_mels": 1 << 40}, {},
               "n_mels must be in [1, 1024], got 1099511627776"),
    "sample_rate": ({"sample_rate": 10 ** 400}, {},
                    "sample_rate must be in [1, 1048576], got "
                    "100000000000000000...0000000000000000000"),
    "target_frames": ({"target_frames": 1 << 40}, {},
                      "target_frames must be in [1, 262144], got "
                      "1099511627776"),
    "no_frames": ({"target_frames": 0}, {},
                  "target_frames must be in [1, 262144], got 0"),
    "cells": ({"n_mels": 1024, "target_frames": 1024}, {},
              "n_mels times target_frames must be at most 262144 feature "
              "cells, got 1024x1024"),
    "channels": ({}, {"channels": [4, 8, 8, 1 << 40]},
                 "channels must be in [1, 512], got 1099511627776"),
    "latent_dim": ({}, {"latent_dim": 1 << 40},
                   "latent_dim must be in [1, 512], got 1099511627776"),
    "classifier_layers": ({}, {"classifier_channels": [4] * 10},
                          "classifier_channels must hold 1 to 9 layers, "
                          "got 10"),
    # every width and the extent are in bounds, but the bottleneck's dense
    # layer would hold 2^28 weights
    "dense": ({"n_mels": 512, "target_frames": 512},
              {"channels": [4, 8, 8, 512], "latent_dim": 512},
              "bottleneck (512, 32, 32) times latent_dim 512 must be at "
              "most 16777216 weights, got 268435456"),
}


def _too_big(name, monkeypatch):
    """TOO_BIG[name]'s frontend and model, as JSON objects.

    FrontendConfig and ModelConfig reject such settings when they are
    built, so these are only documents.  Neither a clip nor a weight may
    be made.
    """
    def never(*args):
        raise AssertionError("a clip was read, or a filterbank or model "
                             "past its bounds was built")

    front_edits, model_edits, _ = TOO_BIG[name]
    if front_edits:
        monkeypatch.setattr(dsp, "mel_filterbank", never)
    monkeypatch.setattr(model, "_kaiming_uniform", never)
    monkeypatch.setattr(evaluate, "load_clip_features", never)
    frontend = dict(TINY_FRONTEND.to_dict(), **front_edits)
    return frontend, dict(TINY_MODEL.to_dict(), n_mels=frontend["n_mels"],
                          target_frames=frontend["target_frames"],
                          **model_edits)


def _error(name, model_key):
    """The error TOO_BIG[name] makes in a document whose model is at key
    model_key."""
    _, model_edits, message = TOO_BIG[name]
    return f"{model_key if model_edits else 'frontend'}: {message}"


def _rewrite_header(src, dst, **sections):
    """dst: src with whole header sections replaced (the blobs unchanged)."""
    buf = src.read_bytes()
    (length,) = struct.unpack("<I", buf[8:12])
    header = dict(json.loads(buf[12:12 + length]), **sections)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(buf[:8] + struct.pack("<I", len(text)) + text +
                    buf[12 + length:])


@pytest.mark.parametrize("name", TOO_BIG)
@pytest.mark.parametrize("command", ["select-best", "eval"])
def test_a_header_frontend_past_a_bound_exits_one(command, name, monkeypatch,
                                                  tmp_path, toy_corpus,
                                                  stage2_ckpts):
    good = tmp_path / "good.dsva"
    save_checkpoint(stage2_ckpts[-1], good)
    frontend, config = _too_big(name, monkeypatch)
    path = tmp_path / "epoch_001.dsva"
    _rewrite_header(good, path, frontend=frontend, model_config=config)
    argv = [command, "--checkpoint", str(path)]
    if command == "eval":
        argv += ["--manifest", toy_corpus["manifest"]]
    code, out, err = run(argv)
    want = f"error: checkpoint {path}: {_error(name, 'model_config')}"
    _one_error_line(code, err, want)
    assert err == want + "\n" and out == ""


def _train_past_a_bound(command, make, name, monkeypatch, tmp_path,
                        toy_corpus):
    frontend, config = _too_big(name, monkeypatch)
    doc = {k: v for k, v in make().to_dict().items()
           if k not in ("frontend", "model")}
    # the frontend's key first, as in a header's sorted keys, so that a
    # value both sections hold is named in the frontend on both paths
    doc.update(frontend=frontend, model=config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run([command, "--config", str(path),
                          "--manifest", toy_corpus["manifest"],
                          "--out", str(tmp_path / "out")])
    want = f"error: {_error(name, 'model')}"
    _one_error_line(code, err, want)
    assert err == want + "\n" and out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", TOO_BIG)
def test_a_config_frontend_past_a_bound_exits_one(name, monkeypatch, tmp_path,
                                                  toy_corpus):
    _train_past_a_bound("train-stage1", tiny_stage1, name, monkeypatch,
                        tmp_path, toy_corpus)


@pytest.mark.parametrize("name", TOO_BIG)
def test_a_stage2_config_past_a_bound_exits_one_before_any_clip(
        name, monkeypatch, tmp_path, toy_corpus):
    _train_past_a_bound("train-stage2", tiny_stage2, name, monkeypatch,
                        tmp_path, toy_corpus)


def test_a_dense_layer_past_its_bound_is_named_before_any_weight():
    # every width and the extent are in bounds, but the bottleneck's dense
    # layer would hold 2^28 weights: checked arithmetically when the config
    # is built, so no model of it can exist
    with pytest.raises(ModelConfig.error, match="^" + re.escape(
            "bottleneck (512, 32, 32) times latent_dim 512 must be at most "
            "16777216 weights, got 268435456") + "$"):
        dataclasses.replace(TINY_MODEL, n_mels=512, target_frames=512,
                            channels=(4, 8, 8, 512), latent_dim=512)
