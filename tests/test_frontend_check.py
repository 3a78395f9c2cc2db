"""A frontend that cannot featurize any clip fails once, before any clip.

The settings come from a training config or from a checkpoint's header.
Either way the run stops with one error naming the problem (and the
checkpoint, when the frontend is the file's) instead of one failure per
clip.
"""

import dataclasses
import re

import pytest

from spoofvae import dsp, evaluate, model
from spoofvae.checkpoint import Checkpoint, save_checkpoint
from spoofvae.dsp import Waveform, mel_features
from spoofvae.errors import InputError
from spoofvae.evaluate import featurize

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
# input extent is the frontend's
TOO_BIG = {
    "window_ms": ({"window_ms": 9e99}, {},
                  "frontend: window_ms of 9e+99; need at most 65536 samples"),
    "hop_ms": ({"hop_ms": 9e99}, {},
               "frontend: hop_ms of 9e+99; need at most 65536 samples"),
    "fft_size": ({"fft_size": 1 << 40}, {},
                 "frontend: fft_size 1099511627776 over 65536 samples"),
    "n_mels": ({"n_mels": 1 << 40}, {},
               "frontend: n_mels 1099511627776 over 1024"),
    "sample_rate": ({"sample_rate": 10 ** 400}, {},
                    "frontend: sample_rate of 100000000000000000...0000000000"
                    "000000000 Hz; need 1 to 1048576"),
    "target_frames": ({"target_frames": 1 << 40}, {},
                      "frontend: 32x1099511627776 feature cells; need 1 to "
                      "262144"),
    "no_frames": ({"target_frames": 0}, {},
                  "frontend: 32x0 feature cells; need 1 to 262144"),
    "channels": ({}, {"channels": (4, 8, 8, 1 << 40)},
                 "model: channels width 1099511627776 over 512"),
    "latent_dim": ({}, {"latent_dim": 1 << 40},
                   "model: latent_dim 1099511627776 over 512"),
    "classifier_layers": ({}, {"classifier_channels": (4,) * 10},
                          "model: 10 classifier_channels layers over 9"),
}


def _too_big(name, ckpt_or_cfg, monkeypatch):
    """ckpt_or_cfg with TOO_BIG[name]'s frontend and model."""
    def never(*args):
        raise AssertionError("a filterbank or model past its bounds was built")

    front_edits, model_edits, _ = TOO_BIG[name]
    if front_edits:
        monkeypatch.setattr(dsp, "_filterbank_cached", never)
    monkeypatch.setattr(model, "_kaiming_uniform", never)
    frontend = dataclasses.replace(TINY_FRONTEND, **front_edits)
    config = dataclasses.replace(TINY_MODEL, n_mels=frontend.n_mels,
                                 target_frames=frontend.target_frames,
                                 **model_edits)
    if isinstance(ckpt_or_cfg, Checkpoint):
        return dataclasses.replace(ckpt_or_cfg, frontend=frontend,
                                   model_config=config)
    return dataclasses.replace(ckpt_or_cfg, frontend=frontend, model=config)


@pytest.mark.parametrize("name", TOO_BIG)
@pytest.mark.parametrize("command", ["select-best", "eval"])
def test_a_header_frontend_past_a_bound_exits_one(command, name, monkeypatch,
                                                  tmp_path, toy_corpus,
                                                  stage2_ckpts):
    path = str(tmp_path / "epoch_001.dsva")
    save_checkpoint(_too_big(name, stage2_ckpts[-1], monkeypatch), path)
    argv = [command, "--checkpoint", path]
    if command == "eval":
        argv += ["--manifest", toy_corpus["manifest"]]
    code, out, err = run(argv)
    _one_error_line(code, err, f"error: checkpoint {path}: {TOO_BIG[name][2]}")
    assert out == ""


@pytest.mark.parametrize("name", TOO_BIG)
def test_a_config_frontend_past_a_bound_exits_one(name, monkeypatch, tmp_path,
                                                  toy_corpus):
    cfg = _too_big(name, tiny_stage1(), monkeypatch)
    code, out, err = run(["train-stage1", "--config",
                          write_config(tmp_path / "cfg.json", cfg),
                          "--manifest", toy_corpus["manifest"],
                          "--out", str(tmp_path / "out")])
    _one_error_line(code, err, f"error: {TOO_BIG[name][2]}")
    assert out == "" and not (tmp_path / "out").exists()


def test_a_dense_layer_past_its_bound_is_named_before_any_weight():
    # every width and the extent are in bounds, but the bottleneck's dense
    # layer would hold 2^28 weights: checked arithmetically, never built
    config = dataclasses.replace(TINY_MODEL, n_mels=512, target_frames=512,
                                 channels=(4, 8, 8, 512), latent_dim=512)
    with pytest.raises(InputError, match=re.escape(
            "model: bottleneck (512, 32, 32) times latent_dim 512 is "
            "268435456 weights, over 16777216")):
        config.check_size()
