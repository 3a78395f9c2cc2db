"""A frontend that cannot featurize any clip fails once, before any clip.

The settings come from a training config or from a checkpoint's header.
Either way the run stops with one error naming the problem (and the
checkpoint, when the frontend is the file's) instead of one failure per
clip.
"""

import dataclasses
import re

import pytest

from spoofvae import evaluate
from spoofvae.checkpoint import save_checkpoint
from spoofvae.dsp import Waveform, mel_features
from spoofvae.errors import InputError
from spoofvae.evaluate import featurize

from conftest import TINY_FRONTEND, tiny_stage1, tiny_stage2
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
