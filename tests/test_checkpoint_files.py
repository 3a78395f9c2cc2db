"""Checkpoint files the CLI cannot use exit 1 and name the file.

A file's header frontend is checked the same way by every command that
scores with it, select-best included, and a header whose frontend extent
is not the model's input extent is a format error.  A file without a
network the command runs is refused before any clip is read.  select-best
scores each checkpoint on features of that checkpoint's own frontend.
"""

import dataclasses
import weakref

import numpy as np
import pytest

from spoofvae import cli, evaluate, train
from spoofvae.checkpoint import (checkpoint_from_bundle, load_checkpoint,
                                 restore_bundle, save_checkpoint)
from spoofvae.errors import FormatError
from spoofvae.model import STAGE2_NETS, build_model
from spoofvae.train import _val_balanced_accuracy, load_features, select_best

from conftest import TINY_FRONTEND, TINY_MODEL
from test_cli import run

NARROW_MODEL = dataclasses.replace(TINY_MODEL, n_mels=16)
NARROW_FRONTEND = dataclasses.replace(TINY_FRONTEND, n_mels=16)
BAD_RANGE = "frontend: invalid mel range [-10.0, 8000.0]"
EXTENT = "model input extent 32x32 does not match frontend 16x32"


def _narrow_checkpoint(epoch):
    """An untrained 16x32 stage-2 checkpoint with a recorded accuracy."""
    bundle = build_model(NARROW_MODEL, seed=epoch)
    bundle.freeze("general_encoder")
    return checkpoint_from_bundle(
        bundle, NARROW_FRONTEND, stage=2,
        nets=("general_encoder",) + STAGE2_NETS, epoch=epoch,
        metric_history=[{"epoch": epoch, "mean_loss": 1.0,
                         "val_balanced_accuracy": 0.5}])


@pytest.fixture(scope="module")
def files(tmp_path_factory, stage2_ckpts):
    root = tmp_path_factory.mktemp("ckptfiles")
    good = stage2_ckpts[-1]
    paths = {}

    def save(name, ckpt):
        paths[name] = str(root / f"{name}.dsva")
        save_checkpoint(ckpt, paths[name])

    save("bad_range", dataclasses.replace(
        good, frontend=dataclasses.replace(TINY_FRONTEND, f_min=-10.0)))
    save("extent", dataclasses.replace(good, frontend=NARROW_FRONTEND))
    save("good", good)
    # a directory of two frontends, each of a model that fits it
    mixed = root / "mixed"
    mixed.mkdir()
    for i, ckpt in enumerate([stage2_ckpts[0], _narrow_checkpoint(2),
                              stage2_ckpts[2]], start=1):
        save_checkpoint(ckpt, mixed / f"epoch_{i:03d}.dsva")
    paths["mixed"] = str(mixed)
    return paths


# ---- load_checkpoint ----------------------------------------------------------

def test_load_checkpoint_errors_name_the_file_once(tmp_path, files):
    with open(files["good"], "rb") as fh:
        buf = fh.read()
    path = tmp_path / "cut.dsva"
    path.write_bytes(buf[:3000])
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"checkpoint {path}: truncated checkpoint")
    assert str(err.value).count(str(path)) == 1


def test_header_extent_must_match_the_model(files):
    with pytest.raises(FormatError, match=EXTENT):
        load_checkpoint(files["extent"])


# ---- every command that scores with a file ------------------------------------

def _commands(path, toy_corpus, out):
    manifest = toy_corpus["manifest"]
    wav = toy_corpus["splits"]["eval"][0].path
    return {
        "eval": ["eval", "--checkpoint", path, "--manifest", manifest,
                 "--out", str(out)],
        "export-embeddings": ["export-embeddings", "--checkpoint", path,
                              "--manifest", manifest, "--out", str(out)],
        "infer": ["infer", "--checkpoint", path, "--wav", wav],
        "select-best": ["select-best", "--checkpoint", path,
                        "--val-manifest", manifest, "--out", str(out)],
    }


@pytest.mark.parametrize("command", ["eval", "export-embeddings", "infer",
                                     "select-best"])
@pytest.mark.parametrize("name, problem", [("extent", EXTENT),
                                           ("bad_range", BAD_RANGE)])
def test_unusable_file_exits_one_naming_it(command, name, problem, tmp_path,
                                           toy_corpus, files):
    path = files[name]
    out = tmp_path / "out"
    code, stdout, err = run(_commands(path, toy_corpus, out)[command])
    lines = [ln for ln in err.splitlines() if not ln.startswith("note:")]
    assert code == 1, err
    assert lines == [lines[0]] and lines[0].startswith(
        f"error: checkpoint {path}: {problem}"), err
    assert stdout == "" and not out.exists()


@pytest.fixture(scope="module")
def partial(tmp_path_factory, stage1_ckpt, stage2_ckpts):
    """A stage-1 file, and a stage-2 file without the general encoder."""
    root = tmp_path_factory.mktemp("partial")
    paths = {"stage1": str(root / "stage1.dsva"),
             "no_general": str(root / "no_general.dsva")}
    save_checkpoint(stage1_ckpt, paths["stage1"])
    bundle = restore_bundle(stage2_ckpts[-1])[0]
    save_checkpoint(checkpoint_from_bundle(bundle, TINY_FRONTEND, stage=2,
                                           nets=STAGE2_NETS),
                    paths["no_general"])
    return paths


SCORING = "disentangled_encoder, map_decoder, classifier"


@pytest.mark.parametrize("command, name, missing", [
    ("eval", "stage1", SCORING),
    ("infer", "stage1", SCORING),
    ("infer --maps", "no_general", "general_encoder"),
    ("export-embeddings", "stage1", "disentangled_encoder"),
    ("select-best", "stage1", SCORING),
], ids=["eval", "infer", "infer-maps", "export-embeddings", "select-best"])
def test_a_file_without_a_network_the_command_runs_exits_one(
        command, name, missing, monkeypatch, tmp_path, toy_corpus, partial):
    def never(*args):
        raise AssertionError("a clip was read")

    monkeypatch.setattr(evaluate, "load_clip_features", never)
    monkeypatch.setattr(cli, "load_wav", never)
    path = partial[name]
    out = tmp_path / "out"
    argv = _commands(path, toy_corpus, out)[command.split()[0]]
    if command.endswith("--maps"):
        argv += ["--maps", str(out)]
    code, stdout, err = run(argv)
    assert code == 1, err
    assert err.startswith(f"error: checkpoint {path}: lacks {missing} "
                          f"(holds ") and err.count("\n") == 1, err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["infer", "export-embeddings"])
def test_a_file_with_the_networks_the_command_runs_is_used(command, tmp_path,
                                                           toy_corpus, partial):
    # infer without images runs no general encoder, nor does --which fd
    argv = _commands(partial["no_general"], toy_corpus, tmp_path / "out")[command]
    if command == "export-embeddings":
        argv += ["--which", "fd"]
    code, _, err = run(argv)
    assert code == 0, err


def test_select_best_names_the_file_whose_recorded_accuracy_is_missing(
        tmp_path, stage2_ckpts):
    save_checkpoint(stage2_ckpts[0], tmp_path / "epoch_001.dsva")
    bad = tmp_path / "epoch_002.dsva"
    save_checkpoint(dataclasses.replace(stage2_ckpts[1], metric_history=()),
                    bad)
    code, out, err = run(["select-best", "--checkpoint", str(tmp_path)])
    assert code == 1 and out == ""
    assert err == f"error: checkpoint {bad}: no recorded metric history\n"


def test_select_best_without_val_manifest_checks_the_frontend(files):
    code, _, err = run(["select-best", "--checkpoint", files["bad_range"]])
    assert code == 1
    assert err.startswith(f"error: checkpoint {files['bad_range']}: {BAD_RANGE}")


def test_select_best_names_a_truncated_file_in_a_directory(tmp_path, files):
    with open(files["good"], "rb") as fh:
        buf = fh.read()
    (tmp_path / "epoch_001.dsva").write_bytes(buf)
    cut = tmp_path / "epoch_002.dsva"
    cut.write_bytes(buf[:3000])
    code, _, err = run(["select-best", "--checkpoint", str(tmp_path)])
    assert code == 1
    assert err.startswith(f"error: checkpoint {cut}: truncated checkpoint: ")


# ---- select-best over checkpoints of different frontends -----------------------

def test_mixed_frontends_score_each_file_on_its_own_features(files,
                                                             toy_corpus):
    dev = toy_corpus["splits"]["dev"]
    code, stdout, err = run(["select-best", "--checkpoint", files["mixed"],
                             "--val-manifest", toy_corpus["manifest"]])
    assert code == 0, err
    ckpts = [load_checkpoint(f"{files['mixed']}/epoch_{i:03d}.dsva")
             for i in (1, 2, 3)]
    accs = [_val_balanced_accuracy(restore_bundle(c)[0],
                                   *load_features(dev, c.frontend), c.epoch)
            for c in ckpts]
    assert stdout.strip() == ckpts[accs.index(max(accs))].source


@pytest.mark.parametrize("order, loads", [((0, 1, 2), 3), ((0, 2, 1), 2),
                                          ((1, 0, 2), 2), ((2, 0), 1)])
def test_features_rebuilt_only_when_the_frontend_changes(
        order, loads, monkeypatch, stage2_ckpts, toy_corpus):
    pool = [stage2_ckpts[0], _narrow_checkpoint(2), stage2_ckpts[2]]
    held = []
    original = train.load_features

    def counting(records, frontend):
        # the previous set is released before the next one is built
        assert all(ref() is None for ref in held)
        feats, labels = original(records, frontend)
        held.append(weakref.ref(feats))
        return feats, labels

    monkeypatch.setattr(train, "load_features", counting)
    best = select_best((pool[i] for i in order),
                       val_records=toy_corpus["splits"]["dev"])
    assert len(held) == loads
    assert best in [pool[i] for i in order]


def test_best_of_two_frontends_in_either_order(stage2_ckpts, toy_corpus):
    dev = toy_corpus["splits"]["dev"]
    pool = [stage2_ckpts[0], _narrow_checkpoint(2)]
    accs = [_val_balanced_accuracy(restore_bundle(c)[0],
                                   *load_features(dev, c.frontend), c.epoch)
            for c in pool]
    assert all(np.isfinite(accs))
    # the highest accuracy; a tie goes to the lower epoch in either order
    want = pool[max(range(2), key=lambda i: (accs[i], -pool[i].epoch))]
    for ordered in (pool, pool[::-1]):
        assert select_best(ordered, val_records=dev) is want


def test_select_best_names_the_file_whose_scores_are_not_finite(
        tmp_path, toy_corpus, stage2_ckpts):
    d = tmp_path / "d"
    d.mkdir()
    save_checkpoint(stage2_ckpts[0], d / "epoch_001.dsva")
    bad = stage2_ckpts[1]
    nan = {k: np.full_like(v, np.nan) for k, v in bad.params.items()}
    save_checkpoint(dataclasses.replace(bad, params=nan), d / "epoch_002.dsva")
    save_checkpoint(stage2_ckpts[2], d / "epoch_003.dsva")
    code, out, err = run(["select-best", "--checkpoint", str(d),
                          "--val-manifest", toy_corpus["manifest"]])
    assert code == 1 and out == ""
    n = len(toy_corpus["splits"]["dev"])
    assert err == (f"error: checkpoint {d / 'epoch_002.dsva'}: epoch 2: "
                   f"validation scores are not finite ({n} of {n})\n")
