"""The one path from manifest rows to model outputs.

featurize, score_features, compute_embeddings, eval and export-embeddings
all run through one batched no-grad loop in shares (evaluate._pass),
select_best reads its checkpoints in one pass, and the CLI reports
non-finite output of a checkpoint file as that file's fault.
"""

import dataclasses
import os
import re
import sys
import weakref

import numpy as np
import pytest

from spoofvae.checkpoint import load_checkpoint, restore_bundle, save_checkpoint
from spoofvae.data import write_manifest
from spoofvae.errors import InputError
from spoofvae.evaluate import featurize, load_clip_features, score_features
from spoofvae.train import load_features, select_best

from conftest import TINY_FRONTEND, TINY_MODEL, tiny_stage1
from test_cli import run, write_config


def _missing(rec, tmp_path, name):
    return dataclasses.replace(rec, path=str(tmp_path / f"{name}.wav"))


def _with_accuracy(ckpt, acc):
    history = [dict(ckpt.metric_history[-1], val_balanced_accuracy=acc)]
    return dataclasses.replace(ckpt, metric_history=history)


def test_featurize_keeps_manifest_order_around_unreadable_clips(tmp_path,
                                                                 toy_corpus):
    good = toy_corpus["splits"]["eval"]
    records = ([_missing(good[0], tmp_path, "first")] + good[:3] +
               [_missing(good[0], tmp_path, "middle")] + good[3:] +
               [_missing(good[0], tmp_path, "last")])
    (clip_ids, labels, synths), feats, failures = featurize(records,
                                                            TINY_FRONTEND)
    assert clip_ids == [r.clip_id for r in good]
    assert labels.dtype == np.int8 and labels.tolist() == \
        [0 if r.label == "bonafide" else 1 for r in good]
    assert synths == [r.synthesizer_id for r in good]
    assert [f["path"] for f in failures] == [
        str(tmp_path / f"{n}.wav") for n in ("first", "middle", "last")]
    assert [f["clip_id"] for f in failures] == ["first", "middle", "last"]
    assert feats.flags.c_contiguous and feats.dtype == np.float32
    expected = np.stack([load_clip_features(r, TINY_FRONTEND) for r in good])
    assert feats.tobytes() == expected.tobytes()


def test_load_features_names_the_failure_count_and_first_path(tmp_path,
                                                              toy_corpus):
    train = toy_corpus["splits"]["train"]
    records = ([train[0], _missing(train[1], tmp_path, "gone_a")] + train[2:] +
               [_missing(train[1], tmp_path, "gone_b")])
    first = str(tmp_path / "gone_a.wav")
    message = f"2 of {len(records)} clips failed; first: {first}: "
    with pytest.raises(InputError, match=re.escape(message)):
        load_features(records, TINY_FRONTEND)

    manifest = tmp_path / "manifest.csv"
    write_manifest(records, str(manifest))
    code, _, err = run(["train-stage1", "--manifest", str(manifest),
                        "--config", write_config(tmp_path / "s1.json",
                                                 tiny_stage1()),
                        "--out", str(tmp_path / "run")])
    assert code == 1, err
    assert f"2 of {len(records)} clips failed" in err and "gone_a" in err


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="the csv module rejects NUL bytes before 3.11")
def test_a_nul_byte_in_a_clip_path_is_a_failed_clip(tmp_path, toy_corpus,
                                                    stage2_ckpts):
    wavs = os.path.join(toy_corpus["root"], "wavs")
    ckpt = tmp_path / "best.dsva"
    save_checkpoint(stage2_ckpts[-1], ckpt)
    for split in ("eval", "train"):
        good = toy_corpus["splits"][split]
        bad = dataclasses.replace(good[0], path=os.path.join(wavs, "a\x00b.wav"))
        manifest = tmp_path / f"{split}.csv"
        write_manifest(good + [bad], str(manifest))
        if split == "eval":
            code, _, err = run(["eval", "--checkpoint", str(ckpt),
                                "--manifest", str(manifest)])
            assert code == 0, err
            assert f"failed: {bad.path}: " in err
            assert "embedded null byte" in err
        else:
            code, _, err = run(["train-stage1", "--manifest", str(manifest),
                                "--config", write_config(tmp_path / "s1.json",
                                                         tiny_stage1()),
                                "--out", str(tmp_path / "run")])
            assert code == 1, err
            assert f"error: 1 of {len(good) + 1} clips failed; first: " \
                f"{bad.path}: " in err


@pytest.mark.parametrize("clip", [
    pytest.param("x" * 200_000, id="over-field-limit"),
    pytest.param("a\x00b.wav", id="nul", marks=pytest.mark.skipif(
        sys.version_info >= (3, 11),
        reason="the csv module accepts NUL bytes from 3.11"))])
@pytest.mark.parametrize("command", ["eval", "train-stage1"])
def test_a_row_the_csv_module_rejects_exits_one_naming_its_line(
        command, clip, tmp_path, toy_corpus, stage2_ckpts):
    rec = toy_corpus["splits"]["eval"][0]
    manifest = tmp_path / "manifest.csv"
    write_manifest([dataclasses.replace(rec, path=clip), rec], str(manifest))
    ckpt = tmp_path / "best.dsva"
    save_checkpoint(stage2_ckpts[-1], ckpt)
    argv = {"eval": ["eval", "--checkpoint", str(ckpt)],
            "train-stage1": ["train-stage1", "--out", str(tmp_path / "run")]}
    code, _, err = run(argv[command] + ["--manifest", str(manifest)])
    assert code == 1, err
    assert err.startswith(f"error: {manifest}: line 2: "), err


def test_select_best_keeps_only_the_best_so_far(stage2_ckpts):
    accs = [0.5, 0.9, 0.7, 0.6, 0.9, 0.8]
    refs = []
    alive = []

    def checkpoints():
        for acc in accs:
            alive.append(sum(r() is not None for r in refs))
            ckpt = _with_accuracy(stage2_ckpts[0], acc)
            refs.append(weakref.ref(ckpt))
            yield ckpt
            del ckpt

    best = select_best(checkpoints())
    # the earliest of the two 0.9s wins the tie
    assert best is refs[1]()
    # while the next file loads, select_best holds the best so far and the
    # checkpoint it judged last; every other loser is already gone
    assert alive == [0, 1, 1, 2, 2, 2]


def test_select_best_on_an_empty_iterable(toy_corpus):
    with pytest.raises(InputError, match="at least one"):
        select_best(iter(()))
    with pytest.raises(InputError, match="at least one"):
        select_best(iter(()), val_records=toy_corpus["splits"]["dev"])


def test_non_finite_embeddings_exit_one_naming_the_file(tmp_path, toy_corpus,
                                                         stage2_ckpts):
    ckpt = stage2_ckpts[0]
    nan = {k: np.full_like(v, np.nan) for k, v in ckpt.params.items()}
    path = tmp_path / "nan.dsva"
    save_checkpoint(dataclasses.replace(ckpt, params=nan), path)
    out = tmp_path / "emb"
    code, _, err = run(["export-embeddings", "--checkpoint", str(path),
                        "--manifest", toy_corpus["manifest"],
                        "--out", str(out)])
    assert code == 1, err
    n = len(toy_corpus["splits"]["eval"]) * 2 * TINY_MODEL.latent_dim
    assert str(path) in err and f"not finite ({n} of {n})" in err
    assert not (out / "embeddings.csv").exists()


def test_score_features_on_an_empty_stack(stage2_ckpts):
    bundle, _ = restore_bundle(stage2_ckpts[-1])
    empty = np.empty((0, 1, TINY_FRONTEND.n_mels, TINY_FRONTEND.target_frames),
                     dtype=np.float32)
    scores = score_features(bundle, empty)
    assert scores.shape == (0,) and scores.dtype == np.float32


def test_loaded_checkpoint_knows_its_file_and_saves_the_same_bytes(
        tmp_path, stage2_ckpts):
    path = tmp_path / "epoch.dsva"
    save_checkpoint(stage2_ckpts[-1], path)
    assert stage2_ckpts[-1].source is None
    ckpt = load_checkpoint(path)
    assert ckpt.source == str(path)
    again = tmp_path / "again.dsva"
    save_checkpoint(ckpt, again)
    assert again.read_bytes() == path.read_bytes()
