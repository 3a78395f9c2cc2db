"""CLI runtime behaviour: streamed stage-2 checkpoints, the heap setting,
and checkpoints whose weights give non-finite scores."""

import ctypes
import dataclasses
import os

import numpy as np
import pytest

from spoofvae import cli
from spoofvae.checkpoint import save_checkpoint
from spoofvae.train import stage2_epochs, train_stage2

from conftest import tiny_stage1, tiny_stage2
from test_cli import run, write_config


def file_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def stage1_file(tmp_path_factory, stage1_ckpt):
    path = tmp_path_factory.mktemp("s1") / "stage1.dsva"
    save_checkpoint(stage1_ckpt, path)
    return str(path)


def test_streamed_files_equal_the_listed_checkpoints(tmp_path, toy_corpus,
                                                     stage1_ckpt, stage1_file):
    cfg = tiny_stage2(epochs=3)
    out = tmp_path / "out"
    code, stdout, err = run([
        "train-stage2", "--config", write_config(tmp_path / "s2.json", cfg),
        "--manifest", toy_corpus["manifest"],
        "--stage1-checkpoint", stage1_file, "--out", str(out)])
    assert code == 0, err
    names = [f"epoch_{e:03d}.dsva" for e in (1, 2, 3)]
    assert stdout.splitlines() == [str(out / n) for n in names]
    assert sorted(os.listdir(out)) == names

    listed = train_stage2(toy_corpus["splits"]["train"], stage1_ckpt, cfg,
                          val_records=toy_corpus["splits"]["dev"])
    assert [c.epoch for c in listed] == [1, 2, 3]
    for name, ckpt in zip(names, listed):
        save_checkpoint(ckpt, tmp_path / name)
        assert file_bytes(out / name) == file_bytes(tmp_path / name), name


def test_generator_yields_each_epoch_before_training_the_next(toy_corpus,
                                                              stage1_ckpt):
    epochs = stage2_epochs(toy_corpus["splits"]["train"], stage1_ckpt,
                           tiny_stage2(epochs=2))
    first = next(epochs)
    assert first.epoch == 1
    last = next(epochs)
    assert last.epoch == 2
    with pytest.raises(StopIteration):
        next(epochs)


def test_on_epoch_receives_every_checkpoint_and_keeps_none(toy_corpus,
                                                           stage1_ckpt):
    seen = []
    kept = train_stage2(toy_corpus["splits"]["train"], stage1_ckpt,
                        tiny_stage2(epochs=2), on_epoch=seen.append)
    assert kept == [] and [c.epoch for c in seen] == [1, 2]


def test_main_runs_without_mallopt(monkeypatch, tmp_path, toy_corpus):
    def no_libc(*args, **kwargs):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    cli._keep_freed_heap.cache_clear()
    try:
        code, stdout, err = run([
            "train-stage1",
            "--config", write_config(tmp_path / "s1.json",
                                     tiny_stage1(max_iterations=2)),
            "--manifest", toy_corpus["manifest"],
            "--out", str(tmp_path / "s1")])
    finally:
        cli._keep_freed_heap.cache_clear()
    assert code == 0, err
    assert os.path.isfile(tmp_path / "s1" / "stage1.dsva")


def test_main_sets_the_heap_once_per_process(monkeypatch):
    calls = []

    class FakeLibc:
        def __init__(self, name):
            assert name is None
            self.mallopt = self

        def __call__(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(ctypes, "CDLL", FakeLibc)
    cli._keep_freed_heap.cache_clear()
    try:
        for _ in range(3):
            assert run(["gen-toy", "--help"])[0] == 0
    finally:
        cli._keep_freed_heap.cache_clear()
    assert calls == [(-3, 32 << 20), (-1, 1 << 30)]


@pytest.fixture
def nan_checkpoint(tmp_path, stage2_ckpts):
    ckpt = stage2_ckpts[-1]
    nan = {k: np.full_like(v, np.nan) for k, v in ckpt.params.items()}
    path = tmp_path / "nan.dsva"
    save_checkpoint(dataclasses.replace(ckpt, params=nan), path)
    return str(path)


def test_eval_on_nan_weights_exits_one_naming_the_file(tmp_path, toy_corpus,
                                                       nan_checkpoint):
    n_eval = len(toy_corpus["splits"]["eval"])
    code, stdout, err = run(["eval", "--checkpoint", nan_checkpoint,
                             "--manifest", toy_corpus["manifest"],
                             "--out", str(tmp_path / "report")])
    assert code == 1, err
    assert nan_checkpoint in err
    assert f"not finite ({n_eval} of {n_eval})" in err
    assert "internal error" not in err and stdout == ""
    assert not (tmp_path / "report").exists()


def test_infer_on_nan_weights_exits_one_naming_the_file(toy_corpus,
                                                        nan_checkpoint):
    wav = toy_corpus["splits"]["eval"][0].path
    code, stdout, err = run(["infer", "--checkpoint", nan_checkpoint,
                             "--wav", wav])
    assert code == 1, err
    assert nan_checkpoint in err and "not finite (1 of 1)" in err
    assert stdout == ""
