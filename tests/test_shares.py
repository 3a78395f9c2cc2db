"""Per-clip work in forked shares gives the bytes of one process.

The share count is forced through the module-level seams shares.py reads
(os.sched_getaffinity and shares.MIN_SHARE), so several shares run on
small inputs whatever the machine's CPU count.
"""

import dataclasses
import hashlib
import mmap
import os
import signal

import numpy as np
import pytest

from spoofvae import evaluate, shares
from spoofvae.checkpoint import save_checkpoint
from spoofvae.data import ToyConfig, _roster
from spoofvae.evaluate import featurize

from conftest import TINY_FRONTEND
from test_cli import run, write_config

SMALL_TOY = ToyConfig(clips_train=3, clips_dev=1, clips_eval=2, seed=31)


def _force_shares(monkeypatch, cpus):
    monkeypatch.setattr(shares, "MIN_SHARE", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def _tree_digest(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return out


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch):
    """The pids of the children this process forks from now on."""
    pids = []
    real = os.fork

    def counted():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _unreadable(rec, name):
    return dataclasses.replace(
        rec, path=os.path.join(os.path.dirname(rec.path), name))


def test_bounds_are_contiguous_and_capped_by_cpus(monkeypatch):
    _force_shares(monkeypatch, 3)
    assert shares.bounds(10) == [(0, 3), (3, 6), (6, 10)]
    assert shares.bounds(2) == [(0, 1), (1, 2)]
    assert shares.bounds(0) == [(0, 0)]
    monkeypatch.setattr(shares, "MIN_SHARE", 4)
    assert shares.bounds(11) == [(0, 5), (5, 11)]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert shares.bounds(100) == [(0, 100)]


def test_a_share_holds_at_least_min_share_units_of_step(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    # gen-toy's unit is one clip: two stay in one share, four split 2/2
    assert shares.bounds(2) == [(0, 2)]
    assert shares.bounds(3) == [(0, 3)]
    assert shares.bounds(4) == [(0, 2), (2, 4)]
    # a pass's unit is a 32-clip batch, so a share holds at least 64 clips
    assert shares.bounds(64, 32) == [(0, 64)]
    assert shares.bounds(127, 32) == [(0, 127)]
    assert shares.bounds(128, 32) == [(0, 64), (64, 128)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    assert shares.bounds(191, 32) == [(0, 96), (96, 191)]
    assert shares.bounds(200, 32) == [(0, 64), (64, 128), (128, 200)]


@pytest.mark.parametrize("mapped", [True, False])
@pytest.mark.parametrize("shapes", [[], [(0,)], [(0, 3), (2,)], [(3,), (2, 5)]])
def test_shared_arrays_are_zeroed_float32_of_every_shape(monkeypatch, shapes,
                                                         mapped):
    if not mapped:  # as where os.fork is missing too
        monkeypatch.delattr(mmap, "MAP_SHARED")
    arrays = shares.shared_arrays(shapes)
    assert [a.shape for a in arrays] == shapes
    for i, a in enumerate(arrays):
        assert a.dtype == np.float32 and a.flags.c_contiguous
        assert not a.any()
        a[...] = i + 1
    # writable, and no two overlap
    assert all((a == i + 1).all() for i, a in enumerate(arrays))


@pytest.mark.parametrize("cpus", [3, 4])
def test_featurize_is_byte_identical_in_shares(monkeypatch, toy_corpus, cpus):
    good = toy_corpus["records"]
    records = list(good)
    _force_shares(monkeypatch, cpus)
    # featurize's shares hold whole batches; at one clip a batch the
    # corpus splits into cpus shares
    monkeypatch.setattr(evaluate, "SCORE_BATCH", 1)
    edge = shares.bounds(len(records))[1][0]
    # share 0, the first clip of share 1 and the last of share 0 (both
    # edges), and inside the last share; one path holds a NUL byte
    for index, name in ((0, "gone_first.wav"), (edge, "gone_edge.wav"),
                        (edge - 1, "gone\x00nul.wav"),
                        (len(records) - 3, "gone_late.wav")):
        records[index] = _unreadable(records[index], name)
    spans = shares.bounds(len(records))
    assert len(spans) == cpus

    calls = []
    real = evaluate.load_clip_features
    parent = os.getpid()

    def counted(rec, frontend):
        if os.getpid() == parent:
            calls.append(rec)
        return real(rec, frontend)

    monkeypatch.setattr(evaluate, "load_clip_features", counted)
    (ids, labels, synths), feats, failures = featurize(records, TINY_FRONTEND)
    _assert_no_children()
    # the calling process reads share 0 itself, so wrappers there see it
    assert calls == records[:spans[0][1]]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    (ids1, labels1, synths1), feats1, failures1 = featurize(records,
                                                            TINY_FRONTEND)
    assert len(calls) == len(records) + spans[0][1]
    assert (ids, synths, failures) == (ids1, synths1, failures1)
    assert labels.tobytes() == labels1.tobytes()
    assert feats.shape == feats1.shape == (len(good) - 4, 1, 32, 32)
    assert feats.tobytes() == feats1.tobytes()
    assert [f["clip_id"] for f in failures] == [
        "gone_first", "gone\x00nul", "gone_edge", "gone_late"]


def test_gen_toy_is_byte_identical_in_shares(monkeypatch, tmp_path):
    cfg = write_config(tmp_path / "toy.json", SMALL_TOY)
    digests = []
    for cpus in (1, 3, 5):
        _force_shares(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        code, stdout, err = run(["gen-toy", "--config", cfg, "--out", str(out)])
        assert code == 0, err
        assert stdout == f"{out / 'manifest.csv'}\n"
        digests.append(_tree_digest(out))
    _assert_no_children()
    assert len(digests[0]) == len(_roster(SMALL_TOY)) + 1
    assert digests[0] == digests[1] == digests[2]


def test_gen_toy_of_four_clips_forks_on_two_cpus(monkeypatch, tmp_path):
    # a clip takes longer to synthesize than a fork, so at the shipped
    # share floor four clips split into two shares of two
    cfg = write_config(tmp_path / "toy.json", ToyConfig(
        clips_train=1, clips_dev=0, clips_eval=1, seed=31))
    digests = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)),
                            raising=False)
        forks = _count_forks(monkeypatch)
        out = tmp_path / f"cpus{cpus}"
        code, _, err = run(["gen-toy", "--config", cfg, "--out", str(out)])
        assert code == 0, err
        assert len(forks) == cpus - 1
        digests.append(_tree_digest(out))
    _assert_no_children()
    assert len(digests[0]) == 4 + 1
    assert digests[0] == digests[1]


def test_one_cpu_never_forks(monkeypatch, tmp_path, toy_corpus):
    _force_shares(monkeypatch, 1)

    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    ids, feats, failures = featurize(toy_corpus["records"], TINY_FRONTEND)
    assert len(ids[0]) == len(toy_corpus["records"]) and not failures
    code, _, err = run(["gen-toy", "--config",
                        write_config(tmp_path / "toy.json", SMALL_TOY),
                        "--out", str(tmp_path / "corpus")])
    assert code == 0, err


@pytest.mark.parametrize("how", ["killed", "raises"])
def test_a_failed_child_exits_two_naming_its_clips(monkeypatch, tmp_path,
                                                   toy_corpus, stage2_ckpts,
                                                   how):
    path = tmp_path / "best.dsva"
    save_checkpoint(stage2_ckpts[-1], path)
    _force_shares(monkeypatch, 3)
    # eval's shares hold whole batches; the split is smaller than one
    monkeypatch.setattr(evaluate, "SCORE_BATCH", 1)
    n = len(toy_corpus["splits"]["eval"])
    start, stop = shares.bounds(n, evaluate.SCORE_BATCH)[1]
    real = evaluate.load_clip_features
    parent = os.getpid()

    def failing(rec, frontend):
        if os.getpid() != parent:
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("boom")
        return real(rec, frontend)

    monkeypatch.setattr(evaluate, "load_clip_features", failing)
    code, out, err = run(["eval", "--checkpoint", str(path),
                          "--manifest", toy_corpus["manifest"]])
    assert code == 2 and out == ""
    detail = "worker process was killed by signal 9" if how == "killed" \
        else "RuntimeError: boom"
    assert err == f"internal error: clips {start}-{stop - 1}: {detail}\n"
    _assert_no_children()


def test_a_later_child_that_cannot_start_exits_two_and_reaps_the_first(
        monkeypatch, tmp_path, toy_corpus, stage2_ckpts):
    path = tmp_path / "best.dsva"
    save_checkpoint(stage2_ckpts[-1], path)
    _force_shares(monkeypatch, 3)
    monkeypatch.setattr(evaluate, "SCORE_BATCH", 1)
    n = len(toy_corpus["splits"]["eval"])
    spans = shares.bounds(n, evaluate.SCORE_BATCH)
    assert len(spans) == 3
    forks = []
    real = os.fork

    def second_fails():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, "fork", second_fails)
    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") \
        else None
    code, out, err = run(["eval", "--checkpoint", str(path),
                          "--manifest", toy_corpus["manifest"]])
    assert (code, out) == (2, "")
    start, stop = spans[2]
    assert err == (f"internal error: clips {start}-{stop - 1}: cannot start a "
                   "process: [Errno 11] Resource temporarily unavailable\n")
    assert len(forks) == 2
    _assert_no_children()  # the first child was killed and reaped
    if fds is not None:
        assert set(os.listdir("/proc/self/fd")) == fds


def test_gen_toy_child_os_error_exits_one_as_in_one_process(monkeypatch,
                                                           tmp_path):
    cfg = write_config(tmp_path / "toy.json", SMALL_TOY)
    roster = _roster(SMALL_TOY)
    errors = []
    for cpus in (1, 3):
        _force_shares(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        # a directory where a clip of the last share goes
        (out / "wavs" / roster[-2][3]).mkdir(parents=True)
        code, stdout, err = run(["gen-toy", "--config", cfg, "--out", str(out)])
        assert code == 1 and stdout == ""
        assert not (out / "manifest.csv").exists()
        errors.append(err.replace(str(out), "OUT"))
    _assert_no_children()
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: [Errno 21] Is a directory: ")
    assert roster[-2][3] in errors[0]
