"""A command cut short by Ctrl-C, SIGTERM or a full disk ends in one
stderr line.

Ctrl-C exits 130 with `interrupted` and SIGTERM 143 with `terminated`,
once every forked child is reaped.  A checkpoint write that fails leaves
no file under its name, so the epoch files already written stay usable as
a directory.
"""

import errno
import os
import signal
import threading
import time

import pytest

from spoofvae import checkpoint, evaluate

from conftest import tiny_stage2
from test_cli import run, write_config
from test_shares import _assert_no_children, _count_forks, _force_shares


def test_ctrl_c_exits_130_with_one_line_and_no_child_left(
        monkeypatch, tmp_path, toy_corpus, stage2_ckpts):
    path = tmp_path / "best.dsva"
    checkpoint.save_checkpoint(stage2_ckpts[-1], path)
    _force_shares(monkeypatch, 2)
    monkeypatch.setattr(evaluate, "SCORE_BATCH", 1)
    forks = _count_forks(monkeypatch)

    def interrupted(rec, frontend):
        raise KeyboardInterrupt

    monkeypatch.setattr(evaluate, "load_clip_features", interrupted)
    try:
        code, out, err = run(["eval", "--checkpoint", str(path),
                              "--manifest", toy_corpus["manifest"]])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")
    assert (code, out, err) == (130, "", "interrupted\n")
    assert len(forks) == 1
    _assert_no_children()


class _Escaped(BaseException):
    """SIGTERM raised by the test's own handler, so that a main that
    leaves SIGTERM alone fails the test instead of ending pytest."""


def _escaped(signum, frame):
    raise _Escaped


def test_sigterm_exits_143_with_one_line_and_no_child_left(
        monkeypatch, tmp_path, toy_corpus, stage2_ckpts):
    path = tmp_path / "best.dsva"
    checkpoint.save_checkpoint(stage2_ckpts[-1], path)
    _force_shares(monkeypatch, 2)
    monkeypatch.setattr(evaluate, "SCORE_BATCH", 1)
    forks = _count_forks(monkeypatch)

    def terminated(rec, frontend):  # in each share, to its own process
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(10.0)  # the handler raises while this waits

    monkeypatch.setattr(evaluate, "load_clip_features", terminated)
    previous = signal.signal(signal.SIGTERM, _escaped)
    try:
        code, out, err = run(["eval", "--checkpoint", str(path),
                              "--manifest", toy_corpus["manifest"]])
    except _Escaped:
        pytest.fail("SIGTERM escaped main")
    finally:
        restored = signal.signal(signal.SIGTERM, previous)
    assert (code, out, err) == (143, "", "terminated\n")
    assert restored is _escaped  # main put the caller's handler back
    assert len(forks) == 1
    _assert_no_children()


def test_main_off_the_main_thread_leaves_sigterm_alone():
    before = signal.getsignal(signal.SIGTERM)
    codes = []
    caller = threading.Thread(target=lambda: codes.append(run(["--help"])[0]))
    caller.start()
    caller.join(30.0)
    assert not caller.is_alive() and codes == [0]
    assert signal.getsignal(signal.SIGTERM) is before


class _FullDisk:
    """A file of save_checkpoint's whose writes after the first raise ENOSPC."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._fh.write(data)


def test_a_failed_epoch_write_leaves_the_earlier_epochs_usable(
        monkeypatch, tmp_path, toy_corpus):
    saves = []

    def opened(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if mode == "wb":
            saves.append(file)
            if len(saves) == 2:  # epoch 2's file
                return _FullDisk(fh)
        return fh

    monkeypatch.setattr(checkpoint, "open", opened, raising=False)
    out = tmp_path / "ck2"
    code, stdout, err = run([
        "train-stage2", "--config", write_config(tmp_path / "s2.json",
                                                 tiny_stage2(epochs=2)),
        "--manifest", toy_corpus["manifest"], "--out", str(out)])
    assert code == 1 and len(saves) == 2
    assert stdout == f"{out / 'epoch_001.dsva'}\n"
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: [Errno {errno.ENOSPC}] "
                      f"{os.strerror(errno.ENOSPC)}"]
    assert err.endswith(errors[0] + "\n")
    assert sorted(os.listdir(out)) == ["epoch_001.dsva"]
    code, stdout, err = run(["select-best", "--checkpoint", str(out)])
    assert (code, stdout) == (0, f"{out / 'epoch_001.dsva'}\n"), err
