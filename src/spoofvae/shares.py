"""Per-clip work split into contiguous shares, one per CPU the process may use.

Three kinds of work run in shares: reading clips into features
(evaluate.featurize), the no-grad forwards that score or encode them
(evaluate._batched, whose share edges fall on batch edges), and
synthesizing the toy corpus.  A share is a range [start, stop) of clip
indices, and the work on it must be a pure function of that range, so how
the clips are split cannot change an output byte.  The calling process
runs share 0 itself, so anything that wraps functions in it (a profiler, a
test double) sees that share's calls; each later share runs in a child
made with os.fork.  A child sends its share's result, and the output rows
it wrote, back through a pipe and ends with os._exit: it never returns
into the caller, flushes inherited stdio buffers or runs atexit handlers.
With one share nothing forks.  Limit the CPUs with taskset.

A child holds only the thread that forked it, so call this from a process
that runs no other threads of its own.  Scoring forks after the caller
has run GEMMs, whose OpenBLAS worker threads OpenBLAS stops before a fork
and a child starts again on its first threaded GEMM.  With those threads
unpinned, eval's scores.csv is byte-identical to a taskset -c 0 run on
toy and paper-size checkpoints, but every share then runs BLAS threads of
its own on the same CPUs: on a 2-CPU VM, eval of 2,000 paper-size clips
took 5.1 to 25.2 s unpinned and 1.8 to 4.1 s with BLAS pinned to one
thread (toy size: 2.9 to 11.5 s against 0.6 s).  Pin it
(OMP_NUM_THREADS=1 or OPENBLAS_NUM_THREADS=1) whenever more than one CPU
is usable.
"""

from __future__ import annotations

import os
import pickle
import signal

from .errors import SpoofVaeError

# Fork, exit and wait cost 1.3-1.6 ms at 60-200 MB RSS; a clip costs
# 0.5 ms to featurize, 6 ms to synthesize, and 0.2 ms (toy 32x32 model)
# to 1.6-2.6 ms (paper 80x96 model) to score, so a share of at least 64
# clips spends under 5% of its time on its process, or about 10% when it
# scores toy clips.
MIN_SHARE = 64


def cpu_count() -> int:
    """CPUs this process may run on; 1 where affinity or fork is missing."""
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0))


def bounds(n: int, step: int = 1) -> list:
    """[start, stop) of each share of n clips: contiguous, in order.

    Every edge but n is a multiple of step, so a share never splits a
    batch of step clips.
    """
    units = -(-n // step)
    k = max(1, min(cpu_count(), n // MIN_SHARE, units))
    return [(min(i * units // k * step, n), min((i + 1) * units // k * step, n))
            for i in range(k)]


class ShareError(SpoofVaeError):
    """A child that failed: its clips start..stop - 1 and what went wrong."""

    def __init__(self, start: int, stop: int, detail: str):
        super().__init__(f"clips {start}-{stop - 1}: {detail}")
        self.start, self.stop, self.detail = start, stop, detail

    def moved(self, by: int) -> "ShareError":
        """The same failure, its clips numbered from by instead of 0."""
        return ShareError(self.start + by, self.stop + by, self.detail)


def run(spans, work, out=None) -> list:
    """[work(start, stop) for each span], span 0 in this process.

    work may write out[start:stop] of a C-contiguous array out.  A child
    writes its own copy of those rows, as fork gives it, and their bytes
    are read into out[start:stop] here.  A result must pickle.  An OSError
    in a child is raised here unchanged; a child that raises anything else
    or dies raises ShareError naming its clip range.  Every child is
    waited for before this returns.
    """
    children = []  # (pid, read end of its pipe, start, stop)
    waited = set()
    try:
        for start, stop in spans[1:]:
            children.append((*_fork(work, start, stop, out), start, stop))
        results = [work(*spans[0])]
        for pid, pipe, start, stop in children:
            message = _receive(pipe, None if out is None else out[start:stop])
            status = os.waitpid(pid, 0)[1]
            waited.add(pid)
            results.append(_result(message, status, start, stop))
        return results
    finally:
        for pid, pipe, _, _ in children:
            pipe.close()
            if pid not in waited:  # its result is no longer wanted
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork(work, start: int, stop: int, out):
    """(pid, read end) of a child that runs work(start, stop)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise ShareError(start, stop,
                         f"cannot start a process: {exc}") from exc
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                message = ("ok", work(start, stop))
            except OSError as exc:
                message = ("raise", exc)
            except Exception as exc:  # noqa: BLE001 - reported by the parent
                message = ("fail", f"{type(exc).__name__}: {exc}")
            with open(write_fd, "wb") as fh:
                pickle.dump(message, fh, pickle.HIGHEST_PROTOCOL)
                if message[0] == "ok" and out is not None:
                    fh.write(out[start:stop].data.cast("B"))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _receive(pipe, rows):
    """A child's message, its rows read into rows; None if cut short."""
    try:
        message = pickle.load(pipe)  # written by the child above
    except (EOFError, pickle.UnpicklingError):
        return None
    if message[0] == "ok" and rows is not None and \
            pipe.readinto(rows.data.cast("B")) != rows.nbytes:
        return None
    return message


def _result(message, status: int, start: int, stop: int):
    code = os.waitstatus_to_exitcode(status)
    if code or message is None:
        how = f"was killed by signal {-code}" if code < 0 else \
            f"exited with status {code}"
        raise ShareError(start, stop, f"worker process {how}")
    kind, value = message
    if kind == "raise":
        raise value
    if kind == "fail":
        raise ShareError(start, stop, value)
    return value
