"""Per-clip work split into contiguous shares, one per CPU the process may use.

Work that runs in shares: evaluate._pass, the one loop that reads clips
into features, scores them or encodes them (featurize, validation, eval,
export-embeddings and stage 2's frozen general-encoder rows each make one
pass, a chunk at a time, on whole batches), and synthesizing the toy
corpus.  A share is a range [start, stop) of clip indices, and the work on
it must be a pure function of that range, so how the clips are split
cannot change an output byte.  The calling process runs share 0 itself, so
anything that wraps functions in it (a profiler, a test double) sees that
share's calls; each later share runs in a child made with os.fork.  Every
array that crosses a fork lives in a mapping from shared_arrays, made
before the fork: a pass's children write their output rows into it, and
the training worker reads its weights from one and writes its gradients
into another.  A pipe carries only pickled messages: a child's result or
failure, or the worker's requests and answers.  A child ends with
os._exit: it never returns into the caller, flushes inherited stdio
buffers or runs atexit handlers.  With one share nothing forks.  Limit the
CPUs with taskset.

Training runs forked work too, in a Worker: one child, forked once per
training run, that computes the second micro-batch of every step (see
train._step) on the batch indices and noise the caller sends it, and
sends back only its loss report.  Its failures follow run's contract,
named by the step instead of a clip range.

A child holds only the thread that forked it, so call this from a process
that runs no other threads of its own (OpenBLAS stops its worker threads
before a fork, and a child starts them again on its first threaded GEMM).
BLAS threads in every share would fight over the same CPUs, so importing
spoofvae pins BLAS to one thread unless a thread count is set (see
spoofvae/__init__.py).
"""

from __future__ import annotations

import ctypes
import itertools
import math
import mmap
import os
import pickle
import signal

import numpy as np

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


def shared_arrays(shapes) -> list:
    """Zeroed float32 arrays of the given shapes in one anonymous mapping.

    The mapping is MAP_SHARED, so a child forked after this call and its
    parent see each other's writes to it.  Each array starts on a 64-byte
    boundary.  Where MAP_SHARED is missing, so is os.fork (see cpu_count),
    and the arrays are plain ones.
    """
    if not hasattr(mmap, "MAP_SHARED"):
        return [np.zeros(shape, dtype=np.float32) for shape in shapes]
    sizes = [math.prod(shape) for shape in shapes]
    starts = [0, *itertools.accumulate(-(-size // 16) * 16 for size in sizes)]
    flat = np.frombuffer(mmap.mmap(-1, 4 * max(starts[-1], 1),
                                   flags=mmap.MAP_SHARED), dtype=np.float32)
    return [flat[at:at + size].reshape(shape)
            for at, size, shape in zip(starts, sizes, shapes)]


class ShareError(SpoofVaeError):
    """A child that failed: what it was working on and what went wrong.

    where is a (start, stop) range of clips or a text naming the work,
    such as "stage 2 step 7".
    """

    def __init__(self, where, detail: str):
        what = f"clips {where[0]}-{where[1] - 1}" \
            if isinstance(where, tuple) else where
        super().__init__(f"{what}: {detail}")


def run(spans, work) -> list:
    """[work(start, stop) for each span], span 0 in this process.

    A result must pickle.  Output rows go into a mapping from
    shared_arrays made before this call, which every child shares.  An
    OSError in a child is raised here unchanged; a child that raises
    anything else or dies raises ShareError naming its clip range.  Every
    child is waited for before this returns.
    """
    def once(start, stop):
        def serve(fh):
            pickle.dump(_call(work, start, stop), fh, pickle.HIGHEST_PROTOCOL)
        return serve

    children = []  # (pid, read end of its pipe, start, stop)
    waited = set()
    try:
        for start, stop in spans[1:]:
            children.append((*_fork(once(start, stop), (start, stop)),
                             start, stop))
        results = [work(*spans[0])]
        for pid, pipe, start, stop in children:
            message = _receive(pipe)
            status = os.waitpid(pid, 0)[1]
            waited.add(pid)
            if os.waitstatus_to_exitcode(status) or message is None:
                raise _died(status, (start, stop))
            results.append(_unpack(message, (start, stop)))
        return results
    finally:
        for pid, pipe, _, _ in children:
            pipe.close()
            if pid not in waited:  # its result is no longer wanted
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


class Worker:
    """One child, forked once, that answers each request with work(request).

    For work repeated on inputs that change: the child inherits what
    exists when it is forked, and each request and answer is pickled
    through a pipe of its own.  Answers keep run's contract: an OSError in
    the child is raised here unchanged, and any other exception, or the
    child's death, raises ShareError naming the where given to answer (or,
    if the fork fails, to the constructor).  Leaving the with block kills
    and reaps the child.
    """

    def __init__(self, work, where):
        read_fd, write_fd = os.pipe()  # requests, to the child

        def serve(answers):
            os.close(write_fd)
            with open(read_fd, "rb") as requests:
                while True:
                    try:
                        request = pickle.load(requests)  # sent by ask
                    except EOFError:
                        return
                    pickle.dump(_call(work, request), answers,
                                pickle.HIGHEST_PROTOCOL)
                    answers.flush()

        _trim_heap()
        try:
            self._pid, self._answers = _fork(serve, where)
        except BaseException:
            os.close(write_fd)
            raise
        finally:
            os.close(read_fd)
        self._requests = open(write_fd, "wb")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def ask(self, request) -> None:
        """Send request; its answer comes from the next call to answer."""
        try:
            pickle.dump(request, self._requests, pickle.HIGHEST_PROTOCOL)
            self._requests.flush()
        except BrokenPipeError:  # the child is gone; answer says how
            pass

    def answer(self, where):
        """work(request) of the oldest unanswered request."""
        message = _receive(self._answers)
        if message is None:
            status = os.waitpid(self._pid, 0)[1]
            self._pid = None
            raise _died(status, where)
        return _unpack(message, where)

    def close(self) -> None:
        for pipe in (self._requests, self._answers):
            try:
                pipe.close()
            except BrokenPipeError:  # a request the child never read
                pass
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


def _trim_heap() -> None:
    """Give the heap's free pages back to the system (glibc's malloc_trim).

    A page the parent and a long-lived child still share after a fork is
    write-protected in both, so the first write to it on either side
    faults and copies it.  Freed heap that cli.main keeps for reuse would
    be such pages; trimmed, the child shares only live memory, and both
    sides take fresh pages for their work.  Other C libraries lack
    malloc_trim, and the call is skipped.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes = (ctypes.c_size_t,)
    trim.restype = ctypes.c_int
    trim(0)


def _fork(serve, where):
    """(pid, read end) of a child that runs serve(write end) and exits."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise ShareError(where, f"cannot start a process: {exc}") from exc
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as fh:
                serve(fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _call(work, *args):
    """work(*args) as a message for the parent: the result or the failure."""
    try:
        return "ok", work(*args)
    except OSError as exc:
        return "raise", exc
    except Exception as exc:  # noqa: BLE001 - reported by the parent
        return "fail", f"{type(exc).__name__}: {exc}"


def _receive(pipe):
    """A child's message; None if cut short."""
    try:
        return pickle.load(pipe)  # written by a child of _fork
    except (EOFError, pickle.UnpicklingError):
        return None


def _died(status: int, where) -> ShareError:
    code = os.waitstatus_to_exitcode(status)
    how = f"was killed by signal {-code}" if code < 0 else \
        f"exited with status {code}"
    return ShareError(where, f"worker process {how}")


def _unpack(message, where):
    kind, value = message
    if kind == "raise":
        raise value
    if kind == "fail":
        raise ShareError(where, value)
    return value
