"""Forked work: per-clip shares, one per CPU the process may use, and the
training worker, both run by one child type, Worker.

Work that runs in shares: evaluate._pass, the one loop that reads clips
into features, scores them or encodes them (featurize, validation, eval,
export-embeddings and stage 2's frozen general-encoder rows each make one
pass, one batch at a time), and synthesizing the toy corpus.  A share is
a range [start, stop) of clip indices, and the work on it must be a pure
function of that range, so how the clips are split cannot change an
output byte.  The calling process runs share 0 itself, so anything that
wraps functions in it (a profiler, a test double) sees that share's calls;
each later share is the one request of a Worker of its own.  With one
share nothing forks.  Limit the CPUs with taskset.

Training asks one Worker, forked once per training run, for the second
micro-batch of every step (see train._step): its requests carry the batch
indices and noise, and its answers only the loss report.

A Worker is a child made with os.fork, the only fork here.  Every array
that crosses a fork lives in a mapping from shared_arrays, made before the
fork: a pass's children write their output rows into it, and the training
worker reads its weights from one and writes its gradients into another.
A pipe carries only pickled messages: requests one way, results or
failures the other.  A child ends with os._exit: it never returns into the
caller, flushes inherited stdio buffers or runs atexit handlers.

A child holds only the thread that forked it, so call this from a process
that runs no other threads of its own (OpenBLAS stops its worker threads
before a fork, and a child starts them again on its first threaded GEMM).
BLAS threads in every share would fight over the same CPUs, so importing
spoofvae pins BLAS to one thread unless a thread count is set (see
spoofvae/__init__.py).
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
import mmap
import os
import pickle
import signal

import numpy as np

from .errors import SpoofVaeError

# A share holds at least MIN_SHARE units of the step given to bounds: two
# 32-clip batches in a pass of evaluate._pass, two clips in gen-toy.  A
# two-share run of no work (fork, exit and wait) takes 2.6-3.6 ms at
# 28-128 MB RSS and 3.5-4.6 ms at 528 MB (medians, 2-vCPU Xeon VM).  A clip
# costs 6 ms to synthesize, so two of them outweigh a fork: gen-toy of a
# 112-clip corpus took 0.41 s on two CPUs against 0.73 s on one.  A clip
# costs 0.35-0.4 ms to featurize and 0.2 ms (toy 32x32 model) to 1.6-2.6 ms
# (paper 80x96 model) to score, so a pass keeps 64 clips a share: it spends
# about 10-13% of its time on its process when it featurizes, 2-4% when it
# scores paper-size clips and about 25% when it scores toy clips.  With no
# floor at all, training's small featurize, validation and frozen-row passes
# split too, and each fork there trims, then faults back, the heap cli.main
# keeps: toy stage 2 ran 12% slower (BENCH_28.json).
MIN_SHARE = 2


def cpu_count() -> int:
    """CPUs this process may run on; 1 where affinity or fork is missing."""
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0))


def bounds(n: int, step: int = 1) -> list:
    """[start, stop) of each share of n clips: contiguous, in order.

    Every edge but n is a multiple of step, so a share never splits a
    batch of step clips, and when there are several shares each holds at
    least MIN_SHARE whole batches.
    """
    units = -(-n // step)
    k = max(1, min(cpu_count(), n // (MIN_SHARE * step)))
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

    Each later span is the one request of a Worker of its own, forked
    before span 0 starts here, so the shares run side by side.  A result
    must pickle; output rows go into a mapping from shared_arrays made
    before this call, which every child shares.  Failures raise as
    Worker.answer says, named by the span's clip range.  Every child is
    killed and reaped before this returns.
    """
    with contextlib.ExitStack() as stack:
        later = []
        for span in spans[1:]:
            worker = stack.enter_context(Worker(lambda s: work(*s), span))
            worker.ask(span)
            later.append((worker, span))
        return [work(*spans[0])] + [w.answer(span) for w, span in later]


class Worker:
    """One forked child that answers each request with work(request).

    The child inherits what exists when it is forked, and each request and
    answer is pickled through a pipe of its own.  An OSError in the child
    is raised here unchanged; any other exception, or the child's death,
    raises ShareError naming the where given to answer (or, if the fork
    fails, to the constructor).  Leaving the with block kills and reaps
    the child: the one place a child ends that way.
    """

    def __init__(self, work, where):
        fds = []  # read and write end of the requests', then the answers' pipe
        try:
            fds += os.pipe()
            fds += os.pipe()
            _trim_heap()
            try:
                pid = os.fork()
            except OSError as exc:
                raise ShareError(where, f"cannot start a process: {exc}") \
                    from exc
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        child_in, requests, answers, child_out = fds
        if pid == 0:
            status = 1
            try:
                os.close(requests)
                os.close(answers)
                with open(child_in, "rb") as inbox, \
                        open(child_out, "wb") as outbox:
                    while True:
                        try:
                            request = pickle.load(inbox)  # sent by ask
                        except EOFError:
                            break
                        pickle.dump(_call(work, request), outbox,
                                    pickle.HIGHEST_PROTOCOL)
                        outbox.flush()
                status = 0
            finally:
                os._exit(status)
        os.close(child_in)
        os.close(child_out)
        self._pid = pid
        self._requests = open(requests, "wb")
        self._answers = open(answers, "rb")

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
        try:
            kind, value = pickle.load(self._answers)  # sent by the child
        except (EOFError, pickle.UnpicklingError):  # none, or cut short
            code = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
            self._pid = None
            how = f"was killed by signal {-code}" if code < 0 else \
                f"exited with status {code}"
            raise ShareError(where, f"worker process {how}") from None
        if kind == "raise":
            raise value
        if kind == "fail":
            raise ShareError(where, value)
        return value

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


def _call(work, request):
    """work(request) as a message for the parent: the result or the failure."""
    try:
        return "ok", work(request)
    except OSError as exc:
        return "raise", exc
    except Exception as exc:  # noqa: BLE001 - reported by the parent
        return "fail", f"{type(exc).__name__}: {exc}"
