"""Importing spoofvae pins BLAS to one thread unless a thread count is set.

Each case runs in a fresh interpreter, since BLAS reads the variables
once, when numpy loads it; where numpy is imported first, spoofvae sets
the thread count of the OpenBLAS numpy loaded.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# the variables after import, and the threads of the process after a GEMM
# (OpenBLAS starts its worker threads when numpy loads it)
PROBE = f"""
import json, os
import spoofvae
import numpy as np
a = np.ones((256, 256), dtype=np.float32)
a @ a
tasks = "/proc/self/task"
print(json.dumps({{
    "env": {{name: os.environ.get(name) for name in {VARS!r}}},
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None}}))
"""


# OpenBLAS's thread count before and after importing spoofvae, numpy
# imported first; null where numpy's BLAS has no OpenBLAS getter
NUMPY_FIRST = """
import ctypes, json
import numpy
core = numpy._core if hasattr(numpy, "_core") else numpy.core
lib = ctypes.CDLL(core._multiarray_umath.__file__)
get = next((getattr(lib, name) for name in (
    "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
    "openblas_get_num_threads") if hasattr(lib, name)), None)
before = get() if get else None
import spoofvae
print(json.dumps({"before": before, "after": get() if get else None}))
"""


def _probe(script=PROBE, **env):
    child = {k: v for k, v in os.environ.items() if k not in VARS}
    child.update(env, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=child,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return json.loads(done.stdout)


def test_unset_variables_are_pinned_to_one_thread():
    got = _probe()
    assert got["env"] == dict.fromkeys(VARS, "1")
    assert got["threads"] in (None, 1)


def test_a_thread_count_the_user_set_wins():
    got = _probe(OPENBLAS_NUM_THREADS="3")
    assert got["env"] == {"OMP_NUM_THREADS": None,
                          "OPENBLAS_NUM_THREADS": "3",
                          "MKL_NUM_THREADS": None}


def test_numpy_imported_first_is_pinned_too():
    got = _probe(NUMPY_FIRST)
    if got["before"] is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread getter")
    assert got["after"] == 1
    # a count the user set wins: OpenBLAS keeps the one it read
    got = _probe(NUMPY_FIRST, OPENBLAS_NUM_THREADS="2")
    assert got["after"] == got["before"]
