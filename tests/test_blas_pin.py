"""Importing spoofvae pins BLAS to one thread unless a thread count is set.

Each case runs in a fresh interpreter, since BLAS reads the variables
once, when numpy loads it.
"""

import json
import os
import subprocess
import sys

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


def _probe(**env):
    child = {k: v for k, v in os.environ.items() if k not in VARS}
    child.update(env, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", PROBE], env=child,
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
