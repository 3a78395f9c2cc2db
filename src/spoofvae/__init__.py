"""Two-stage disentangled VAE for synthetic-speech detection.

A numpy-only pipeline: WAV ingestion and a log-mel front end, a small
reverse-mode autodiff core, paired variational encoders with joint and
activation-map decoders, two-stage training with encoder freezing, and
EER / balanced-accuracy evaluation.  The `spoofvae` command line exposes
the whole thing; see the README for a walkthrough.

Importing the package pins BLAS to one thread unless OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS or MKL_NUM_THREADS is already set: training,
featurizing and scoring run in forked processes, one per CPU (see
spoofvae.shares), and BLAS threads in each of them would fight over the
same CPUs.  BLAS reads these variables when numpy loads it; where numpy
was imported first, the OpenBLAS it loaded is told to use one thread
instead (other BLAS builds keep their thread count).
"""

import os
import sys

_BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_loaded_openblas() -> None:
    """Set the OpenBLAS numpy has loaded to one thread, where it has one."""
    import ctypes

    numpy = sys.modules["numpy"]
    try:
        core = numpy._core if hasattr(numpy, "_core") else numpy.core
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return
    for name in ("scipy_openblas_set_num_threads64_",  # numpy's own wheels
                 "openblas_set_num_threads64_", "openblas_set_num_threads"):
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)
            return


if not any(name in os.environ for name in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    if "numpy" in sys.modules:
        _pin_loaded_openblas()

__version__ = "0.1.0"
