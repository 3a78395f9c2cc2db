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
same CPUs.  BLAS reads these variables when numpy loads it, so the pin
holds only where spoofvae is imported before numpy.
"""

import os

_BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

__version__ = "0.1.0"
