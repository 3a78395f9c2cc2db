"""Portable deterministic random number generation.

Everything random in this package (toy-corpus synthesis, weight init, batch
shuffling, reparameterization noise) flows through `Stream`, a counter-based
splitmix64 generator.  The output stream is a pure function of the seed, so
results are byte-stable across platforms, Python versions and numpy versions;
numpy's own Generator streams carry no such guarantee across releases.

Recurrence (all arithmetic mod 2^64):

    state_k  = seed + k * 0x9E3779B97F4A7C15          (k = 1, 2, ...)
    output_k = mix(state_k)

    mix(z):  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
             z ^= z >> 27;  z *= 0x94D049BB133111EB
             z ^= z >> 31;  return z

Because output_k depends only on (seed, k), any block of draws can be
produced independently of the others; parallel generation equals serial
generation byte-for-byte.

Derived values:
  uniform double in [0, 1):  (output_k >> 11) * 2^-53
  standard normal:           Box-Muller, z = sqrt(-2 ln u1) * cos(2 pi u2)
                             with u1 in (0, 1] = ((output >> 11) + 1) * 2^-53
  child stream (spawn i):    seed' = mix(seed + (i + 1) * 0x9E3779B97F4A7C15)

A stream used for spawning children must not also be used for draws; the two
uses read the same sequence and would correlate parent and child output.
Seeds and spawn indices must lie in [0, 2^64): the arithmetic is mod 2^64,
so any other integer would silently alias one in that range.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


def _u64(value, what: str) -> int:
    """value as an int in [0, 2^64), or ContractError."""
    value = int(value)
    if not 0 <= value <= _U64:
        raise ContractError(f"{what} must be in [0, 2^64), got {value}")
    return value


def _mix(z: np.ndarray) -> np.ndarray:
    # uint64 wraparound is the point; silence numpy's overflow warning
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


class Stream:
    """Counter-based splitmix64 stream; see the module docstring."""

    def __init__(self, seed: int):
        self._seed = np.uint64(_u64(seed, "seed"))
        self._count = 0

    @property
    def seed(self) -> int:
        return int(self._seed)

    def spawn(self, index: int) -> "Stream":
        """Independent child stream number `index` (see module docstring)."""
        with np.errstate(over="ignore"):
            child = _mix(self._seed + _GOLDEN * np.uint64(
                (_u64(index, "spawn index") + 1) & _U64))
        return Stream(int(child))

    def raw(self, n: int) -> np.ndarray:
        """Next `n` raw 64-bit outputs as a uint64 array."""
        ks = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            return _mix(self._seed + ks * _GOLDEN)

    def uniform(self, lo: float = 0.0, hi: float = 1.0, shape=None):
        """Uniform float64 draws in [lo, hi); scalar when shape is None."""
        n = 1 if shape is None else int(np.prod(shape))
        u = (self.raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        out = lo + (hi - lo) * u
        return float(out[0]) if shape is None else out.reshape(shape)

    def normal(self, mean: float = 0.0, std: float = 1.0, shape=None):
        """Gaussian float64 draws via Box-Muller (cosine branch)."""
        n = 1 if shape is None else int(np.prod(shape))
        bits = self.raw(2 * n)
        u1 = ((bits[:n] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (bits[n:] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        z = mean + std * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return float(z[0]) if shape is None else z.reshape(shape)

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi); modulo bias is negligible for hi - lo << 2^64."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        return lo + int(self.raw(1)[0] % np.uint64(hi - lo))

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) (argsort of uniform draws)."""
        return np.argsort(self.uniform(shape=(n,)), kind="stable")
