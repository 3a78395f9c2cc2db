"""Waveform to mel-spectrogram front end.

Pipeline: frame the signal with a symmetric Hann window, take magnitude
spectra, pool bins through a triangular mel filterbank, log-compress,
standardize per utterance, and pad or crop the time axis to a fixed extent
so every clip becomes the same network input size.

The frames are a read-only strided view of the samples; rfft pads each
windowed frame to fft_size itself, so no padded copy is made.  A
FrontendConfig works out its window, hop, FFT size and filterbank once,
and every clip it featurizes reads them.

All intermediate math runs in float64 for determinism and headroom; the
final feature matrix is cast to float32.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import JsonConfig, bounded
from .errors import ContractError, DimensionError, InputError

LOG_EPS = 1e-6
# the largest frontend FrontendConfig accepts, so that no setting asks for
# an array past the memory of a machine before any is built
MAX_SAMPLE_RATE = 1 << 20  # Hz
MAX_SAMPLES = 1 << 16  # in a window, a hop or an FFT frame
MAX_MELS = 1 << 10
MAX_CELLS = 1 << 18  # n_mels * target_frames: a clip's feature cells


@dataclass
class Waveform:
    """Mono audio samples in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise InputError(f"waveform must be 1-d, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise InputError(f"sample_rate must be positive, got {self.sample_rate}")
        # NaN fails the range check too; only then is isfinite worth a pass
        if self.samples.size and not (
                -1.0 - 1e-9 <= self.samples.min()
                and self.samples.max() <= 1.0 + 1e-9):
            if not np.all(np.isfinite(self.samples)):
                raise InputError("waveform contains non-finite samples")
            raise InputError("waveform samples exceed [-1, 1]")

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class FrontendConfig(JsonConfig):
    """Framing, filterbank, and output-extent settings for feature extraction.

    fft_size None means the next power of two at or above the window length.
    """

    sample_rate: int = bounded(16000, 1, MAX_SAMPLE_RATE)
    window_ms: float = 25.0
    hop_ms: float = 10.0
    fft_size: int | None = bounded(None, 1, MAX_SAMPLES)
    n_mels: int = bounded(80, 1, MAX_MELS)
    f_min: float = 0.0
    f_max: float | None = None
    target_frames: int = bounded(96, 1, MAX_CELLS)

    def __post_init__(self):
        super().__post_init__()
        for key in ("window_ms", "hop_ms"):
            ms = getattr(self, key)
            if not abs(ms * self.sample_rate) <= 1000.0 * MAX_SAMPLES:
                raise InputError(f"{key} must give at most {MAX_SAMPLES} "
                                 f"samples, got {reprlib.repr(ms)} ms at "
                                 f"{self.sample_rate} Hz")
        if self.n_mels * self.target_frames > MAX_CELLS:
            raise InputError(f"n_mels times target_frames must be at most "
                             f"{MAX_CELLS} feature cells, got "
                             f"{self.n_mels}x{self.target_frames}")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_ms * self.sample_rate / 1000.0))

    @property
    def hop_samples(self) -> int:
        return int(round(self.hop_ms * self.sample_rate / 1000.0))

    @property
    def effective_fft_size(self) -> int:
        if self.fft_size is None:
            n = 1
            while n < self.window_samples:
                n *= 2
            return n
        if self.fft_size < self.window_samples:
            raise ContractError(
                f"fft_size {self.fft_size} smaller than window "
                f"({self.window_samples} samples)")
        return self.fft_size

    @property
    def effective_f_max(self) -> float:
        return self.sample_rate / 2.0 if self.f_max is None else self.f_max

    def check_fits(self, model, error=InputError) -> None:
        """Raise error unless model's input extent is this frontend's."""
        if (model.n_mels, model.target_frames) != (self.n_mels, self.target_frames):
            raise error(f"model input extent {model.n_mels}x{model.target_frames} "
                        f"does not match frontend {self.n_mels}x{self.target_frames}")

    @cached_property
    def framing(self) -> tuple:
        """(read-only Hann window, hop, FFT size) in samples, worked out once
        for these settings and read by every clip.  A window under two
        samples, a hop under one or an fft_size below the window raises
        ContractError."""
        win, hop = self.window_samples, self.hop_samples
        if win < 2 or hop < 1:
            raise ContractError(
                f"window of {win} and hop of {hop} samples; need a "
                f"window of at least 2 and a hop of at least 1")
        window = hann_window(win)
        window.flags.writeable = False
        return window, hop, self.effective_fft_size

    def filterbank(self) -> "MelFilterbank":
        """The mel filterbank these settings describe, built once and cached.

        Settings that cannot frame or pool any clip (a hop under one
        sample, a window under two, an fft_size below the window, a mel
        range that mel_filterbank rejects) raise one InputError naming the
        problem before any array is built; construction does not check this.
        """
        return self._filterbank

    @cached_property
    def _filterbank(self) -> "MelFilterbank":
        try:
            return mel_filterbank(self.n_mels, self.framing[2],
                                  self.sample_rate, self.f_min,
                                  self.effective_f_max)
        except ContractError as exc:
            raise InputError(f"frontend: {exc}") from exc


@dataclass
class MelFilterbank:
    """Triangular filters (n_mels x n_bins) with their mel/Hz edge grids."""

    weights: np.ndarray
    mel_edges: np.ndarray
    hz_edges: np.ndarray


def hann_window(n: int) -> np.ndarray:
    """Symmetric Hann weights w[k] = 0.5*(1 - cos(2*pi*k/(n-1)))."""
    if n < 2:
        raise ContractError(f"hann_window needs n >= 2, got {n}")
    k = np.arange(n, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / (n - 1)))


def hz_to_mel(f_hz):
    """Mel value 2595*log10(1 + f/700); accepts scalars or arrays."""
    f = np.asarray(f_hz, dtype=np.float64)
    if np.any(f < 0):
        raise ContractError("hz_to_mel requires non-negative frequency")
    out = 2595.0 * np.log10(1.0 + f / 700.0)
    return float(out) if np.ndim(f_hz) == 0 else out


def mel_to_hz(m):
    """Inverse of hz_to_mel."""
    mel = np.asarray(m, dtype=np.float64)
    out = 700.0 * (np.power(10.0, mel / 2595.0) - 1.0)
    return float(out) if np.ndim(m) == 0 else out


def stft_magnitude(wave: Waveform, config: FrontendConfig) -> np.ndarray:
    """Magnitude short-time spectra of a waveform, bins x frames.

    Frames = 1 + floor((N - window)/hop); each frame is Hann-windowed and
    zero-padded to fft_size; bins cover 0..fft_size/2 inclusive, bin k at
    k * sample_rate / fft_size Hz.
    """
    if wave.sample_rate != config.sample_rate:
        raise InputError(
            f"waveform rate {wave.sample_rate} != configured {config.sample_rate}")
    window, hop, nfft = config.framing
    x = np.ascontiguousarray(wave.samples)
    n, win = x.size, window.size
    if n < win:
        raise InputError(f"signal of {n} samples shorter than window ({win})")
    # 1 + (n - win) // hop frames, each a read-only view into the samples
    frames = np.ndarray((1 + (n - win) // hop, win), x.dtype, x, 0,
                        (hop * x.itemsize, x.itemsize))
    frames.flags.writeable = False
    return np.abs(np.fft.rfft(frames * window, n=nfft, axis=1)).T


def mel_filterbank(n_mels: int, fft_size: int, sample_rate: int,
                   f_min: float = 0.0, f_max: float | None = None) -> MelFilterbank:
    """Triangular mel filterbank; triangles are linear on the mel axis.

    Edges are n_mels + 2 equally spaced mel points between f_min and f_max.
    Filter m rises over (edge_m, edge_{m+1}) and falls over
    (edge_{m+1}, edge_{m+2}); it is zero outside.
    """
    if f_max is None:
        f_max = sample_rate / 2.0
    if not (0.0 <= f_min < f_max <= sample_rate / 2.0):
        raise ContractError(f"invalid mel range [{reprlib.repr(f_min)}, "
                            f"{reprlib.repr(f_max)}] for sample rate "
                            f"{sample_rate}")
    if n_mels < 1:
        raise ContractError(f"n_mels must be >= 1, got {n_mels}")
    mel_edges = np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2)
    hz_edges = mel_to_hz(mel_edges)
    n_bins = fft_size // 2 + 1
    bin_mel = hz_to_mel(np.arange(n_bins) * sample_rate / fft_size)
    weights = np.zeros((n_mels, n_bins), dtype=np.float64)
    for m in range(n_mels):
        lo, mid, hi = mel_edges[m], mel_edges[m + 1], mel_edges[m + 2]
        rising = (bin_mel - lo) / (mid - lo)
        falling = (hi - bin_mel) / (hi - mid)
        weights[m] = np.maximum(0.0, np.minimum(rising, falling))
        if not np.any(weights[m] > 0):
            raise ContractError(
                f"mel filter {m} has no spectral support; "
                f"increase fft_size or reduce n_mels")
    return MelFilterbank(weights=weights, mel_edges=mel_edges, hz_edges=hz_edges)


def _fit_time_extent(m: np.ndarray, target: int) -> np.ndarray:
    frames = m.shape[1]
    if frames == target:
        return m
    if frames > target:
        start = (frames - target) // 2
        return m[:, start:start + target]
    if frames < 2:
        raise InputError(
            f"cannot reflect-pad a {frames}-frame clip to {target} frames")
    left = (target - frames) // 2
    right = target - frames - left
    return np.pad(m, ((0, 0), (left, right)), mode="reflect")


def mel_spectrogram(spec: np.ndarray, fb: MelFilterbank,
                    target_frames: int) -> np.ndarray:
    """Log-mel features: pool, log-compress, standardize, fix the extent.

    spec is stft_magnitude's bins x frames array; the result is float32
    (n_mels, target_frames).  Standardization is per utterance to zero mean
    and unit variance; a zero-variance clip maps to all zeros.  Longer clips
    are center-cropped, shorter ones reflect-padded, always after
    normalization.
    """
    if fb.weights.shape[1] != spec.shape[0]:
        raise DimensionError(
            f"filterbank expects {fb.weights.shape[1]} bins, "
            f"spectrogram has {spec.shape[0]}")
    m = fb.weights @ spec
    m += LOG_EPS
    np.log(m, out=m)
    # np.mean's and np.std's own arithmetic, on m centred in place
    m -= np.add.reduce(m, axis=None) / m.size
    sd = float(np.sqrt(np.add.reduce(np.square(m), axis=None) / m.size))
    if sd < 1e-12:
        m = np.zeros_like(m)
    else:
        m /= sd
    return _fit_time_extent(m, int(target_frames)).astype(np.float32)


def mel_features(wave: Waveform, config: FrontendConfig) -> np.ndarray:
    """Full front end: waveform to float32 (n_mels, target_frames) matrix."""
    fb = config.filterbank()
    spec = stft_magnitude(wave, config)
    return mel_spectrogram(spec, fb, config.target_frames)
