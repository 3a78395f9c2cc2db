"""Window layouts that the conv kernels and the STFT read.

_gather_cols is checked element by element against a loop over its
documented (C*K*K, N*Ho*Wo) layout, read from channel-major memory as
the model keeps its activations and from an NCHW array's transposed
view, and mel_features byte for byte against the index-gather framing
it replaced.  Neither check depends on which BLAS kernels the process
uses.
"""

import numpy as np
import pytest

from spoofvae import dsp
from spoofvae import tensor as T
from spoofvae.dsp import FrontendConfig, Waveform, mel_features


def _cols_loop(x, k, s, lo, ho, wo):
    """Rows in (c, a, b) order, columns in (n, i, j) order; window (i, j)
    starts at (i*s - lo, j*s - lo) of NCHW x, zero off the grid."""
    n, c, h, w = x.shape
    out = np.empty((c * k * k, n * ho * wo), dtype=x.dtype)
    for ci in range(c):
        for a in range(k):
            for b in range(k):
                row = (ci * k + a) * k + b
                for ni in range(n):
                    for i in range(ho):
                        for j in range(wo):
                            r, q = i * s + a - lo, j * s + b - lo
                            out[row, (ni * ho + i) * wo + j] = \
                                x[ni, ci, r, q] if 0 <= r < h and 0 <= q < w \
                                else 0.0
    return out


# (n, c, h, w, k, s, p): strides 1-3, with and without padding, odd extents;
# the window origin lo is p and the extent that of conv2d
GATHER_CASES = [
    (1, 1, 5, 5, 3, 1, 0),
    (2, 3, 7, 5, 3, 2, 1),
    (3, 2, 9, 11, 4, 2, 1),
    (2, 4, 10, 7, 3, 3, 2),
    (1, 2, 6, 9, 1, 1, 0),
    (2, 1, 8, 8, 2, 3, 0),
    (4, 5, 13, 3, 3, 2, 1),
]

# (n, c, h, w, k, s, lo, ho, wo): the stride-1 windows of a transposed
# conv's phases, which start before the grid and run past its end, and
# origins past the first row (lo < 0) or grids that windows miss entirely
PHASE_CASES = [
    (2, 3, 5, 6, 2, 1, 1, 6, 7),
    (1, 2, 1, 1, 2, 1, 1, 2, 2),
    (3, 1, 4, 3, 1, 1, -1, 2, 1),
    (2, 2, 3, 4, 3, 2, 2, 4, 5),
    (1, 1, 2, 2, 2, 1, 5, 2, 3),
]


def _check(x, k, s, lo, ho, wo, channel_major):
    """_gather_cols of NCHW x read as the model passes it, against the loop."""
    xc = np.ascontiguousarray(x.transpose(1, 0, 2, 3)) if channel_major \
        else x.transpose(1, 0, 2, 3)
    cols = T._gather_cols(xc, k, s, lo, ho, wo)
    assert cols.shape == (x.shape[1] * k * k, x.shape[0] * ho * wo)
    assert cols.flags.c_contiguous and cols.dtype == np.float32
    assert np.array_equal(cols, _cols_loop(x, k, s, lo, ho, wo))


def _conv_case(case, channel_major):
    n, c, h, w, k, s, p = case
    rng = np.random.default_rng(41)
    x = rng.normal(size=(n, c, h, w)).astype(np.float32)
    _check(x, k, s, p, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1,
           channel_major)


@pytest.mark.parametrize("case", GATHER_CASES, ids=lambda c: "x".join(map(str, c)))
def test_gather_cols_matches_the_loop_layout(case):
    _conv_case(case, True)


@pytest.mark.parametrize("case", GATHER_CASES, ids=lambda c: "x".join(map(str, c)))
def test_gather_cols_reads_an_nchw_array_too(case):
    _conv_case(case, False)


@pytest.mark.parametrize("case", PHASE_CASES, ids=lambda c: "x".join(map(str, c)))
def test_gather_cols_reads_zeros_off_the_grid(case):
    n, c, h, w, k, s, lo, ho, wo = case
    rng = np.random.default_rng(42)
    _check(rng.normal(size=(n, c, h, w)).astype(np.float32), k, s, lo, ho, wo,
           True)


# ---- STFT framing ---------------------------------------------------------------

def _mel_by_index_gather(wave, cfg):
    """The front end as it was written before strided framing."""
    win, hop, nfft = cfg.window_samples, cfg.hop_samples, cfg.effective_fft_size
    n_frames = 1 + (len(wave) - win) // hop
    idx = np.arange(n_frames)[:, None] * hop + np.arange(win)[None, :]
    frames = wave.samples[idx] * dsp.hann_window(win)[None, :]
    spec = np.abs(np.fft.rfft(frames, n=nfft, axis=1)).T
    fb = dsp.mel_filterbank(cfg.n_mels, nfft, cfg.sample_rate, cfg.f_min,
                            cfg.effective_f_max)
    m = np.log(fb.weights @ spec + dsp.LOG_EPS)
    mu, sd = float(np.mean(m)), float(np.std(m))
    m = np.zeros_like(m) if sd < 1e-12 else (m - mu) / sd
    return dsp._fit_time_extent(m, cfg.target_frames).astype(np.float32)


@pytest.mark.parametrize("hop_ms", [10.0, 7.5, 12.3, 3.1])
@pytest.mark.parametrize("fft_size", [None, 1024])
def test_mel_features_bytes_equal_the_index_gather_formula(hop_ms, fft_size):
    cfg = FrontendConfig(hop_ms=hop_ms, fft_size=fft_size, n_mels=40)
    rng = np.random.default_rng(43)
    for n in (1200, 1599, 16000, 16001, 23456):
        wave = Waveform(rng.uniform(-1.0, 1.0, n))
        got = mel_features(wave, cfg)
        assert got.tobytes() == _mel_by_index_gather(wave, cfg).tobytes(), n
    silent = Waveform(np.zeros(8000))
    assert mel_features(silent, cfg).tobytes() == \
        _mel_by_index_gather(silent, cfg).tobytes()


def test_cached_hann_window_is_read_only():
    cfg = FrontendConfig()
    w = cfg.framing[0]
    assert cfg.framing[0] is w
    assert np.array_equal(w, dsp.hann_window(400))
    with pytest.raises(ValueError):
        w[0] = 1.0
