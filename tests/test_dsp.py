"""Windowing, STFT, mel conversion, and the feature pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofvae.dsp import (FrontendConfig, Waveform, hann_window, hz_to_mel,
                          mel_filterbank, mel_features, mel_spectrogram,
                          stft_magnitude)
from spoofvae.errors import ContractError, DimensionError, InputError


def mel_to_hz(m):
    """Inverse of hz_to_mel: 700*(10**(m/2595) - 1)."""
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0)
                    - 1.0)


def mel_edges(n_mels, f_min, f_max):
    """The n_mels + 2 equally spaced mel points mel_filterbank's triangles
    stand on."""
    return np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2)


def sine(freq, seconds=1.0, sr=16000, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


class TestHannWindow:
    def test_length_three(self):
        assert np.allclose(hann_window(3), [0.0, 1.0, 0.0])

    def test_length_four(self):
        assert np.allclose(hann_window(4), [0.0, 0.75, 0.75, 0.0])

    def test_symmetry_and_bound(self):
        for n in (5, 8, 400):
            w = hann_window(n)
            assert np.allclose(w, w[::-1])
            assert w.max() <= 1.0
            assert w[0] == 0.0 and w[-1] == 0.0

    def test_too_short(self):
        with pytest.raises(ContractError):
            hann_window(1)


class TestStft:
    def test_frame_count_for_one_second(self):
        cfg = FrontendConfig()
        assert cfg.window_samples == 400
        assert cfg.hop_samples == 160
        assert cfg.effective_fft_size == 512
        spec = stft_magnitude(sine(440.0), cfg)
        assert spec.shape == (257, 98)

    def test_zero_signal_gives_zero_spectrogram(self):
        w = Waveform(np.zeros(8000), 16000)
        spec = stft_magnitude(w, FrontendConfig())
        assert not np.any(spec)

    def test_non_negative(self):
        spec = stft_magnitude(sine(1234.5), FrontendConfig())
        assert np.all(spec >= 0)

    def test_sinusoid_at_bin_center_peaks_there(self):
        cfg = FrontendConfig()
        # bin 32 of a 512-point transform at 16 kHz sits at exactly 1000 Hz
        spec = stft_magnitude(sine(1000.0), cfg)
        assert 32 * cfg.sample_rate / cfg.effective_fft_size == 1000.0
        assert np.all(np.argmax(spec, axis=0) == 32)

    def test_matches_naive_dft(self):
        # independent O(n^2) DFT of each windowed frame
        rng = np.random.default_rng(0)
        cfg = FrontendConfig(window_ms=4.0, hop_ms=2.0)  # win=64, fft=64
        x = rng.uniform(-0.9, 0.9, size=300)
        spec = stft_magnitude(Waveform(x, 16000), cfg)
        win, hop, nfft = cfg.window_samples, cfg.hop_samples, 64
        w = hann_window(win)
        k = np.arange(nfft // 2 + 1)
        n = np.arange(nfft)
        basis = np.exp(-2j * np.pi * np.outer(k, n) / nfft)
        for f in range(spec.shape[1]):
            frame = np.zeros(nfft)
            frame[:win] = x[f * hop:f * hop + win] * w
            naive = np.abs(basis @ frame)
            denom = np.maximum(np.abs(naive), 1e-6)
            assert np.max(np.abs(spec[:, f] - naive) / denom) < 1e-4

    def test_short_signal_rejected(self):
        with pytest.raises(InputError):
            stft_magnitude(Waveform(np.zeros(100), 16000), FrontendConfig())

    def test_sample_rate_mismatch_rejected(self):
        with pytest.raises(InputError):
            stft_magnitude(Waveform(np.zeros(22050), 22050), FrontendConfig())

    @given(n=st.integers(500, 4000), win_ms=st.sampled_from([10.0, 20.0, 25.0]),
           hop_ms=st.sampled_from([5.0, 10.0, 12.5]))
    @settings(max_examples=25, deadline=None)
    def test_frame_count_formula(self, n, win_ms, hop_ms):
        cfg = FrontendConfig(window_ms=win_ms, hop_ms=hop_ms)
        win, hop = cfg.window_samples, cfg.hop_samples
        if n < win:
            return
        spec = stft_magnitude(Waveform(np.zeros(n), 16000), cfg)
        assert spec.shape[1] == 1 + (n - win) // hop


class TestMelScale:
    def test_zero(self):
        assert hz_to_mel(0.0) == 0.0

    def test_reference_points_match_formula(self):
        for f in (0.0, 700.0, 8000.0):
            direct = 2595.0 * np.log10(1.0 + f / 700.0)
            got = hz_to_mel(f)
            assert got == pytest.approx(direct, rel=1e-6, abs=1e-12)

    def test_700_hz_value(self):
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0), rel=1e-12)

    def test_8000_hz_value(self):
        assert hz_to_mel(8000.0) == pytest.approx(2840.0, abs=0.05)

    def test_monotone(self):
        f = np.linspace(0, 8000, 500)
        m = hz_to_mel(f)
        assert np.all(np.diff(m) > 0)

    def test_round_trip(self):
        f = np.array([0.0, 120.0, 700.0, 3400.0, 8000.0])
        assert np.allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-10, atol=1e-8)

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            hz_to_mel(-1.0)


class TestMelFilterbank:
    def test_two_filter_edges(self):
        edges = mel_edges(2, 0.0, 8000.0)
        want = [0.0, 946.68, 1893.36, 2840.03]
        assert np.allclose(edges, want, atol=0.05)
        hz = mel_to_hz(edges)
        assert hz[0] == 0.0
        assert hz[-1] == pytest.approx(8000.0, rel=1e-12)

    def test_every_filter_has_support(self):
        fb = mel_filterbank(80, 512, 16000)
        assert fb.shape == (80, 257)
        assert fb.dtype == np.float64
        assert np.all(fb.max(axis=1) > 0)
        assert np.all(fb >= 0)

    def test_zero_outside_edge_span(self):
        fb = mel_filterbank(6, 512, 16000, 0.0, 8000.0)
        edges = mel_edges(6, 0.0, 8000.0)
        bin_mel = hz_to_mel(np.arange(257) * 16000 / 512)
        for m in range(6):
            outside = (bin_mel <= edges[m]) | (bin_mel >= edges[m + 2])
            assert not np.any(fb[m][outside] > 0)

    def test_triangles_match_their_edges(self):
        # each filter peaks at 1 on its centre edge and is linear in mel
        # between its edges, drawn here from the edges in one broadcast
        edges = mel_edges(10, 300.0, 7000.0)
        bin_mel = hz_to_mel(np.arange(257) * 16000 / 512)[None, :]
        lo, mid, hi = (edges[k:k + 10, None] for k in range(3))
        want = np.clip(np.minimum((bin_mel - lo) / (mid - lo),
                                  (hi - bin_mel) / (hi - mid)), 0.0, None)
        got = mel_filterbank(10, 512, 16000, 300.0, 7000.0)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_too_many_filters_rejected(self):
        # 512 mel bands cannot all be supported by 33 spectral bins
        with pytest.raises(ContractError):
            mel_filterbank(512, 64, 16000)

    def test_bad_range_rejected(self):
        with pytest.raises(ContractError):
            mel_filterbank(10, 512, 16000, 4000.0, 2000.0)
        with pytest.raises(ContractError):
            mel_filterbank(10, 512, 16000, 0.0, 9000.0)


class TestMelSpectrogram:
    def test_zero_spectrogram_normalizes_to_zeros(self):
        fb = mel_filterbank(80, 512, 16000)
        out = mel_spectrogram(np.zeros((257, 50)), fb, 96)
        assert out.shape == (80, 96)
        assert out.dtype == np.float32
        assert not np.any(out)

    def test_one_hot_filterbank_is_log_passthrough(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0.1, 2.0, size=(5, 7))
        out = mel_spectrogram(vals, np.eye(5)[[4, 3, 2, 1, 0]], 7)
        raw = np.log(vals[[4, 3, 2, 1, 0]] + 1e-6)
        want = (raw - raw.mean()) / raw.std()
        assert np.allclose(out, want, atol=1e-6)

    def test_output_extent_fixed_regardless_of_length(self):
        cfg = FrontendConfig()
        for seconds in (0.5, 1.0, 2.3):
            feats = mel_features(sine(300.0, seconds=seconds), cfg)
            assert feats.shape == (80, 96)
            assert feats.dtype == np.float32

    def test_center_crop_keeps_middle(self):
        m = np.arange(2 * 10, dtype=np.float64).reshape(2, 10)
        out = mel_spectrogram(np.exp(m) - 1e-6, np.eye(2), 4)
        # columns 3..6 of the standardized matrix survive
        full = (m - m.mean()) / m.std()
        assert np.allclose(out, full[:, 3:7], atol=1e-6)

    def test_config_filterbank_is_read_only_and_built_once(self):
        cfg = FrontendConfig(n_mels=40)
        fb = cfg.filterbank()
        assert not fb.flags.writeable
        assert cfg.filterbank() is fb
        assert fb.tobytes() == mel_filterbank(40, 512, 16000).tobytes()
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0

    def test_bin_mismatch_rejected(self):
        fb = mel_filterbank(10, 512, 16000)
        with pytest.raises(DimensionError):
            mel_spectrogram(np.zeros((100, 5)), fb, 96)

    def test_deterministic(self):
        w = sine(777.0)
        a = mel_features(w, FrontendConfig())
        b = mel_features(Waveform(w.samples.copy(), 16000), FrontendConfig())
        assert a.tobytes() == b.tobytes()


class TestWaveformValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            Waveform(np.array([0.0, np.nan]), 16000)

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            Waveform(np.array([0.0, 1.5]), 16000)

    def test_bad_rate_rejected(self):
        with pytest.raises(InputError):
            Waveform(np.zeros(10), 0)
