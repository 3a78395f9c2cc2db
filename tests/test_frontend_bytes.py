"""The front end's bytes and the WAV reader's edge cases, pinned.

load_clip_features reads a clip with load_wav and featurizes it with
mel_features; a change to either that only removes copies, passes or
system calls must leave every feature byte, and every message of the
reader and of Waveform, as it was.  The clips come from the package's
counter streams and are quantized to 16 bits; the features go through
numpy's FFT and a float64 GEMM (the filterbank).  The sha256 pins held
with numpy 2's pocketfft under its AVX-512, AVX2 and baseline kernels and
under OpenBLAS's SkylakeX and Haswell ones.  A FIFO is an unreadable
clip, with a writer or without one: neither the open nor a read waits.
"""

import hashlib
import os
import struct
import threading

import numpy as np
import pytest

from spoofvae.data import ManifestRecord, load_wav, write_wav
from spoofvae.dsp import FrontendConfig, Waveform
from spoofvae.errors import FormatError, InputError
from spoofvae.evaluate import load_clip_features
from spoofvae.rng import Stream

RATE = 16000
FIRST_READ = 1 << 16  # load_wav's first read, in bytes

# name -> (frontend, clip seconds, sha256 of the clips' features in order)
GOLDEN = {
    "32x32": (
        FrontendConfig(n_mels=32, target_frames=32), 1.0,
        "1bf6541e452fd3596b0689e195e1f6d4c93607e779247462df45dee30bdbbc7b"),
    "80x96": (
        FrontendConfig(), 1.0,
        "b76b1d88bc1157ef03442c222d929917cff2be741f516f1a9fd7199856b0ba7f"),
    "fft_above_window": (
        FrontendConfig(fft_size=1024, n_mels=40), 1.0,
        "477ce49bba4ee24d9b564de42d0416a3da0636ab4f8610d3d13f7e68cff4c00d"),
    "fft_equal_to_window": (
        FrontendConfig(fft_size=400, n_mels=40), 1.0,
        "10cca67951c7c51709951353ec1a6aa179bf2931dd2545f47066bc17c7b3a0de"),
    # 0.3 s gives 28 frames, reflect-padded to 32
    "reflect_padded": (
        FrontendConfig(n_mels=32, target_frames=32), 0.3,
        "a2edd439ca68417f3f6965df38eb9c33e45b485f88ebcf9ed0fca0f60f70fa6f"),
}


def _clips(seconds):
    """A tone with vibrato over noise, noise alone, a full-scale square
    wave and silence, each a pure function of its stream index."""
    n = int(round(seconds * RATE))
    t = np.arange(n) / RATE
    voice = 0.4 * np.sin(2 * np.pi * 220.0 * t + 3.0 * np.sin(2 * np.pi * 5.0 * t))
    return [voice + 0.05 * Stream(7).spawn(0).normal(shape=(n,)),
            np.clip(0.3 * Stream(7).spawn(1).normal(shape=(n,)), -1.0, 1.0),
            np.sign(np.sin(2 * np.pi * 1000.0 * t)),
            np.zeros(n)]


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="the pins are numpy 2's pocketfft roundings")
@pytest.mark.parametrize("name", GOLDEN)
def test_load_clip_features_bytes_are_pinned(name, tmp_path):
    frontend, seconds, want = GOLDEN[name]
    digest = hashlib.sha256()
    for i, x in enumerate(_clips(seconds)):
        path = str(tmp_path / f"clip{i}.wav")
        write_wav(path, x, RATE)
        feats = load_clip_features(
            ManifestRecord(path, "bonafide", "bonafide", "eval"), frontend)
        assert feats.shape == (1, frontend.n_mels, frontend.target_frames)
        assert feats.dtype == np.float32
        digest.update(feats.tobytes())
    assert digest.hexdigest() == want


# ---- load_wav ------------------------------------------------------------------

def _chunk(cid: bytes, body: bytes, size=None) -> bytes:
    size = len(body) if size is None else size
    return struct.pack("<4sI", cid, size) + body + b"\0" * (len(body) & 1)


FMT = _chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, RATE, 2 * RATE, 2, 16))
PCM = np.arange(-300, 300, 7, dtype="<i2")


def _riff(*chunks) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _write(tmp_path, data: bytes) -> str:
    path = tmp_path / "clip.wav"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("name,chunks", [
    # the data chunk's header and body lie past the first read
    ("data_past_the_first_read",
     (FMT, _chunk(b"LIST", b"x" * 70000), _chunk(b"data", PCM.tobytes()))),
    ("fmt_after_data", (_chunk(b"data", PCM.tobytes()), FMT)),
    ("fmt_after_data_past_the_first_read",
     (_chunk(b"LIST", b"x" * 70000), _chunk(b"data", PCM.tobytes()), FMT)),
    ("odd_sized_chunk",
     (_chunk(b"LIST", b"abc"), FMT, _chunk(b"data", PCM.tobytes()))),
    ("odd_sized_data", (FMT, _chunk(b"data", PCM.tobytes() + b"\x7f"))),
    ("last_chunk_of_an_id_wins",
     (FMT, _chunk(b"data", b"\1\0" * 5), _chunk(b"data", PCM.tobytes()))),
])
def test_chunks_anywhere_give_the_same_samples(name, chunks, tmp_path):
    data = _riff(*chunks)
    assert (len(data) > FIRST_READ) == ("past_the_first_read" in name)
    wave = load_wav(_write(tmp_path, data))
    assert wave.sample_rate == RATE
    assert wave.samples.tobytes() == (PCM / 32768.0).tobytes()


def test_a_chunk_past_eof_names_its_claim(tmp_path):
    data = _riff(FMT, _chunk(b"data", PCM.tobytes(), size=len(PCM) * 2 + 4))
    path = _write(tmp_path, data)
    at = 12 + len(FMT)
    with pytest.raises(FormatError) as err:
        load_wav(path)
    assert str(err.value) == (
        f"{path}: chunk b'data' claims {len(PCM) * 2 + 4} bytes at byte {at}, "
        f"file ends at byte {len(data)}")


def test_a_chunk_past_eof_behind_the_first_read_names_its_claim(tmp_path):
    lst = _chunk(b"LIST", b"x" * 70000)
    data = _riff(FMT, lst, _chunk(b"data", b"", size=10))
    path = _write(tmp_path, data)
    with pytest.raises(FormatError) as err:
        load_wav(path)
    assert str(err.value) == (
        f"{path}: chunk b'data' claims 10 bytes at byte "
        f"{12 + len(FMT) + len(lst)}, file ends at byte {len(data)}")


def test_a_fifo_is_an_unreadable_clip_and_does_not_block(tmp_path):
    path = str(tmp_path / "clip.wav")
    os.mkfifo(path)
    # a writer that never closes, holding a whole RIFF header, so only a
    # read past it or to the end of the stream could block
    writer = os.open(path, os.O_RDWR | os.O_NONBLOCK)
    os.write(writer, _riff(FMT)[:12])
    raised = []
    reader = threading.Thread(target=lambda: raised.append(_raises(path)))
    try:
        reader.start()
        reader.join(10.0)
        assert not reader.is_alive(), "load_wav blocked on a FIFO"
    finally:
        os.close(writer)  # ends a read that blocked, so the thread ends
        reader.join()
    assert len(raised) == 1 and isinstance(raised[0], OSError), raised


def test_a_fifo_without_a_writer_does_not_block_the_open(tmp_path):
    path = str(tmp_path / "clip.wav")
    os.mkfifo(path)
    raised = []
    reader = threading.Thread(target=lambda: raised.append(_raises(path)))
    reader.start()
    reader.join(10.0)
    blocked = reader.is_alive()
    if blocked:  # a writer's open lets the reader's open return
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        reader.join()
    assert not blocked, "load_wav blocked opening a FIFO"
    assert len(raised) == 1 and isinstance(raised[0], OSError), raised


def _raises(path):
    try:
        load_wav(path)
    except Exception as exc:  # noqa: BLE001 - the test names the type
        return exc
    return None


# ---- Waveform -------------------------------------------------------------------

@pytest.mark.parametrize("samples,message", [
    ([0.0, np.nan], "waveform contains non-finite samples"),
    ([np.inf, 0.5], "waveform contains non-finite samples"),
    ([-np.inf], "waveform contains non-finite samples"),
    ([2.0, np.nan], "waveform contains non-finite samples"),
    ([0.5, 1.0 + 2e-9], "waveform samples exceed [-1, 1]"),
    ([-1.0 - 2e-9, 0.5], "waveform samples exceed [-1, 1]"),
])
def test_waveform_keeps_its_two_messages(samples, message):
    with pytest.raises(InputError) as err:
        Waveform(np.array(samples))
    assert str(err.value) == message


def test_waveform_takes_the_range_ends_and_no_samples():
    for samples in ([1.0 + 1e-9, -1.0 - 1e-9], []):
        assert len(Waveform(np.array(samples))) == len(samples)
