"""WAV ingestion, dataset manifests, the toy-corpus generator, PGM export.

The toy corpus stands in for a real anti-spoofing dataset: every clip is a
harmonic "voice" with vibrato over a broadband noise floor, and each
synthetic family stamps a distinct artifact on top (hard low-pass,
frame-repeat buzz, or a high-frequency tone).  One family can be held out
of the training and dev splits so the eval split probes an unseen
generator.  Generation is a pure function of the config: every clip's
random stream is spawned from (master seed, roster index), so output bytes
are reproducible clip by clip.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import shares
from .config import SEED, JsonConfig, bounded
from .dsp import MAX_SAMPLE_RATE, Waveform
from .errors import ContractError, FormatError, InputError
from .rng import Stream

LABELS = ("bonafide", "synthetic")
SPLITS = ("train", "dev", "eval")
BONAFIDE_ID = "bonafide"
MANIFEST_COLUMNS = ("path", "label", "synthesizer_id", "split")


# ---- WAV --------------------------------------------------------------------

# the longest clip load_wav reads and ToyConfig writes, so that no file or
# setting asks for a clip past the memory of a machine
MAX_CLIP_SAMPLES = 1 << 22  # 262 s at 16 kHz; 32 MB a float64 array
# load_wav's first read: a 44-byte header and 2 s of 16 kHz samples
READ_AHEAD = 1 << 16
_CHUNK_HEADER = struct.Struct("<4sI")
_FMT_FIELDS = struct.Struct("<HHIIHH")


def _open_without_waiting(path, flags: int) -> int:
    """os.open for open(): O_NONBLOCK returns at once from a FIFO that has
    no writer, and a regular file ignores it."""
    return os.open(path, flags | getattr(os, "O_NONBLOCK", 0))


def load_wav(path) -> Waveform:
    """Read a mono PCM-16 RIFF/WAVE file; samples are scaled by 1/32768.

    The file is opened without waiting for a writer, and its size comes
    first, from one seek, so a FIFO fails at once with an OSError instead
    of blocking.  One read of its first READ_AHEAD bytes then holds the
    RIFF header, every chunk header and a short clip's data; a header or
    body past them gets a seek and a read of its own.  Only the 'fmt '
    fields and the 'data' chunk are read, and 'data' may hold at most
    MAX_CLIP_SAMPLES samples, so a read costs at most that clip's memory,
    whatever the file's size.  The last chunk of each id wins.
    """
    try:
        fh = open(path, "rb", opener=_open_without_waiting)
    except ValueError as exc:  # a NUL byte in the path
        raise InputError(f"{path!r}: {exc}") from exc
    with fh:
        end = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        head = fh.read(min(end, READ_AHEAD))

        def body(at, size):
            if at + size <= len(head):
                return memoryview(head)[at:at + size]
            fh.seek(at)
            return fh.read(size)

        if len(head) < 12 or head[:4] != b"RIFF":
            raise FormatError(f"{path}: missing RIFF chunk at byte 0")
        if head[8:12] != b"WAVE":
            raise FormatError(f"{path}: RIFF form type is {head[8:12]!r}, not b'WAVE'")
        chunks = {}  # b"fmt " and b"data" -> (offset of the body, size)
        offset = 12
        while offset + 8 <= end:
            cid, size = _CHUNK_HEADER.unpack(body(offset, 8))
            if offset + 8 + size > end:
                raise FormatError(
                    f"{path}: chunk {cid!r} claims {size} bytes at byte {offset}, "
                    f"file ends at byte {end}")
            if cid in (b"fmt ", b"data"):
                chunks[cid] = (offset + 8, size)
            offset += 8 + size + (size & 1)  # chunks are word-aligned
        if b"fmt " not in chunks:
            raise FormatError(f"{path}: no 'fmt ' chunk found")
        if b"data" not in chunks:
            raise FormatError(f"{path}: no 'data' chunk found")
        at, size = chunks[b"fmt "]
        if size < 16:
            raise FormatError(f"{path}: 'fmt ' chunk too short ({size} bytes)")
        audio_format, channels, sample_rate, _, _, bits = _FMT_FIELDS.unpack(
            body(at, 16))
        if audio_format != 1:
            raise FormatError(
                f"{path}: unsupported encoding {audio_format} in 'fmt ' chunk "
                f"(only PCM = 1)")
        if channels != 1:
            raise FormatError(
                f"{path}: unsupported channel count {channels} in 'fmt ' chunk "
                f"(only mono)")
        if bits != 16:
            raise FormatError(
                f"{path}: unsupported sample width {bits} bits in 'fmt ' chunk "
                f"(only 16)")
        at, size = chunks[b"data"]
        if size // 2 > MAX_CLIP_SAMPLES:
            raise FormatError(
                f"{path}: 'data' chunk holds {size // 2} samples, over "
                f"{MAX_CLIP_SAMPLES}")
        samples = np.frombuffer(body(at, size - (size & 1)), dtype="<i2")
    # 2**-15 scales exactly, as dividing by 32768 does, in one pass
    return Waveform(samples=np.multiply(samples, 2.0 ** -15, dtype=np.float64),
                    sample_rate=int(sample_rate))


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono PCM-16; values are quantized exactly once, right here."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"write_wav needs a 1-d signal, got shape {x.shape}")
    q = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2")
    body = q.tobytes()
    with open(path, "wb") as fh:
        fh.write(b"RIFF")
        fh.write(struct.pack("<I", 36 + len(body)))
        fh.write(b"WAVEfmt ")
        fh.write(struct.pack("<IHHIIHH", 16, 1, 1, sample_rate,
                             sample_rate * 2, 2, 16))
        fh.write(b"data")
        fh.write(struct.pack("<I", len(body)))
        fh.write(body)


# ---- manifests --------------------------------------------------------------

@dataclass(frozen=True)
class ManifestRecord:
    """One dataset row; path is absolute after parsing."""

    path: str
    label: str
    synthesizer_id: str
    split: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise InputError(f"label must be one of {LABELS}, got {self.label!r}")
        if self.split not in SPLITS:
            raise InputError(f"split must be one of {SPLITS}, got {self.split!r}")
        if self.label == "bonafide" and self.synthesizer_id != BONAFIDE_ID:
            raise InputError(
                f"bonafide rows must use synthesizer_id {BONAFIDE_ID!r}, "
                f"got {self.synthesizer_id!r}")

    @property
    def clip_id(self) -> str:
        return os.path.splitext(os.path.basename(self.path))[0]


def _csv_rows(fh, path):
    """CSV rows; one the csv module rejects (a field over its size limit,
    or before Python 3.11 a NUL byte) is bad input naming its line, and so
    is a file that is not UTF-8 text."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise InputError(f"{path}: not UTF-8 text: byte 0x{byte:02x} "
                         f"({exc.reason})") from exc


def parse_manifest(path) -> list:
    """Read a UTF-8 manifest CSV (a leading byte-order mark is skipped);
    relative clip paths resolve against its directory."""
    base = os.path.dirname(os.path.abspath(path))
    records = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty manifest, expected header row")
        if tuple(header) != MANIFEST_COLUMNS:
            raise InputError(
                f"{path}: line 1: header must be {','.join(MANIFEST_COLUMNS)}, "
                f"got {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise InputError(
                    f"{path}: line {lineno}: expected 4 columns, got {len(row)}")
            clip, label, synth, split = (c.strip() for c in row)
            try:
                rec = ManifestRecord(
                    path=clip if os.path.isabs(clip) else os.path.join(base, clip),
                    label=label, synthesizer_id=synth, split=split)
            except InputError as exc:
                raise InputError(f"{path}: line {lineno}: {exc}") from exc
            records.append(rec)
    return records


def write_manifest(records, path) -> None:
    """Write records as CSV; paths under the manifest dir become relative."""
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        for rec in records:
            clip = rec.path
            if os.path.isabs(clip):
                try:
                    rel = os.path.relpath(clip, base)
                except ValueError:
                    rel = clip
                if not rel.startswith(".."):
                    clip = rel
            writer.writerow([clip, rec.label, rec.synthesizer_id, rec.split])


# ---- toy corpus -------------------------------------------------------------

# the largest corpus ToyConfig accepts, so that no setting asks for a roster
# or a clip past the memory of a machine before either is built
MAX_TOY_CLIPS = 1 << 20  # of one class in one split

@dataclass(frozen=True)
class ToyConfig(JsonConfig):
    """Everything that determines the generated corpus, bytes included.

    Counts are clips per class per split; the synthetic side is scaled by
    `imbalance` (synthetic = round(count * imbalance)).  `holdout_family`
    appears only in the eval split; None means the last family listed.
    """

    clips_train: int = bounded(200, 0, MAX_TOY_CLIPS)
    clips_dev: int = bounded(50, 0, MAX_TOY_CLIPS)
    clips_eval: int = bounded(100, 0, MAX_TOY_CLIPS)
    clip_seconds: float = 1.0
    sample_rate: int = bounded(16000, 1, MAX_SAMPLE_RATE)
    families: tuple[str, ...] = ("G01", "G02", "G03")
    holdout_family: str | None = None
    imbalance: float = bounded(1.0, 0, MAX_TOY_CLIPS, open_lo=True)
    seed: int = bounded(0, SEED)

    def __post_init__(self):
        super().__post_init__()  # so no NaN or huge number reaches a product
        for name in ("clips_train", "clips_dev", "clips_eval"):
            count = getattr(self, name)
            if count * self.imbalance > MAX_TOY_CLIPS:
                raise InputError(
                    f"{name} must give 0 to {MAX_TOY_CLIPS} clips of each "
                    f"class, got {count} at imbalance {self.imbalance}")
        if not 1 <= self.clip_seconds * self.sample_rate <= MAX_CLIP_SAMPLES:
            raise InputError(f"clip_seconds must give 1 to {MAX_CLIP_SAMPLES} "
                             f"samples, got {self.clip_seconds} s at "
                             f"{self.sample_rate} Hz")
        if not self.families:
            raise InputError("at least one synthetic family is required")
        unknown = [f for f in self.families if f not in FAMILY_SYNTHS]
        if unknown:
            raise InputError(
                f"unknown families {unknown}; available: {sorted(FAMILY_SYNTHS)}")
        if len(set(self.families)) != len(self.families):
            raise InputError("duplicate family ids")
        hold = self.effective_holdout
        if hold not in self.families:
            raise InputError(
                f"holdout_family {hold!r} not in families {self.families}")
        if len(self.families) < 2 and (self.clips_train or self.clips_dev):
            raise InputError(
                "train/dev need at least one non-holdout synthetic family")

    @property
    def effective_holdout(self) -> str:
        return self.families[-1] if self.holdout_family is None else self.holdout_family

    @property
    def clip_samples(self) -> int:
        return int(round(self.clip_seconds * self.sample_rate))


def _voice_base(stream: Stream, n: int, sample_rate: int) -> np.ndarray:
    """Harmonic stack with vibrato over a breathing pink+white noise floor.

    The floor level drifts slowly (log-normal AM band-limited to 4..20 Hz)
    and its overall RMS is drawn per clip, so a detector cannot key on how
    bright or dark the floor is, only on how it moves.  Every artifact
    family freezes or compresses that motion in its own way, which is the
    regularity that carries over to generator families absent from train.
    """
    t = np.arange(n, dtype=np.float64) / sample_rate
    f0 = stream.uniform(100.0, 300.0)
    n_harm = int(stream.randint(3, 6))
    amps = stream.uniform(0.5, 1.0, (n_harm,)) / np.arange(1, n_harm + 1)
    phases = stream.uniform(0.0, 2.0 * np.pi, (n_harm,))
    depth = stream.uniform(0.02, 0.05)
    rate = stream.uniform(4.0, 7.0)
    # integral of f0*(1 + depth*sin(2 pi rate t)) gives the vibrato phase
    theta = 2.0 * np.pi * f0 * t - (f0 * depth / rate) * np.cos(2.0 * np.pi * rate * t)
    voice = np.zeros(n)
    for k in range(n_harm):
        voice += amps[k] * np.sin((k + 1) * theta + phases[k])
    voice *= 0.22 / max(float(np.sqrt(np.mean(voice ** 2))), 1e-12)

    white = stream.normal(shape=(n,))
    shaped = np.fft.rfft(stream.normal(shape=(n,)))
    freqs = np.arange(shaped.size) * sample_rate / n
    pink = np.fft.irfft(shaped / np.sqrt(np.maximum(freqs, 40.0)), n=n)
    noise = np.zeros(n)
    for part, power in ((pink, 0.4), (white, 0.6)):
        noise += np.sqrt(power) * part / max(float(np.sqrt(np.mean(part ** 2))), 1e-12)
    am_spec = np.fft.rfft(stream.normal(shape=(n,)))
    breathe = (freqs >= 4.0) & (freqs <= 20.0)
    drift = np.fft.irfft(np.where(breathe, am_spec, 0.0), n=n)
    drift /= max(float(np.std(drift)), 1e-12)
    noise *= np.exp(stream.uniform(0.4, 0.7) * drift)
    # floor RMS above 0.18 keeps >15% of every clip's energy above 3 kHz
    level = np.exp(stream.uniform(np.log(0.18), np.log(0.5)))
    noise *= level / max(float(np.sqrt(np.mean(noise ** 2))), 1e-12)
    return voice + noise


def _g01_lowpass(stream: Stream, x: np.ndarray, sample_rate: int) -> np.ndarray:
    """Hard FFT low-pass at 3 kHz; everything above is zeroed."""
    spec = np.fft.rfft(x)
    freqs = np.arange(spec.size) * sample_rate / x.size
    spec[freqs >= 3000.0] = 0.0
    return np.fft.irfft(spec, n=x.size)


def _g02_frame_repeat(stream: Stream, x: np.ndarray, sample_rate: int) -> np.ndarray:
    """Buzz from looping 160-sample blocks, each held 8 to 16 block periods.

    The buzz pitch is set by the block period (10 ms at 16 kHz); the hold
    count only varies how long each loop persists.
    """
    hop = 160
    repeat = 2 * int(stream.randint(4, 9))
    idx = np.arange(x.size)
    block = idx // hop
    src = (block // repeat) * repeat * hop + idx % hop
    return x[np.minimum(src, x.size - 1)]


def _g03_tone(stream: Stream, x: np.ndarray, sample_rate: int) -> np.ndarray:
    """Additive fixed 4 kHz tone, 2x to 4x the clip's RMS."""
    amp = stream.uniform(2.0, 4.0) * float(np.sqrt(np.mean(x ** 2)))
    t = np.arange(x.size, dtype=np.float64) / sample_rate
    return x + amp * np.sin(2.0 * np.pi * 4000.0 * t)


FAMILY_SYNTHS = {
    "G01": _g01_lowpass,
    "G02": _g02_frame_repeat,
    "G03": _g03_tone,
}


def _roster(cfg: ToyConfig) -> list:
    """Deterministic clip plan: (split, label, synthesizer_id, filename)."""
    rows = []
    counts = {"train": cfg.clips_train, "dev": cfg.clips_dev,
              "eval": cfg.clips_eval}
    hold = cfg.effective_holdout
    for split in SPLITS:
        n_bona = counts[split]
        n_syn = int(round(n_bona * cfg.imbalance))
        fams = list(cfg.families) if split == "eval" else \
            [f for f in cfg.families if f != hold]
        for i in range(n_bona):
            rows.append((split, "bonafide", BONAFIDE_ID,
                         f"{split}_bonafide_{i:04d}.wav"))
        for i in range(n_syn):
            fam = fams[i % len(fams)]
            rows.append((split, "synthetic", fam,
                         f"{split}_{fam}_{i:04d}.wav"))
    return rows


def generate_toy_dataset(cfg: ToyConfig, out_dir) -> str:
    """Write the toy corpus under out_dir; returns the manifest path.

    The clips are synthesized and written in shares (see shares.py); the
    manifest is written once every clip is.
    """
    wav_dir = os.path.abspath(os.path.join(out_dir, "wavs"))
    os.makedirs(wav_dir, exist_ok=True)
    master = Stream(cfg.seed)
    roster = _roster(cfg)
    paths = [os.path.join(wav_dir, fname) for *_, fname in roster]

    def share(start, stop):
        for index in range(start, stop):
            _, label, synth, _ = roster[index]
            stream = master.spawn(index)
            x = _voice_base(stream, cfg.clip_samples, cfg.sample_rate)
            if label == "synthetic":
                x = FAMILY_SYNTHS[synth](stream, x, cfg.sample_rate)
            x = x / max(1.0, float(np.max(np.abs(x))) / 0.95)
            write_wav(paths[index], x, cfg.sample_rate)

    shares.run(shares.bounds(len(roster)), share)
    records = [ManifestRecord(path=path, label=label, synthesizer_id=synth,
                              split=split)
               for (split, label, synth, _), path in zip(roster, paths)]
    manifest = os.path.abspath(os.path.join(out_dir, "manifest.csv"))
    write_manifest(records, manifest)
    return manifest


# ---- PGM export -------------------------------------------------------------

def export_pgm(matrix: np.ndarray, path, scaling="minmax") -> None:
    """Write a matrix as binary PGM (P5, maxval 255), rows as given.

    `scaling` is "minmax" or a ("fixed", lo, hi) tuple.  Values map through
    v -> rint(255*(v-lo)/(hi-lo)), clamped to [0, 255]; rounding is
    nearest-even.  Under minmax a constant matrix maps to all zeros; under
    fixed scaling lo == hi is a contract violation.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ContractError(f"export_pgm needs a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractError("export_pgm needs finite values")
    if scaling == "minmax":
        lo, hi = float(m.min()), float(m.max())
    elif isinstance(scaling, tuple) and len(scaling) == 3 and scaling[0] == "fixed":
        lo, hi = float(scaling[1]), float(scaling[2])
        if hi == lo:
            raise ContractError("fixed scaling requires lo != hi")
    else:
        raise ContractError(f"unknown scaling {scaling!r}")
    # hi - lo is 0 only for a constant minmax matrix, whose m - lo is all
    # zeros over any span
    scaled = np.clip(255.0 * (m - lo) / ((hi - lo) or 1.0), 0.0, 255.0)
    pixels = np.rint(scaled).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())

