"""WAV parsing, manifests, the toy generator, and PGM export."""

import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from spoofvae import cli, data
from spoofvae.data import (BONAFIDE_ID, FAMILY_SYNTHS, ManifestRecord,
                           ToyConfig, export_pgm, generate_toy_dataset,
                           load_wav, parse_manifest, write_manifest, write_wav)
from spoofvae.errors import ContractError, FormatError, InputError

from conftest import read_pgm
from test_cli import run


def make_wav_bytes(body: bytes, audio_format=1, channels=1, rate=16000,
                   bits=16) -> bytes:
    """Hand-rolled RIFF container so malformed variants are easy to craft."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate, rate * block,
                      block, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(body)) + body
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestWav:
    def test_full_scale_values(self, tmp_path):
        path = tmp_path / "fs.wav"
        body = struct.pack("<3h", 32767, -32768, 0)
        path.write_bytes(make_wav_bytes(body))
        wave = load_wav(path)
        assert wave.sample_rate == 16000
        # 32767/32768 = 0.999969482421875 exactly
        assert wave.samples[0] == 32767 / 32768
        assert wave.samples[1] == -1.0
        assert wave.samples[2] == 0.0

    def test_write_read_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, 777)
        path = tmp_path / "rt.wav"
        write_wav(path, x, 8000)
        wave = load_wav(path)
        assert wave.sample_rate == 8000
        want = np.clip(np.rint(x * 32768.0), -32768, 32767) / 32768.0
        assert np.array_equal(wave.samples, want)

    def test_rewrite_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.wav"
        b = tmp_path / "b.wav"
        write_wav(a, np.linspace(-1, 1, 500), 16000)
        write_wav(b, load_wav(a).samples, 16000)
        assert a.read_bytes() == b.read_bytes()

    def test_clipping_guard(self, tmp_path):
        path = tmp_path / "clip.wav"
        write_wav(path, np.array([2.0, -2.0, 1.0]), 16000)
        wave = load_wav(path)
        assert wave.samples[0] == 32767 / 32768
        assert wave.samples[1] == -1.0
        assert wave.samples[2] == 32767 / 32768  # 1.0*32768 clips to 32767

    def test_eight_bit_rejected(self, tmp_path):
        path = tmp_path / "8bit.wav"
        path.write_bytes(make_wav_bytes(b"\x80\x80", bits=8))
        with pytest.raises(FormatError, match="8 bits"):
            load_wav(path)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        path.write_bytes(make_wav_bytes(struct.pack("<4h", 0, 0, 0, 0),
                                        channels=2))
        with pytest.raises(FormatError, match="channel count 2"):
            load_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "float.wav"
        path.write_bytes(make_wav_bytes(b"\x00" * 8, audio_format=3))
        with pytest.raises(FormatError, match="encoding 3"):
            load_wav(path)

    def test_non_riff_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(FormatError, match="RIFF"):
            load_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        buf = b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt)) + b"WAVE" + \
            b"fmt " + struct.pack("<I", len(fmt)) + fmt
        path = tmp_path / "nodata.wav"
        path.write_bytes(buf)
        with pytest.raises(FormatError, match="data"):
            load_wav(path)

    def test_overlong_chunk_rejected(self, tmp_path):
        path = tmp_path / "lie.wav"
        good = make_wav_bytes(struct.pack("<2h", 1, 2))
        # inflate the data chunk's declared size beyond the file
        bad = good.replace(b"data" + struct.pack("<I", 4),
                           b"data" + struct.pack("<I", 4000))
        path.write_bytes(bad)
        with pytest.raises(FormatError, match="claims"):
            load_wav(path)

    def test_large_non_riff_file_is_refused_unread(self, tmp_path):
        path = tmp_path / "zeros.wav"
        with open(path, "wb") as fh:
            fh.truncate(16 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="missing RIFF chunk at byte 0"):
                load_wav(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"traced peak {peak} bytes for a 16 MB file"

    def test_data_chunk_over_the_clip_bound_is_refused_unread(self, tmp_path):
        path = tmp_path / "long.wav"
        size = 2 * (data.MAX_CLIP_SAMPLES + 1)
        head = make_wav_bytes(b"")
        head = head.replace(b"data" + struct.pack("<I", 0),
                            b"data" + struct.pack("<I", size))
        with open(path, "wb") as fh:
            fh.write(head)
            fh.truncate(len(head) + size)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"holds {size // 2} samples, "
                               f"over {data.MAX_CLIP_SAMPLES}"):
                load_wav(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"traced peak {peak} bytes for an 8 MB chunk"

    def test_chunks_after_data_are_walked(self, tmp_path):
        path = tmp_path / "tail.wav"
        good = make_wav_bytes(struct.pack("<2h", 1, 2)) + b"LIST" + \
            struct.pack("<I", 3) + b"abc\x00"
        path.write_bytes(good[:4] + struct.pack("<I", len(good) - 8) + good[8:])
        assert load_wav(path).samples.tolist() == [1 / 32768, 2 / 32768]
        path.write_bytes(good[:-2])  # the pad byte and the body's last
        with pytest.raises(FormatError, match="chunk b'LIST' claims 3 bytes"):
            load_wav(path)


class TestManifest:
    def test_happy_path_and_relative_resolution(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        man = sub / "manifest.csv"
        man.write_text("path,label,synthesizer_id,split\n"
                       "wavs/a.wav,bonafide,bonafide,train\n"
                       "wavs/b.wav,synthetic,G01,eval\n")
        recs = parse_manifest(man)
        assert len(recs) == 2
        assert recs[0].path == str(sub / "wavs" / "a.wav")
        assert recs[0].clip_id == "a"
        assert recs[1].synthesizer_id == "G01"

    def test_unknown_label_names_line(self, tmp_path):
        man = tmp_path / "m.csv"
        man.write_text("path,label,synthesizer_id,split\n"
                       "a.wav,real,x,train\n")
        with pytest.raises(InputError, match="line 2"):
            parse_manifest(man)

    def test_unknown_split_names_line(self, tmp_path):
        man = tmp_path / "m.csv"
        man.write_text("path,label,synthesizer_id,split\n"
                       "a.wav,bonafide,bonafide,train\n"
                       "b.wav,synthetic,G01,test\n")
        with pytest.raises(InputError, match="line 3"):
            parse_manifest(man)

    def test_missing_column_rejected(self, tmp_path):
        man = tmp_path / "m.csv"
        man.write_text("path,label,synthesizer_id,split\n"
                       "a.wav,bonafide,bonafide\n")
        with pytest.raises(InputError, match="line 2.*4 columns"):
            parse_manifest(man)

    def test_wrong_header_rejected(self, tmp_path):
        man = tmp_path / "m.csv"
        man.write_text("file,label,synth,split\n")
        with pytest.raises(InputError, match="line 1"):
            parse_manifest(man)

    def test_header_only_is_empty(self, tmp_path):
        man = tmp_path / "m.csv"
        man.write_text("path,label,synthesizer_id,split\n")
        assert parse_manifest(man) == []

    def test_bonafide_synth_id_invariant(self, tmp_path):
        man = tmp_path / "m.csv"
        man.write_text("path,label,synthesizer_id,split\n"
                       "a.wav,bonafide,G01,train\n")
        with pytest.raises(InputError, match="bonafide"):
            parse_manifest(man)
        with pytest.raises(InputError):
            ManifestRecord(path="a", label="bonafide", synthesizer_id="G01",
                           split="train")

    def test_write_parse_round_trip(self, tmp_path):
        recs = [ManifestRecord(path=str(tmp_path / "w" / "a.wav"),
                               label="bonafide", synthesizer_id=BONAFIDE_ID,
                               split="train"),
                ManifestRecord(path="/elsewhere/b.wav", label="synthetic",
                               synthesizer_id="G02", split="eval")]
        man = tmp_path / "m.csv"
        write_manifest(recs, man)
        text = man.read_text()
        assert "w/a.wav" in text  # relativized under the manifest dir
        assert "/elsewhere/b.wav" in text  # outside paths stay absolute
        assert parse_manifest(man) == recs


class TestToyConfig:
    def test_round_trip(self):
        cfg = ToyConfig(clips_train=3, families=("G02", "G01"),
                        holdout_family="G01", imbalance=2.0, seed=9)
        assert ToyConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="unknown"):
            ToyConfig.from_dict({"clips": 5})

    def test_unknown_family_rejected(self):
        with pytest.raises(InputError, match="G99"):
            ToyConfig(families=("G01", "G99"))

    def test_holdout_defaults_to_last(self):
        assert ToyConfig().effective_holdout == "G03"
        assert ToyConfig(holdout_family="G01").effective_holdout == "G01"

    def test_holdout_must_be_listed(self):
        with pytest.raises(InputError, match="holdout"):
            ToyConfig(families=("G01", "G02"), holdout_family="G03")

    def test_single_family_needs_eval_only(self):
        with pytest.raises(InputError, match="non-holdout"):
            ToyConfig(families=("G01",))
        ToyConfig(families=("G01",), clips_train=0, clips_dev=0)  # allowed

    def test_one_sample_clips_and_the_largest_counts_are_allowed(self):
        assert ToyConfig(clip_seconds=1 / 16000).clip_samples == 1
        big = ToyConfig(clips_eval=data.MAX_TOY_CLIPS,
                        clip_seconds=data.MAX_CLIP_SAMPLES / 16000)
        assert big.clip_samples == data.MAX_CLIP_SAMPLES


# name -> ToyConfig JSON overrides past a bound, and what the error names.
# Each is only ever built, never generated.
TOO_BIG = {
    "clip_seconds": ({"clip_seconds": 1e308}, "clip_seconds"),
    "clip_seconds_nan": ({"clip_seconds": float("nan")}, "clip_seconds"),
    "no_samples": ({"clip_seconds": 1e-5}, "clip_seconds"),
    "clip_samples": ({"clip_seconds": 300.0}, "clip_seconds"),
    "sample_rate": ({"sample_rate": 8589934592}, "sample_rate"),
    "clips": ({"clips_eval": 10 ** 18}, "clips_eval"),
    "clips_one_over": ({"clips_dev": data.MAX_TOY_CLIPS + 1}, "clips_dev"),
    "synthetic": ({"clips_train": data.MAX_TOY_CLIPS, "imbalance": 1.5},
                  "clips_train"),
    "imbalance": ({"imbalance": 1e308}, "imbalance"),
    "imbalance_inf": ({"imbalance": float("inf")}, "imbalance"),
    "imbalance_nan": ({"imbalance": float("nan")}, "imbalance"),
}


@pytest.fixture
def no_generation(monkeypatch):
    """Fail a test that reaches the clip roster or the generator."""
    def reached(*args):
        raise AssertionError("a config past a bound reached generation")

    monkeypatch.setattr(data, "_roster", reached)
    monkeypatch.setattr(cli, "generate_toy_dataset", reached)


@pytest.mark.parametrize("name", TOO_BIG)
def test_a_toy_config_past_a_bound_exits_one_writing_nothing(name, tmp_path,
                                                             no_generation):
    overrides, field = TOO_BIG[name]
    with pytest.raises(InputError, match=f"^{field} must "):
        ToyConfig.from_dict({**ToyConfig().to_dict(), **overrides})
    config = tmp_path / "toy.json"
    config.write_text(json.dumps(overrides))
    out = tmp_path / "corpus"
    code, stdout, err = run(["gen-toy", "--config", str(config),
                             "--out", str(out)])
    assert code == 1 and stdout == ""
    assert err.startswith(f"error: {field} must "), err
    assert not out.exists()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("gen")
    cfg = ToyConfig(clips_train=6, clips_dev=3, clips_eval=6, seed=123)
    manifest = generate_toy_dataset(cfg, str(root))
    return cfg, manifest, parse_manifest(manifest)


class TestGeneration:
    def test_counts_per_split(self, corpus):
        cfg, _, recs = corpus
        for split, count in (("train", 6), ("dev", 3), ("eval", 6)):
            rows = [r for r in recs if r.split == split]
            assert sum(r.label == "bonafide" for r in rows) == count
            assert sum(r.label == "synthetic" for r in rows) == count

    def test_holdout_family_only_in_eval(self, corpus):
        cfg, _, recs = corpus
        hold = cfg.effective_holdout
        train_dev = {r.synthesizer_id for r in recs if r.split != "eval"}
        eval_ids = {r.synthesizer_id for r in recs if r.split == "eval"
                    and r.label == "synthetic"}
        assert hold not in train_dev
        assert hold in eval_ids

    def test_every_path_exists_and_loads(self, corpus):
        cfg, _, recs = corpus
        for rec in recs:
            wave = load_wav(rec.path)
            assert len(wave) == cfg.clip_samples
            assert wave.sample_rate == cfg.sample_rate

    def test_regeneration_is_byte_identical(self, corpus, tmp_path):
        cfg, manifest, recs = corpus
        manifest2 = generate_toy_dataset(cfg, str(tmp_path))
        recs2 = parse_manifest(manifest2)
        assert [os.path.basename(r.path) for r in recs] == \
            [os.path.basename(r.path) for r in recs2]
        with open(manifest, "rb") as a, open(manifest2, "rb") as b:
            assert a.read() == b.read()
        for r1, r2 in zip(recs, recs2):
            with open(r1.path, "rb") as a, open(r2.path, "rb") as b:
                assert a.read() == b.read()

    def test_different_seed_changes_audio(self, corpus, tmp_path):
        cfg, _, recs = corpus
        import dataclasses
        other = generate_toy_dataset(dataclasses.replace(cfg, seed=124),
                                     str(tmp_path))
        recs2 = parse_manifest(other)
        with open(recs[0].path, "rb") as a, open(recs2[0].path, "rb") as b:
            assert a.read() != b.read()

    def test_spectral_energy_oracle(self, corpus):
        """Mean energy above 3 kHz: < 5% for G01, > 15% for bona fide."""
        cfg, _, recs = corpus

        def frac_above(path):
            wave = load_wav(path)
            power = np.abs(np.fft.rfft(wave.samples)) ** 2
            freqs = np.arange(power.size) * wave.sample_rate / len(wave)
            return float(power[freqs >= 3000.0].sum() / power.sum())

        g01 = [frac_above(r.path) for r in recs if r.synthesizer_id == "G01"]
        bona = [frac_above(r.path) for r in recs if r.label == "bonafide"]
        assert g01 and bona
        assert np.mean(g01) < 0.05
        assert np.mean(bona) > 0.15

    def test_imbalance_knob(self, tmp_path):
        cfg = ToyConfig(clips_train=4, clips_dev=2, clips_eval=2,
                        imbalance=2.0, seed=5)
        recs = parse_manifest(generate_toy_dataset(cfg, str(tmp_path)))
        train = [r for r in recs if r.split == "train"]
        assert sum(r.label == "bonafide" for r in train) == 4
        assert sum(r.label == "synthetic" for r in train) == 8

    def test_family_registry(self):
        assert set(FAMILY_SYNTHS) == {"G01", "G02", "G03"}


class TestPgm:
    def test_hand_scaled_pixels(self, tmp_path):
        path = tmp_path / "m.pgm"
        export_pgm(np.array([[0.0, 1.0], [0.5, 0.25]]), path, "minmax")
        buf = path.read_bytes()
        assert buf.startswith(b"P5\n2 2\n255\n")
        # 127.5 rounds to 128 and 63.75 to 64 under nearest-even
        assert list(buf[len(b"P5\n2 2\n255\n"):]) == [0, 255, 128, 64]

    def test_constant_minmax_is_all_zero(self, tmp_path):
        path = tmp_path / "c.pgm"
        export_pgm(np.full((3, 4), 7.25), path, "minmax")
        assert np.array_equal(read_pgm(path), np.zeros((3, 4), dtype=np.uint8))

    def test_fixed_scaling_clamps(self, tmp_path):
        path = tmp_path / "f.pgm"
        export_pgm(np.array([[-1.0, 0.0, 0.5, 2.0]]), path,
                   ("fixed", 0.0, 1.0))
        assert list(read_pgm(path)[0]) == [0, 0, 128, 255]

    def test_fixed_degenerate_range_rejected(self, tmp_path):
        with pytest.raises(ContractError, match="lo != hi"):
            export_pgm(np.ones((2, 2)), tmp_path / "x.pgm",
                       ("fixed", 1.0, 1.0))

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ContractError, match="finite"):
            export_pgm(np.array([[np.nan, 1.0]]), tmp_path / "x.pgm")

    def test_round_trip_dimensions(self, tmp_path):
        path = tmp_path / "r.pgm"
        mat = np.arange(35, dtype=np.float64).reshape(5, 7)
        export_pgm(mat, path, "minmax")
        img = read_pgm(path)
        assert img.shape == (5, 7)
        assert img[0, 0] == 0 and img[-1, -1] == 255
