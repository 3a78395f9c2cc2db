"""End-to-end exercises of the command-line interface.

Every test drives main() in-process and checks exit codes, stdout payloads,
and the files left behind, mirroring how a shell user sees the tool.
"""

import contextlib
import io
import json
import os
import shutil
import struct

import pytest

import spoofvae.cli as cli
from spoofvae.checkpoint import _HEADER_AT, MAGIC, VERSION
from spoofvae.cli import main
from spoofvae.errors import ContractError

from conftest import read_pgm, tiny_stage1, tiny_stage2


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_config(path, cfg) -> str:
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, toy_corpus):
    """One full CLI run: train both stages, select, evaluate, infer."""
    root = tmp_path_factory.mktemp("cli")
    manifest = toy_corpus["manifest"]
    s1_cfg = write_config(root / "s1.json", tiny_stage1(max_iterations=8))
    s2_cfg = write_config(root / "s2.json", tiny_stage2(epochs=2))

    code, out, err = run(["train-stage1", "--config", s1_cfg,
                          "--manifest", manifest,
                          "--out", str(root / "ck1")])
    assert code == 0, err
    stage1_path = out.strip()

    code, out, err = run(["train-stage2", "--config", s2_cfg,
                          "--manifest", manifest,
                          "--stage1-checkpoint", stage1_path,
                          "--out", str(root / "ck2")])
    assert code == 0, err
    epoch_paths = out.strip().splitlines()

    code, out, err = run(["select-best", "--checkpoint", str(root / "ck2"),
                          "--out", str(root / "best")])
    assert code == 0, err
    best_path = out.strip()

    code, out, err = run(["eval", "--checkpoint", best_path,
                          "--manifest", manifest,
                          "--out", str(root / "evalout")])
    assert code == 0, err

    return {"root": root, "manifest": manifest, "stage1": stage1_path,
            "epochs": epoch_paths, "best": best_path,
            "eval_stdout": out, "eval_dir": root / "evalout"}


class TestPipeline:
    def test_stage1_artifact(self, pipeline):
        assert os.path.basename(pipeline["stage1"]) == "stage1.dsva"
        assert os.path.getsize(pipeline["stage1"]) > 0

    def test_stage2_artifacts(self, pipeline):
        names = [os.path.basename(p) for p in pipeline["epochs"]]
        assert names == ["epoch_001.dsva", "epoch_002.dsva"]
        assert all(os.path.exists(p) for p in pipeline["epochs"])

    def test_select_best_artifact(self, pipeline):
        assert os.path.basename(pipeline["best"]) == "best.dsva"
        assert os.path.exists(pipeline["best"])

    def test_select_best_prints_source_without_out(self, pipeline):
        code, out, _ = run(["select-best",
                            "--checkpoint", str(pipeline["root"] / "ck2")])
        assert code == 0
        assert out.strip() in pipeline["epochs"]

    def test_eval_report_shape(self, pipeline):
        report = json.loads(pipeline["eval_stdout"])
        assert set(report) == {"eer", "eer_threshold", "balanced_accuracy",
                               "per_synthesizer", "counts"}
        assert 0.0 <= report["eer"] <= 1.0
        assert report["counts"]["bonafide"] == 6
        assert report["counts"]["synthetic"] == 6
        ids = [row["synthesizer_id"] for row in report["per_synthesizer"]]
        assert ids[0] == "bonafide"

    def test_eval_files_match_stdout(self, pipeline):
        report_path = pipeline["eval_dir"] / "report.json"
        assert report_path.read_text() == pipeline["eval_stdout"]
        lines = (pipeline["eval_dir"] / "scores.csv").read_text().splitlines()
        assert lines[0] == "clip_id,label,synthesizer_id,score"
        assert len(lines) == 1 + 12

    def test_infer_with_maps(self, pipeline, toy_corpus):
        wav = toy_corpus["splits"]["eval"][0].path
        maps = pipeline["root"] / "maps"
        code, out, err = run(["infer", "--checkpoint", pipeline["best"],
                              "--wav", wav, "--maps", str(maps)])
        assert code == 0, err
        score = float(out.strip())
        assert 0.0 <= score <= 1.0
        stem = os.path.splitext(os.path.basename(wav))[0]
        assert (maps / f"{stem}.score.txt").read_text().strip() == out.strip()
        for kind in ("x", "xrec", "amap", "xmap"):
            img = read_pgm(maps / f"{stem}.{kind}.pgm")
            assert img.shape == (32, 32)

    def test_export_embeddings_widths(self, pipeline):
        for which, width in (("fg", 8), ("fd", 8), ("both", 16)):
            out_dir = pipeline["root"] / f"emb_{which}"
            code, out, err = run(["export-embeddings",
                                  "--checkpoint", pipeline["best"],
                                  "--manifest", pipeline["manifest"],
                                  "--which", which, "--out", str(out_dir)])
            assert code == 0, err
            lines = (out_dir / "embeddings.csv").read_text().splitlines()
            assert lines[0].split(",")[3:] == \
                [f"f_{i}" for i in range(width)]
            assert len(lines) == 1 + 12

    def test_embeddings_to_stdout_without_out(self, pipeline):
        code, out, _ = run(["export-embeddings",
                            "--checkpoint", pipeline["best"],
                            "--manifest", pipeline["manifest"],
                            "--which", "fd"])
        assert code == 0
        assert out.splitlines()[0].startswith("clip_id,label,synthesizer_id")


class TestGenToy:
    def test_prints_manifest_and_is_deterministic(self, tmp_path):
        cfg = tmp_path / "toy.json"
        cfg.write_text(json.dumps({"clips_train": 2, "clips_dev": 1,
                                   "clips_eval": 1, "seed": 5}))
        code, out1, _ = run(["gen-toy", "--config", str(cfg),
                             "--out", str(tmp_path / "a")])
        assert code == 0
        manifest1 = out1.strip()
        assert os.path.exists(manifest1)
        assert manifest1.startswith(str(tmp_path / "a"))

        code, out2, _ = run(["gen-toy", "--config", str(cfg),
                             "--out", str(tmp_path / "b")])
        assert code == 0
        with open(manifest1, "rb") as f1, open(out2.strip(), "rb") as f2:
            assert f1.read() == f2.read()  # paths inside are relative

    def test_seed_flag_changes_audio(self, tmp_path):
        cfg = tmp_path / "toy.json"
        cfg.write_text(json.dumps({"clips_train": 1, "clips_dev": 1,
                                   "clips_eval": 1, "seed": 5}))
        _, out1, _ = run(["gen-toy", "--config", str(cfg),
                          "--out", str(tmp_path / "a")])
        _, out2, _ = run(["gen-toy", "--config", str(cfg), "--seed", "6",
                          "--out", str(tmp_path / "b")])
        wav = "wavs/train_bonafide_0000.wav"
        a = os.path.join(os.path.dirname(out1.strip()), wav)
        b = os.path.join(os.path.dirname(out2.strip()), wav)
        with open(a, "rb") as f1, open(b, "rb") as f2:
            assert f1.read() != f2.read()


# JSON nested past the interpreter's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


class TestErrorPaths:
    def test_no_arguments(self):
        code, _, err = run([])
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand(self):
        code, _, err = run(["transmogrify"])
        assert code == 1
        assert "usage" in err

    def test_unknown_flag(self):
        code, _, err = run(["gen-toy", "--out", "/tmp/x", "--bogus"])
        assert code == 1
        assert "--bogus" in err

    def test_missing_required_flag(self):
        code, _, err = run(["gen-toy"])
        assert code == 1
        assert "--out" in err

    def test_help_exits_zero(self):
        code, out, _ = run(["--help"])
        assert code == 0
        assert "gen-toy" in out

    def test_missing_manifest_file(self, pipeline):
        code, _, err = run(["eval", "--checkpoint", pipeline["best"],
                            "--manifest", "/nonexistent/manifest.csv"])
        assert code == 1
        assert "error:" in err

    def test_corrupt_checkpoint(self, tmp_path, pipeline):
        bad = tmp_path / "bad.dsva"
        bad.write_bytes(b"JUNK" + b"\x00" * 64)
        code, _, err = run(["eval", "--checkpoint", str(bad),
                            "--manifest", pipeline["manifest"]])
        assert code == 1
        assert "magic" in err

    def test_single_class_eval_manifest(self, tmp_path, pipeline, toy_corpus):
        rows = [r for r in toy_corpus["splits"]["eval"]
                if r.label == "bonafide"][:2]
        man = tmp_path / "bona.csv"
        man.write_text("path,label,synthesizer_id,split\n" + "".join(
            f"{r.path},bonafide,bonafide,eval\n" for r in rows))
        code, _, err = run(["eval", "--checkpoint", pipeline["best"],
                            "--manifest", str(man)])
        assert code == 1
        assert "both classes" in err

    def test_split_fallback_note(self, tmp_path, pipeline, toy_corpus):
        rows = toy_corpus["splits"]["dev"]
        man = tmp_path / "devonly.csv"
        man.write_text("path,label,synthesizer_id,split\n" + "".join(
            f"{r.path},{r.label},{r.synthesizer_id},dev\n" for r in rows))
        code, _, err = run(["eval", "--checkpoint", pipeline["best"],
                            "--manifest", str(man)])
        assert code == 0
        assert "no 'eval' rows" in err

    def test_select_best_empty_dir(self, tmp_path):
        code, _, err = run(["select-best", "--checkpoint", str(tmp_path)])
        assert code == 1
        assert "no .dsva checkpoints" in err

    def test_select_best_dir_with_glob_characters(self, tmp_path, pipeline):
        ckpts = tmp_path / "run[1]"
        ckpts.mkdir()
        shutil.copy(pipeline["epochs"][0], ckpts / "epoch_001.dsva")
        out = tmp_path / "best"
        code, stdout, err = run(["select-best", "--checkpoint", str(ckpts),
                                 "--out", str(out)])
        assert code == 0, err
        assert stdout == f"{out / 'best.dsva'}\n"
        assert (out / "best.dsva").exists()

    def test_deeply_nested_config_exits_one(self, tmp_path):
        cfg = tmp_path / "toy.json"
        cfg.write_text('{"clips_train": ' + DEEP + "}")
        out = tmp_path / "corpus"
        code, stdout, err = run(["gen-toy", "--config", str(cfg),
                                 "--out", str(out)])
        assert code == 1 and stdout == "" and not out.exists()
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {cfg}: not valid JSON: ")

    def test_deeply_nested_checkpoint_header_exits_one(self, tmp_path):
        header = ('{"stage": ' + DEEP + "}").encode()
        path = tmp_path / "epoch_001.dsva"
        path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(header))
                         + header)
        out = tmp_path / "best"
        code, stdout, err = run(["select-best", "--checkpoint", str(path),
                                 "--out", str(out)])
        assert code == 1 and stdout == "" and not out.exists()
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: checkpoint {path}: corrupt header "
                              f"at byte {_HEADER_AT}: ")

    def test_config_stage_mismatch(self, tmp_path, pipeline):
        cfg = write_config(tmp_path / "s1.json", tiny_stage1())
        code, _, err = run(["train-stage2", "--config", cfg,
                            "--manifest", pipeline["manifest"],
                            "--out", str(tmp_path / "out")])
        assert code == 1
        assert "declares stage 1" in err

    def test_internal_error_exits_two(self, monkeypatch, pipeline):
        def boom(args):
            raise ContractError("wiring fault")

        monkeypatch.setattr(cli, "_cmd_eval", boom)
        code, _, err = run(["eval", "--checkpoint", pipeline["best"],
                            "--manifest", pipeline["manifest"]])
        assert code == 2
        assert "internal error" in err
        assert "wiring fault" in err

    def test_infer_missing_wav(self, pipeline):
        code, _, err = run(["infer", "--checkpoint", pipeline["best"],
                            "--wav", "/nonexistent/clip.wav"])
        assert code == 1
        assert "error:" in err
