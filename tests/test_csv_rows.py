"""scores.csv and embeddings.csv share one row writer that quotes fields.

A clip path or synthesizer id holding a comma or a quote comes back
unchanged through csv.DictReader, from a file or from stdout, while a
plain id keeps its exact bytes.
"""

import csv
import io
import shutil

import pytest

from spoofvae.checkpoint import save_checkpoint
from spoofvae.data import ManifestRecord, write_manifest

from test_cli import run

# (file stem, label, synthesizer id)
ROWS = [("plain_bona", "bonafide", "bonafide"),
        ("clip,0", "bonafide", "bonafide"),
        ('say "hi"', "synthetic", "G01"),
        ("plain_syn", "synthetic", 'G,"2"'),
        ("tab\tstem", "synthetic", "G03")]


@pytest.fixture(scope="module")
def odd_manifest(tmp_path_factory, toy_corpus):
    root = tmp_path_factory.mktemp("oddids")
    (root / "wavs").mkdir()
    source = toy_corpus["splits"]["eval"][0].path
    records = []
    for stem, label, synth in ROWS:
        path = root / "wavs" / f"{stem}.wav"
        shutil.copyfile(source, path)
        records.append(ManifestRecord(path=str(path), label=label,
                                      synthesizer_id=synth, split="eval"))
    manifest = str(root / "manifest.csv")
    write_manifest(records, manifest)
    return manifest


@pytest.fixture(scope="module")
def best(tmp_path_factory, stage2_ckpts):
    path = tmp_path_factory.mktemp("oddbest") / "best.dsva"
    save_checkpoint(stage2_ckpts[-1], path)
    return str(path)


def _round_trip(text, value_columns):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [(r["clip_id"], r["label"], r["synthesizer_id"]) for r in rows] \
        == ROWS
    assert all(len(r) == 3 + value_columns and None not in r for r in rows)
    return rows


def test_scores_csv_round_trips_odd_ids(tmp_path, odd_manifest, best):
    code, _, err = run(["eval", "--checkpoint", best, "--manifest",
                        odd_manifest, "--out", str(tmp_path)])
    assert code == 0, err
    text = (tmp_path / "scores.csv").read_text()
    rows = _round_trip(text, 1)
    lines = text.splitlines()
    assert lines[0] == "clip_id,label,synthesizer_id,score"
    # plain fields are written bare, exactly as before quoting existed
    assert lines[1] == f"plain_bona,bonafide,bonafide,{rows[0]['score']}"
    assert lines[2].startswith('"clip,0",bonafide,bonafide,')
    assert lines[3].startswith('"say ""hi""",synthetic,G01,')
    assert lines[4].startswith('plain_syn,synthetic,"G,""2""",')


@pytest.mark.parametrize("which, width", [("fd", 8), ("both", 16)])
def test_embeddings_csv_round_trips_odd_ids_to_file_and_stdout(
        which, width, tmp_path, odd_manifest, best):
    argv = ["export-embeddings", "--checkpoint", best, "--manifest",
            odd_manifest, "--which", which]
    code, stdout, err = run(argv + ["--out", str(tmp_path)])
    assert code == 0, err
    path = tmp_path / "embeddings.csv"
    assert stdout == f"{path}\n"
    text = path.read_text()
    _round_trip(text, width)
    code, stdout, err = run(argv)
    assert code == 0, err
    assert stdout == text
    assert text.splitlines()[1].startswith("plain_bona,bonafide,bonafide,")
