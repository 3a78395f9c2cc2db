"""Whatever bytes a clip holds, eval exits 0 or 1, never 2.

One clip of the toy eval split, among good clips and in the share a forked
child reads, is truncated, has a few of its first 64 bytes (the RIFF, fmt
and data headers) overwritten, or has one bit flipped.  eval runs on 2
shares.  A clip the reader rejects is a failed clip, named on a `failed:`
stderr line and missing from scores.csv; one it accepts is scored.
"""

import csv
import dataclasses
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofvae import evaluate, shares
from spoofvae.checkpoint import save_checkpoint
from spoofvae.data import write_manifest

from test_cli import run
from test_shares import _assert_no_children, _force_shares

HEADER_SPAN = 64
CASES = settings(max_examples=25, deadline=None)


@pytest.fixture(scope="module")
def eval_on(tmp_path_factory, toy_corpus, stage2_ckpts):
    """Run eval with the mutated clip's bytes; (code, stderr, scored ids)."""
    root = tmp_path_factory.mktemp("wavbytes")
    best = str(root / "best.dsva")
    save_checkpoint(stage2_ckpts[-1], best)
    records = list(toy_corpus["splits"]["eval"])
    at = len(records) - 4  # in the last share, between good clips
    target = records[at]
    path = root / "clips" / os.path.basename(target.path)
    path.parent.mkdir()
    shutil.copyfile(target.path, path)
    records[at] = dataclasses.replace(target, path=str(path))
    manifest = str(root / "manifest.csv")
    write_manifest(records, manifest)
    original = path.read_bytes()

    def results(buf):
        path.write_bytes(buf)
        out = root / "out"
        shutil.rmtree(out, ignore_errors=True)
        with pytest.MonkeyPatch.context() as mp:
            _force_shares(mp, 2)
            mp.setattr(evaluate, "SCORE_BATCH", 1)
            spans = shares.bounds(len(records), evaluate.SCORE_BATCH)
            assert len(spans) == 2 and spans[1][0] < at < spans[1][1] - 1
            code, _, err = run(["eval", "--checkpoint", best,
                                "--manifest", manifest, "--out", str(out)])
        _assert_no_children()
        scored = []
        if code == 0:
            with open(out / "scores.csv", newline="") as fh:
                scored = [row["clip_id"] for row in csv.DictReader(fh)]
        return code, err, scored

    return original, str(path), target.clip_id, results


def _exits_zero_or_one(eval_on, buf):
    _, path, clip_id, results = eval_on
    code, err, scored = results(buf)
    assert code in (0, 1) and "internal error" not in err, (code, err)
    failed = [line for line in err.splitlines() if line.startswith("failed: ")]
    assert all(line.startswith(f"failed: {path}: ") for line in failed), err
    if code == 0:
        assert len(failed) == (clip_id not in scored), err
    return code, failed


def test_the_original_clip_scores(eval_on):
    assert _exits_zero_or_one(eval_on, eval_on[0]) == (0, [])


@CASES
@given(data=st.data())
def test_truncated_at_any_offset(eval_on, data):
    original = eval_on[0]
    cut = data.draw(st.integers(0, len(original) - 1), label="cut")
    _exits_zero_or_one(eval_on, original[:cut])


@CASES
@given(data=st.data(), patch=st.binary(min_size=1, max_size=8))
def test_header_bytes_overwritten(eval_on, data, patch):
    original = eval_on[0]
    at = data.draw(st.integers(0, HEADER_SPAN - len(patch)), label="at")
    _exits_zero_or_one(eval_on,
                       original[:at] + patch + original[at + len(patch):])


@CASES
@given(data=st.data())
def test_one_bit_flipped_anywhere(eval_on, data):
    original = bytearray(eval_on[0])
    bit = data.draw(st.integers(0, 8 * len(original) - 1), label="bit")
    original[bit // 8] ^= 1 << (bit % 8)
    _exits_zero_or_one(eval_on, bytes(original))
