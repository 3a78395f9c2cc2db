"""Whatever bytes a .dsva file holds, the CLI exits 0 or 1, never 2.

Each case starts from a tiny saved stage-2 checkpoint with a margin head,
so its blobs include every kind the format has.  It truncates the
file, overwrites a few bytes of its first 3 KB (the prefix and the JSON
header), or flips one bit anywhere, then runs `infer` and `select-best` on
the result.  A file the reader rejects is bad input (exit 1); one it accepts
may score (exit 0) or give non-finite scores (exit 1).  A bit flipped inside
a tensor's blob breaks its CRC32, so the reader rejects it naming the tensor.
"""

import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofvae.checkpoint import save_checkpoint

from test_cli import run

HEADER_SPAN = 3072
CASES = settings(max_examples=100, deadline=None)


@pytest.fixture(scope="module")
def original(tmp_path_factory, stage2_ckpts):
    path = tmp_path_factory.mktemp("dsvabytes") / "good.dsva"
    ckpt = stage2_ckpts[-1]
    assert ckpt.cosface is not None
    save_checkpoint(ckpt, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def commands_on(tmp_path_factory, toy_corpus):
    """Run infer and select-best on a file holding buf: [(code, stderr)]."""
    path = tmp_path_factory.mktemp("mutated") / "epoch_001.dsva"
    wav = toy_corpus["splits"]["eval"][0].path

    def results(buf):
        path.write_bytes(buf)
        out = []
        for argv in (["infer", "--checkpoint", str(path), "--wav", wav],
                     ["select-best", "--checkpoint", str(path)]):
            code, _, err = run(argv)
            out.append((code, err))
        return out
    return results


@pytest.fixture(scope="module")
def exits_zero_or_one(commands_on):
    def check(buf):
        codes = []
        for code, err in commands_on(buf):
            assert code in (0, 1) and "internal error" not in err, (code, err)
            codes.append(code)
        return codes
    return check


def test_the_original_scores(original, exits_zero_or_one):
    assert exits_zero_or_one(original) == [0, 0]


@CASES
@given(data=st.data())
def test_truncated_at_any_offset(original, exits_zero_or_one, data):
    cut = data.draw(st.integers(0, len(original) - 1), label="cut")
    exits_zero_or_one(original[:cut])


@CASES
@given(data=st.data(), patch=st.binary(min_size=1, max_size=8))
def test_bytes_overwritten_in_the_first_3_kb(original, exits_zero_or_one,
                                             data, patch):
    at = data.draw(st.integers(0, min(HEADER_SPAN, len(original)) - len(patch)),
                   label="at")
    exits_zero_or_one(original[:at] + patch + original[at + len(patch):])


@CASES
@given(data=st.data())
def test_one_bit_flipped_anywhere(original, exits_zero_or_one, data):
    bit = data.draw(st.integers(0, 8 * len(original) - 1), label="bit")
    buf = bytearray(original)
    buf[bit // 8] ^= 1 << (bit % 8)
    exits_zero_or_one(bytes(buf))


def _blob_spans(buf):
    """(name, first byte, end byte) of each tensor's blob in buf."""
    (length,) = struct.unpack("<I", buf[8:12])
    at, spans = 12 + length, []
    for name, shape, _ in json.loads(buf[12:at])["tensors"]:
        end = at + 4 * math.prod(shape)
        spans.append((name, at, end))
        at = end
    return spans


@CASES
@given(data=st.data())
def test_one_bit_flipped_in_a_blob_names_the_tensor(original, commands_on,
                                                    data):
    spans = [s for s in _blob_spans(original) if s[2] > s[1]]
    name, start, end = data.draw(st.sampled_from(spans), label="tensor")
    bit = data.draw(st.integers(8 * start, 8 * end - 1), label="bit")
    buf = bytearray(original)
    buf[bit // 8] ^= 1 << (bit % 8)
    for code, err in commands_on(bytes(buf)):
        assert code == 1, err
        assert f"tensor {name!r}: bytes {start}..{end} do not match" in err, err
