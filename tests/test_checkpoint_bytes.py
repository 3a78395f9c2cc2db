"""Whatever bytes a .dsva file holds, the CLI exits 0 or 1, never 2.

Each case starts from a tiny saved stage-2 checkpoint that carries optimizer
moments, so its blobs include every kind the format has.  It truncates the
file, overwrites a few bytes of its first 3 KB (the prefix and the JSON
header), or flips one bit anywhere, then runs `infer` and `select-best` on
the result.  A file the reader rejects is bad input (exit 1); one it accepts
may score (exit 0) or give non-finite scores (exit 1).
"""

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
    assert ckpt.optimizer is not None and ckpt.cosface is not None
    save_checkpoint(ckpt, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def exits_zero_or_one(tmp_path_factory, toy_corpus):
    path = tmp_path_factory.mktemp("mutated") / "epoch_001.dsva"
    wav = toy_corpus["splits"]["eval"][0].path

    def check(buf):
        path.write_bytes(buf)
        codes = []
        for argv in (["infer", "--checkpoint", str(path), "--wav", wav],
                     ["select-best", "--checkpoint", str(path)]):
            code, _, err = run(argv)
            assert code in (0, 1) and "internal error" not in err, \
                (argv[0], code, err)
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
