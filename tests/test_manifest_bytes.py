"""Manifest bytes a user may hand the CLI: each parses or is bad input.

A manifest is UTF-8 CSV (a leading byte-order mark is skipped) with any
line ending the csv module reads.  Whatever its bytes, `parse_manifest`
returns records or raises InputError naming the file, so `eval` and
`train-stage1` exit 0 or 1, never 2.
"""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofvae.checkpoint import save_checkpoint
from spoofvae.data import parse_manifest
from spoofvae.errors import InputError

from conftest import tiny_stage1
from test_cli import run, write_config

HEADER = "path,label,synthesizer_id,split"


def _rows(records):
    return [f"{r.path},{r.label},{r.synthesizer_id},{r.split}"
            for r in records]


def _text(records):
    return "\n".join([HEADER] + _rows(records)) + "\n"


def _edit_row(i, edit):
    """A case that edits row i (1 is the first after the header)."""
    def make(records):
        lines = _text(records).split("\n")
        lines[i] = edit(lines[i])
        return "\n".join(lines).encode()
    return make


# name -> (the manifest's bytes from a list of records, the records kept
# or the start of the InputError after "<path>: ").  A NUL byte in a path
# is a clip that fails to read, not a manifest error, from Python 3.11 on
NUL_OK = sys.version_info >= (3, 11)
CASES = {
    "plain": (lambda rs: _text(rs).encode(), "all"),
    "bom": (lambda rs: b"\xef\xbb\xbf" + _text(rs).encode(), "all"),
    "crlf": (lambda rs: _text(rs).replace("\n", "\r\n").encode(), "all"),
    "lone_cr": (lambda rs: _text(rs).replace("\n", "\r").encode(), "all"),
    "no_final_newline": (lambda rs: _text(rs).rstrip("\n").encode(), "all"),
    "blank_lines": (lambda rs: _text(rs).replace("\n", "\n\n").encode(),
                    "all"),
    "quoted_fields": (lambda rs: "\n".join(
        [HEADER] + [",".join(f'"{c}"' for c in row.split(","))
                    for row in _rows(rs)]).encode() + b"\n", "all"),
    "nul_in_path": (_edit_row(1, lambda r: r[:1] + "\x00" + r[1:]),
                    "all" if NUL_OK else "line 2: "),
    "nul_in_label": (_edit_row(1, lambda r: r.replace(",", ",\x00", 1)),
                     "line 2: label must be one of" if NUL_OK
                     else "line 2: "),
    "unclosed_quote": (_edit_row(2, lambda r: '"' + r), "line 3: expected "
                       "4 columns, got 1"),
    "bad_label": (_edit_row(1, lambda r: re.sub(",(bonafide|synthetic),",
                                                ",spoof,", r, count=1)),
                  "line 2: label must be one of"),
    "missing_column": (_edit_row(1, lambda r: r.rsplit(",", 1)[0]),
                       "line 2: expected 4 columns, got 3"),
    "extra_column": (_edit_row(1, lambda r: r + ",x"),
                     "line 2: expected 4 columns, got 5"),
    "bad_header": (lambda rs: _text(rs).replace("split", "part", 1).encode(),
                   "line 1: header must be "),
    "empty": (lambda rs: b"", "empty manifest"),
    "header_only": (lambda rs: (HEADER + "\n").encode(), "none"),
    "latin1_path": (lambda rs: _text(rs).replace(
        "/", "/\xe9", 1).encode("latin-1"), "not UTF-8 text: byte 0xe9"),
    "utf16": (lambda rs: _text(rs).encode("utf-16"),
              "not UTF-8 text: byte 0xff"),
    "utf16_no_bom": (lambda rs: _text(rs).encode("utf-16-le"),
                     "line 1: "),
}


@pytest.fixture(scope="module")
def clips(toy_corpus):
    """A few eval clips with both labels."""
    return toy_corpus["splits"]["eval"]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, stage2_ckpts):
    path = tmp_path_factory.mktemp("manifest") / "model.dsva"
    save_checkpoint(stage2_ckpts[-1], path)
    return str(path)


def _write(tmp_path, name, records):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(CASES[name][0](records))
    return path


@pytest.mark.parametrize("name", CASES)
def test_parse_manifest_keeps_the_records_or_names_the_file(name, tmp_path,
                                                            clips):
    path = _write(tmp_path, name, clips)
    want = CASES[name][1]
    if want in ("all", "none"):
        got = parse_manifest(path)
        # a NUL byte stays in the path it was put in
        assert [(r.path.replace("\x00", ""), r.label, r.synthesizer_id,
                 r.split) for r in got] == \
            [(r.path, r.label, r.synthesizer_id, r.split)
             for r in (clips if want == "all" else [])]
        assert sum("\x00" in r.path for r in got) == (name == "nul_in_path")
        return
    with pytest.raises(InputError) as info:
        parse_manifest(path)
    assert str(info.value).startswith(f"{path}: {want}"), info.value


@pytest.mark.parametrize("name", CASES)
def test_eval_exits_zero_or_one(name, tmp_path, clips, checkpoint):
    path = _write(tmp_path, name, clips)
    code, out, err = run(["eval", "--checkpoint", checkpoint,
                          "--manifest", str(path)])
    want = CASES[name][1]
    errors = [ln for ln in err.splitlines() if ln.startswith("error: ")]
    if want == "all":
        assert code == 0 and errors == [], err
        failed = [ln for ln in err.splitlines() if ln.startswith("failed:")]
        assert len(failed) == (name == "nul_in_path")
    elif want == "none":  # no clip to score
        assert code == 1 and len(errors) == 1, err
    else:
        assert code == 1 and err.count("\n") == 1 and out == "", err
        assert err.startswith(f"error: {path}: {want}"), err


@pytest.mark.parametrize("name", ["bom", "crlf", "nul_in_path",
                                  "unclosed_quote", "latin1_path", "utf16"])
def test_train_stage1_exits_zero_or_one(name, tmp_path, clips):
    path = _write(tmp_path, name, clips)
    cfg = write_config(tmp_path / "cfg.json", tiny_stage1(max_iterations=1))
    code, out, err = run(["train-stage1", "--config", cfg,
                          "--manifest", str(path),
                          "--out", str(tmp_path / "out")])
    errors = [ln for ln in err.splitlines() if ln.startswith("error: ")]
    if name == "nul_in_path" and NUL_OK:
        assert code == 1 and len(errors) == 1, err
        assert errors[0].startswith(
            f"error: 1 of {len(clips)} clips failed; first: "), err
    elif CASES[name][1] == "all":
        assert code == 0 and errors == [], err
    else:
        assert code == 1 and len(errors) == 1, err
        assert errors[0].startswith(f"error: {path}: {CASES[name][1]}"), err
    assert "internal error" not in err


@pytest.fixture(scope="module")
def spliced(tmp_path_factory):
    return tmp_path_factory.mktemp("spliced") / "manifest.csv"


@given(at=st.integers(0, 400), cut=st.integers(0, 8),
       junk=st.binary(max_size=8))
@settings(max_examples=200, deadline=None)
def test_any_spliced_bytes_parse_or_are_bad_input(at, cut, junk, spliced,
                                                  clips):
    good = CASES["plain"][0](clips)
    at = min(at, len(good))
    spliced.write_bytes(good[:at] + junk + good[at + cut:])
    try:
        parse_manifest(spliced)
    except InputError as exc:
        assert str(exc).startswith(f"{spliced}: "), exc
