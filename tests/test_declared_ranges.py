"""Every bounded config field checks its declared range when it is built.

The ranges are read from the declarations (`config.ranges`), so a field
that gains one is tested without an edit here, and a numeric field that
has none must name the code that checks it instead.  Whatever made the
config (JSON, `dataclasses.replace` or a direct call), a value out of its
range raises the class's `error`; from the CLI it exits 1 before any clip
is read.
"""

import dataclasses
import json
import math
import re
import reprlib
import struct
import types
import typing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofvae import cli, config, evaluate
from spoofvae.checkpoint import (CheckpointHeader, CosFaceHeader,
                                 save_checkpoint)
from spoofvae.config import JsonConfig, ranges
from spoofvae.data import ToyConfig
from spoofvae.dsp import FrontendConfig
from spoofvae.errors import InputError
from spoofvae.losses import LossWeights
from spoofvae.model import ModelConfig
from spoofvae.train import StageConfig

from conftest import TINY_FRONTEND, TINY_MODEL, tiny_stage1, tiny_stage2
from test_cli import run

# numeric fields with no declared range -> the code that checks them
UNBOUNDED = {
    "window_ms": "FrontendConfig.__post_init__: samples at sample_rate",
    "hop_ms": "FrontendConfig.__post_init__: samples at sample_rate",
    "f_min": "FrontendConfig.filterbank: the mel range",
    "f_max": "FrontendConfig.filterbank: the mel range",
    "clip_seconds": "ToyConfig.__post_init__: samples at sample_rate",
    "stage": "StageConfig.__post_init__ and Checkpoint: 1 or 2",
}

# one config of each class whose cross-field rules hold at every in-range
# value of any one bounded field; a tuple field gets (1, value)
HOSTS = {
    StageConfig: tiny_stage1(),
    LossWeights: LossWeights(),
    ModelConfig: ModelConfig(n_mels=4, target_frames=4, latent_dim=1,
                             channels=(1,), classifier_channels=(1,)),
    FrontendConfig: FrontendConfig(n_mels=1, target_frames=1),
    ToyConfig: ToyConfig(clips_train=1, clips_dev=1, clips_eval=1),
    CosFaceHeader: CosFaceHeader(scale=1.0, margin=0.0),
    CheckpointHeader: CheckpointHeader(
        stage=1, iteration=0, epoch=0, model_config=TINY_MODEL,
        frontend=TINY_FRONTEND, nets=(), frozen=(), cosface=None,
        metric_history=(), tensors=()),
}
# fields whose host must differ: stage 1 needs max_iterations >= 1
FIELD_HOSTS = {(StageConfig, "max_iterations"): tiny_stage2()}
# the one cross-field rule an in-range value may still break: a model's
# input extent halves once per encoder layer, so odd extents never build
DIVISIBLE = {(ModelConfig, "n_mels"), (ModelConfig, "target_frames")}


def _config_classes():
    out, todo = set(), [JsonConfig]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.add(sub)
            todo.append(sub)
    return out


def _element_type(tp):
    """int or float for a numeric annotation (optional or tuple), else None."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if typing.get_origin(tp) is tuple:
        tp = typing.get_args(tp)[0]
    return tp if tp in (int, float) else None


BOUNDED = [(cls, name, span, _element_type(typing.get_type_hints(cls)[name]))
           for cls in sorted(HOSTS, key=lambda c: c.__name__)
           for name, span in ranges(cls)]


def _edges(span, tp):
    """(value, in range) at and around each end, and past every end."""
    def step(x, toward):
        return x + (1 if toward > x else -1) if tp is int else \
            float(np.nextafter(float(x), toward))

    out = []
    for x, is_open, inward in ((span.lo, span.open_lo, math.inf),
                               (span.hi, span.open_hi, -math.inf)):
        x = x if tp is int else float(x)
        out += [(x, not is_open), (step(x, inward), True),
                (step(x, -inward), False)]
    return out + [(math.nan, False), (math.inf, False), (-math.inf, False),
                  (10 ** 400, False), (-10 ** 400, False)]


def _build(cls, name, value):
    host = FIELD_HOSTS.get((cls, name), HOSTS[cls])
    if isinstance(getattr(HOSTS[cls], name), tuple):
        value = (1, value)
    return dataclasses.replace(host, **{name: value})


def _check(cls, name, value, inside):
    """Construction raises cls.error, naming name, exactly when not inside."""
    if inside:
        try:
            _build(cls, name, value)
        except cls.error as exc:
            assert (cls, name) in DIVISIBLE and value % 2, exc
            assert str(exc).startswith("input extent "), exc
        return
    with pytest.raises(cls.error) as info:
        _build(cls, name, value)
    assert re.fullmatch(f"{name} must be .+, got {re.escape(reprlib.repr(value))}",
                        str(info.value)), info.value


def test_every_config_class_has_a_host():
    assert _config_classes() == set(HOSTS)


def test_every_numeric_field_is_bounded_or_names_its_check():
    seen = set()
    for cls in _config_classes():
        bounded = dict(ranges(cls))
        for name, tp in typing.get_type_hints(cls).items():
            if _element_type(tp) is None:
                assert name not in bounded, (cls, name)
                continue
            seen.add(name)
            assert (name in bounded) != (name in UNBOUNDED), (cls, name)
    assert set(UNBOUNDED) <= seen


@pytest.mark.parametrize("check", [
    lambda v: FrontendConfig(window_ms=v),
    lambda v: FrontendConfig(hop_ms=v),
    lambda v: FrontendConfig(f_min=v).filterbank(),
    lambda v: FrontendConfig(f_max=v).filterbank(),
    lambda v: ToyConfig(clip_seconds=v),
    lambda v: tiny_stage1(stage=v),
], ids=list(UNBOUNDED))
@pytest.mark.parametrize("value", [math.nan, math.inf, 10 ** 400])
def test_an_unbounded_field_is_checked_where_it_says(check, value):
    with pytest.raises(InputError):
        check(value)


@pytest.mark.parametrize("cls, name, span, tp", BOUNDED,
                         ids=[f"{c.__name__}.{n}" for c, n, _, _ in BOUNDED])
def test_each_end_of_a_declared_range(cls, name, span, tp):
    for value, inside in _edges(span, tp):
        _check(cls, name, value, inside)


def _inside(span, value) -> bool:
    """Range membership in exact rational arithmetic."""
    if isinstance(value, float) and not math.isfinite(value):
        return False
    v, lo, hi = Fraction(value), Fraction(span.lo), Fraction(span.hi)
    return (lo < v if span.open_lo else lo <= v) and \
        (v < hi if span.open_hi else v <= hi)


@given(field=st.sampled_from(BOUNDED), data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_value_builds_exactly_when_in_its_declared_range(field, data):
    cls, name, span, tp = field
    hi = min(span.hi, 2 ** 70)
    near = st.integers(-2, 2) | st.integers(hi - 2, hi + 2)
    values = near | st.integers() | st.integers(-2 ** 70, 2 ** 70)
    if tp is float:
        values = values | st.floats() | st.floats(-2.0, 2.0) | \
            st.floats(hi / 2, hi * 2)
    value = data.draw(values)
    _check(cls, name, value, _inside(span, value))


# ---- from the CLI, before any clip ----------------------------------------

@pytest.fixture
def no_clip(monkeypatch):
    def never(*args):
        raise AssertionError("a clip was read")

    monkeypatch.setattr(evaluate, "load_clip_features", never)


SEED = "[0, 18446744073709551615]"
# (what is past its range, the stage config's JSON edits, extra arguments,
# the error line)
TRAINING = [
    ("seed -1", {}, ["--seed", "-1"], f"seed must be in {SEED}, got -1"),
    ("seed 2^64", {}, ["--seed", str(2 ** 64)],
     f"seed must be in {SEED}, got 18446744073709551616"),
    ("json seed", {"seed": -1}, [], f"seed must be in {SEED}, got -1"),
    ("w_recon", {"loss_weights": {"w_recon": 1e39}}, [],
     "loss_weights: w_recon must be finite and >= 0, got 1e+39"),
    ("batch_size", {"batch_size": 10 ** 30}, [],
     "batch_size must be in [1, 2147483647], got "
     "1000000000000000000000000000000"),
    ("max_iterations", {"max_iterations": 10 ** 30}, [],
     "max_iterations must be in [0, 2147483647], got "
     "1000000000000000000000000000000"),
    ("convergence_threshold", {"convergence_threshold": math.nan}, [],
     "convergence_threshold must be finite and >= 0, got nan"),
]


@pytest.mark.parametrize("edits, extra, want", [t[1:] for t in TRAINING],
                         ids=[t[0] for t in TRAINING])
def test_a_training_value_past_its_range_exits_one_before_any_clip(
        edits, extra, want, no_clip, tmp_path, toy_corpus):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(tiny_stage1().to_dict(), **edits)))
    code, out, err = run(["train-stage1", "--config", str(path),
                          "--manifest", toy_corpus["manifest"],
                          "--out", str(tmp_path / "out")] + extra)
    assert (code, out, err) == (1, "", f"error: {want}\n")
    assert not (tmp_path / "out").exists()


def test_gen_toy_seed_past_its_range_exits_one_writing_nothing(tmp_path,
                                                               monkeypatch):
    def never(*args):
        raise AssertionError("a corpus was generated")

    monkeypatch.setattr(cli, "generate_toy_dataset", never)
    code, out, err = run(["gen-toy", "--out", str(tmp_path / "corpus"),
                          "--seed", str(2 ** 64)])
    assert (code, out) == (1, "")
    assert err == f"error: seed must be in {SEED}, got 18446744073709551616\n"


def _rewrite_cosface(src, dst, **values):
    buf = src.read_bytes()
    (length,) = struct.unpack("<I", buf[8:12])
    header = json.loads(buf[12:12 + length])
    header["cosface"].update(values)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(buf[:8] + struct.pack("<I", len(text)) + text +
                    buf[12 + length:])


@pytest.mark.parametrize("values, want", [
    ({"scale": math.nan}, "scale must be finite and > 0, got nan"),
    ({"scale": math.inf}, "scale must be finite and > 0, got inf"),
    ({"scale": 1e39}, "scale must be finite and > 0, got 1e+39"),
    ({"margin": -math.inf}, "margin must be in [0, 1), got -inf"),
])
@pytest.mark.parametrize("command", ["eval", "select-best"])
def test_a_header_cosface_past_its_range_exits_one(
        command, values, want, no_clip, tmp_path, toy_corpus, stage2_ckpts):
    good = tmp_path / "good.dsva"
    save_checkpoint(stage2_ckpts[-1], good)
    path = tmp_path / "bad.dsva"
    _rewrite_cosface(good, path, **values)
    argv = [command, "--checkpoint", str(path)]
    if command == "eval":
        argv += ["--manifest", toy_corpus["manifest"]]
    code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err == f"error: checkpoint {path}: cosface: {want}\n"


def test_the_shared_ranges_read_as_documented():
    assert str(config.UNIT) == "in [0, 1)"
    assert str(config.SEED) == f"in {SEED}"
    assert config.F32_MAX == float(np.finfo(np.float32).max)
    assert 1e39 not in config.F32_POSITIVE and 0 not in config.F32_POSITIVE
    assert 0 in config.F32_NON_NEGATIVE
    assert config.F32_MAX in config.F32_NON_NEGATIVE
