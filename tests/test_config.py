"""The shared JSON config codec: type rules, round trips, and CLI exit codes.

Every config document a user can hand the CLI (a ToyConfig or StageConfig
file, or the configs inside a .dsva header) must fail with exit 1 and a
message naming the key when a value has the wrong JSON type.
"""

import contextlib
import dataclasses
import io
import json
import struct
import types
import typing
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spoofvae.cli as cli
from spoofvae.checkpoint import save_checkpoint
from spoofvae.config import JsonConfig, read_json_object
from spoofvae.data import ToyConfig
from spoofvae.dsp import FrontendConfig
from spoofvae.errors import ContractError, InputError
from spoofvae.losses import LossWeights
from spoofvae.model import ModelConfig
from spoofvae.train import StageConfig

from conftest import TINY_FRONTEND, TINY_MODEL, tiny_stage2


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


# ---- type rules ---------------------------------------------------------------

class TestTypeRules:
    def test_int_field_rejects_bool_and_float(self):
        for bad in (True, 1.5, 2.0, "3"):
            with pytest.raises(InputError, match="seed"):
                ToyConfig.from_dict({"seed": bad})

    def test_float_field_keeps_integers_unchanged(self):
        w = LossWeights.from_dict({"w_kl": 2, "w_con": 0.5})
        assert type(w.w_kl) is int and w.w_kl == 2
        text = json.dumps(FrontendConfig.from_dict({"window_ms": 25}).to_dict())
        assert '"window_ms": 25,' in text

    def test_float_field_rejects_bool_and_string(self):
        for bad in (False, "1.0", [1.0]):
            with pytest.raises(ContractError, match="w_recon"):
                LossWeights.from_dict({"w_recon": bad})

    def test_optional_field_takes_null(self):
        fe = FrontendConfig.from_dict({"fft_size": None, "f_max": None})
        assert fe.fft_size is None and fe.f_max is None
        with pytest.raises(InputError, match="fft_size"):
            FrontendConfig.from_dict({"fft_size": "512"})

    def test_tuple_field_takes_a_list_and_checks_elements(self):
        cfg = ModelConfig.from_dict({"channels": [4, 8, 8, 16]})
        assert cfg.channels == (4, 8, 8, 16)
        for bad in ("ab", [4, "8"], [4, 8.0], 16, {"a": 1}):
            with pytest.raises(ContractError, match="channels"):
                ModelConfig.from_dict({"channels": bad})
        with pytest.raises(InputError, match="families"):
            ToyConfig.from_dict({"families": ["G01", 2]})

    def test_nested_error_becomes_outer_error_naming_the_key(self):
        with pytest.raises(InputError, match="^loss_weights: "):
            StageConfig.from_dict({"stage": 2, "loss_weights": {"w_kl": "x"}})
        with pytest.raises(InputError, match="^model: "):
            StageConfig.from_dict({"stage": 1, "model": 5})
        with pytest.raises(InputError, match="^frontend: "):
            StageConfig.from_dict({"stage": 1, "frontend": {"bogus": 1}})

    def test_non_object_rejected_with_class_error(self):
        with pytest.raises(ContractError):
            ModelConfig.from_dict([32, 32])
        with pytest.raises(InputError):
            ToyConfig.from_dict("seed")

    def test_read_json_object_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"seed": "\xff"}')
        with pytest.raises(InputError, match="JSON"):
            read_json_object(path)


@pytest.mark.parametrize("cfg", [
    ToyConfig(clips_train=3, families=("G02", "G01"), holdout_family="G01",
              imbalance=2, seed=9),
    FrontendConfig(window_ms=20.0, fft_size=512, f_max=7000.0, n_mels=32),
    TINY_MODEL,
    LossWeights(0.5, 1.5, 2.0, 0.25, 3),
    tiny_stage2(convergence_threshold=0.01,
                loss_weights=LossWeights(w_con=3.0)),
], ids=lambda cfg: type(cfg).__name__)
def test_json_round_trip(cfg):
    doc = json.loads(json.dumps(cfg.to_dict()))
    assert type(cfg).from_dict(doc) == cfg


# ---- CLI exit codes -------------------------------------------------------------

PROBES = [
    ("gen-toy", {"clips_train": "5"}, "clips_train"),
    ("gen-toy", {"families": 3}, "families"),
    ("train-stage1", {"stage": 1, "model": 5}, "model"),
    ("train-stage1", {"learning_rate": "abc"}, "learning_rate"),
    ("train-stage1", {"batch_size": 2.5}, "batch_size"),
    ("train-stage2", {"loss_weights": {"w_kl": "x"}}, "w_kl"),
    ("train-stage1", {"model": {"channels": "ab"}}, "channels"),
    ("train-stage2", {"convergence_threshold": "x"}, "convergence_threshold"),
    ("train-stage1", {"stage": "1"}, "stage: expected integer"),
    # weight_decay alone picks Adam (0) or AdamW; no key names the choice
    ("train-stage1", {"optimizer": "adam"}, "optimizer"),
    ("train-stage2", {"optimizer": "adamw"}, "optimizer"),
]


def _argv(command, config_path, out, manifest):
    argv = [command, "--config", str(config_path), "--out", str(out)]
    return argv if command == "gen-toy" else argv + ["--manifest", manifest]


@pytest.mark.parametrize("command,doc,key", PROBES,
                         ids=[f"{c}-{k.split(':')[0]}" for c, _, k in PROBES])
def test_wrong_typed_config_exits_one(tmp_path, toy_corpus, command, doc, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, err = run(_argv(command, path, tmp_path / "out",
                          toy_corpus["manifest"]))
    assert code == 1, err
    assert key in err
    assert "internal error" not in err


def _non_none(tp):
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return True, next(a for a in typing.get_args(tp)
                          if a is not type(None))
    return False, tp


def _accepts(tp, value) -> bool:
    """The type rules of the codec, spelled out independently of it."""
    optional, tp = _non_none(tp)
    if value is None:
        return optional
    if isinstance(tp, type) and issubclass(tp, JsonConfig):
        return isinstance(value, dict)
    if typing.get_origin(tp) is tuple:
        elem = typing.get_args(tp)[0]
        return isinstance(value, list) and all(_accepts(elem, v) for v in value)
    if tp is float:
        return type(value) in (int, float)
    return type(value) is tp


def _config_fields():
    """(command, key path, annotation) for every field a CLI config holds."""
    out = [("gen-toy", (name,), tp)
           for name, tp in typing.get_type_hints(ToyConfig).items()]
    for name, tp in typing.get_type_hints(StageConfig).items():
        out.append(("train-stage1", (name,), tp))
        if isinstance(tp, type) and issubclass(tp, JsonConfig):
            out += [("train-stage1", (name, sub), sub_tp)
                    for sub, sub_tp in typing.get_type_hints(tp).items()]
    return out


CONFIG_FIELDS = _config_fields()

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) |
    st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.json"


def test_config_fields_cover_nested_sections():
    paths = {path for _, path, _ in CONFIG_FIELDS}
    assert ("families",) in paths and ("convergence_threshold",) in paths
    assert {("model", "channels"), ("frontend", "f_max"),
            ("loss_weights", "w_bce")} <= paths


@given(field=st.sampled_from(CONFIG_FIELDS), data=st.data())
@settings(max_examples=150, deadline=None)
def test_any_wrong_typed_value_exits_one(cfg_path, field, data):
    command, path, tp = field
    value = data.draw(JSON_VALUES.filter(lambda v: not _accepts(tp, v)))
    doc = {} if command == "gen-toy" else {"stage": 1}
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    cfg_path.write_text(json.dumps(doc))
    # a config that got through would reach these; fail loudly if it does
    accepted = AssertionError("config accepted")
    with mock.patch.object(cli, "generate_toy_dataset", side_effect=accepted), \
            mock.patch.object(cli, "parse_manifest", side_effect=accepted):
        code, err = run(_argv(command, cfg_path, cfg_path.parent / "out",
                              "manifest.csv"))
    assert code == 1, err
    assert path[-1] in err


# ---- checkpoint headers -----------------------------------------------------------

def _rewrite_header(src, dst, section, key, value):
    buf = src.read_bytes()
    (length,) = struct.unpack("<I", buf[8:12])
    header = json.loads(buf[12:12 + length])
    header[section][key] = value
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(buf[:8] + struct.pack("<I", len(text)) + text +
                    buf[12 + length:])


@pytest.mark.parametrize("section,key,value", [
    ("model_config", "channels", "ab"),
    ("model_config", "latent_dim", 8.0),
    ("frontend", "n_mels", "32"),
])
def test_wrong_typed_header_config_exits_one(tmp_path, toy_corpus,
                                             stage2_ckpts, section, key,
                                             value):
    good = tmp_path / "good.dsva"
    save_checkpoint(stage2_ckpts[-1], good)
    bad = tmp_path / "bad.dsva"
    _rewrite_header(good, bad, section, key, value)
    code, err = run(["eval", "--checkpoint", str(bad),
                     "--manifest", toy_corpus["manifest"]])
    assert code == 1, err
    assert key in err
    assert run(["eval", "--checkpoint", str(good),
                "--manifest", toy_corpus["manifest"]])[0] == 0


def test_stage_config_keeps_preset_for_omitted_keys():
    cfg = StageConfig.from_dict({"stage": 2, "model": TINY_MODEL.to_dict(),
                                 "frontend": TINY_FRONTEND.to_dict()})
    preset = StageConfig.stage2()
    assert cfg == dataclasses.replace(preset, model=TINY_MODEL,
                                      frontend=TINY_FRONTEND)
