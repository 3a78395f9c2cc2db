"""Training stops at the first non-finite loss term or gradient.

The check runs on each step's summed micro-batch gradients, before the
optimizer moves any weight, so no checkpoint holding a non-finite value
is ever written: none for stage 1, none for the epoch that failed in
stage 2 (the epochs before it are already on disk).
"""

import dataclasses
import os
import re

import numpy as np
import pytest

from spoofvae import train
from spoofvae.checkpoint import save_checkpoint
from spoofvae.errors import NumericalError
from spoofvae.losses import LossReport

from conftest import TINY_MODEL, tiny_stage1, tiny_stage2
from test_cli import run, write_config
from test_shares import _assert_no_children


@pytest.fixture(params=[1, 2], ids=["in_turn", "worker"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(request.param)), raising=False)
    return request.param


def _stage2(tmp_path, toy_corpus, stage1_ckpt, cfg):
    save_checkpoint(stage1_ckpt, tmp_path / "s1.dsva")
    return run(["train-stage2", "--config",
                write_config(tmp_path / "s2.json", cfg),
                "--manifest", toy_corpus["manifest"],
                "--stage1-checkpoint", str(tmp_path / "s1.dsva"),
                "--out", str(tmp_path / "out")])


def test_a_diverging_stage1_writes_no_checkpoint(tmp_path, toy_corpus, cpus):
    model = dataclasses.replace(TINY_MODEL, channels=(4, 8))
    cfg = tiny_stage1(model=model, max_iterations=30, learning_rate=1e4)
    code, out, err = run(["train-stage1", "--config",
                          write_config(tmp_path / "s1.json", cfg),
                          "--manifest", toy_corpus["manifest"],
                          "--out", str(tmp_path / "out")])
    assert code == 2 and out == ""
    last = err.splitlines()[-1]
    assert re.fullmatch(r"internal error: stage 1 step \d+: non-finite "
                        r"loss .*recon=nan.*; gradients in .*general_encoder.*",
                        last), last
    assert not (tmp_path / "out" / "stage1.dsva").exists()
    _assert_no_children()


def test_nan_in_the_joint_decoder_writes_no_file_for_its_epoch(
        monkeypatch, tmp_path, toy_corpus, stage1_ckpt, cpus):
    steps = -(-len(toy_corpus["splits"]["train"]) // 16)  # per epoch
    real = train._step

    def poisoning(where, params, *rest):
        if where == f"stage 2 step {steps}":  # the first step of epoch 2
            dict(params)["joint_decoder.fc.b"].data[0] = np.nan
        return real(where, params, *rest)

    monkeypatch.setattr(train, "_step", poisoning)
    code, out, err = _stage2(tmp_path, toy_corpus, stage1_ckpt,
                             tiny_stage2(epochs=3, batch_size=16))
    assert code == 2
    last = err.splitlines()[-1]
    assert last.startswith(f"internal error: stage 2 step {steps}: non-finite "
                           f"loss recon=nan"), last
    assert "joint_decoder" in last.split("; gradients in ")[1]
    assert sorted(os.listdir(tmp_path / "out")) == ["epoch_001.dsva"]
    assert out == f"{tmp_path / 'out' / 'epoch_001.dsva'}\n"
    _assert_no_children()


def test_a_nan_stage1_checkpoint_stops_stage2_at_its_first_step(
        tmp_path, toy_corpus, stage1_ckpt, cpus):
    poisoned = dataclasses.replace(stage1_ckpt, params={
        k: np.full_like(v, np.nan) for k, v in stage1_ckpt.params.items()})
    code, out, err = _stage2(tmp_path, toy_corpus, poisoned,
                             tiny_stage2(epochs=1))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith(
        "internal error: stage 2 step 0: non-finite loss recon=nan")
    assert not (tmp_path / "out").exists()


def _report(**terms):
    return LossReport(terms=terms, weights={"recon": 1.0, "kl": 0.0},
                      total=sum(v for k, v in terms.items() if k == "recon"))


def test_the_check_skips_zero_weighted_terms_and_names_every_net():
    a = ("net_a.w", None)
    b = ("net_b.w", None)
    big = np.full(4, 3e38, dtype=np.float32)  # finite; its square overflows
    train._check_finite("s", _report(recon=1.0, kl=np.inf), [a, b],
                        [big, np.ones(2, np.float32)])
    with pytest.raises(NumericalError) as err:
        train._check_finite("stage 9 step 4", _report(recon=np.nan, kl=1.0),
                            [a, b], [np.array([np.inf], np.float32),
                                     np.array([np.nan], np.float32)])
    assert str(err.value) == ("stage 9 step 4: non-finite loss recon=nan, "
                              "total=nan; gradients in net_a, net_b")
    with pytest.raises(NumericalError, match=r"^s: non-finite gradients in "
                                             r"net_b$"):
        train._check_finite("s", _report(recon=1.0), [a, b],
                            [big, np.array([np.nan], np.float32)])
