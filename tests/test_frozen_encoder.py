"""Stage 2 runs the frozen general encoder once per clip, in one pass.

The (mu, logvar) rows come from one pass of shares (evaluate.on_stack)
before the first step, in batches of evaluate.SCORE_BATCH clips on
manifest positions, whatever the training batch size; every batch of
every epoch reads them.  Byte equality with one live encode of the whole
stack depends on the BLAS kernels, so the rows are compared to it within a
tolerance, and bytes are compared only between runs of one process.
"""

import numpy as np
import pytest

from spoofvae import evaluate, shares, train
from spoofvae import model as M
from spoofvae.checkpoint import save_checkpoint
from spoofvae.model import build_model
from spoofvae.tensor import Tensor, no_grad
from spoofvae.train import load_features, stage2_epochs

from conftest import TINY_FRONTEND, TINY_MODEL, tiny_stage2
from test_shares import _assert_no_children, _force_shares

B = 6


def _mixed(toy_corpus, n):
    """The first n training records, alternating the two labels."""
    train = toy_corpus["splits"]["train"]
    bona = [r for r in train if r.label == "bonafide"]
    syn = [r for r in train if r.label != "bonafide"]
    return [r for pair in zip(bona, syn) for r in pair][:n]


@pytest.fixture
def general_forwards(monkeypatch):
    """The input of every forward of the frozen general encoder."""
    inputs = []
    forward = M.Encoder.__call__

    def counted(enc, x):
        if not enc.mu_head.w.requires_grad:  # frozen: the general encoder
            inputs.append(x.data.copy())
        return forward(enc, x)

    monkeypatch.setattr(M.Encoder, "__call__", counted)
    return inputs


@pytest.mark.parametrize("n", [2 * B + 5, 2 * B, B - 1])
def test_general_rows_come_from_one_pass_before_the_first_step(
        n, monkeypatch, toy_corpus, stage1_ckpt, general_forwards):
    # pass batches of 4 clips, which no training batch of B clips lines up
    # with, on one CPU, so that this process runs every forward
    monkeypatch.setattr(evaluate, "SCORE_BATCH", 4)
    _force_shares(monkeypatch, 1)
    records = _mixed(toy_corpus, n)
    # general-encoder forwards so far, at each micro-batch: two a step
    seen = []
    real = train._stage2_loss

    def loss(*args):
        seen.append(len(general_forwards))
        return real(*args)

    monkeypatch.setattr(train, "_stage2_loss", loss)
    ckpts = list(stage2_epochs(records, stage1_ckpt,
                               tiny_stage2(epochs=2, batch_size=B)))
    assert [c.epoch for c in ckpts] == [1, 2]
    feats, _ = load_features(records, TINY_FRONTEND)
    edges = range(0, n, 4)
    assert len(general_forwards) == len(edges)
    for first, x in zip(edges, general_forwards):
        assert x.tobytes() == feats[first:first + 4].tobytes()
    # every step of both epochs ran after the pass, and none encoded
    assert len(seen) >= 2 * -(-n // B) and set(seen) == {len(edges)}


def test_cached_rows_match_a_live_encode(toy_corpus):
    feats, _ = load_features(_mixed(toy_corpus, 2 * B + 5), TINY_FRONTEND)
    bundle = build_model(TINY_MODEL, 5)
    bundle.freeze("general_encoder")
    rows = train._general_rows(bundle, feats)
    assert rows.shape == (feats.shape[0], 2, TINY_MODEL.latent_dim)
    assert rows.dtype == np.float32
    with no_grad():
        mu, logvar = bundle.general_encoder(Tensor(feats))
    np.testing.assert_allclose(rows[:, 0], mu.data, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(rows[:, 1], logvar.data, rtol=1e-6, atol=1e-6)


def _epoch_files(records, stage1_ckpt, cfg, out_dir):
    out_dir.mkdir()
    blobs = []
    for ckpt in stage2_epochs(records, stage1_ckpt, cfg):
        path = out_dir / f"epoch_{ckpt.epoch:03d}.dsva"
        save_checkpoint(ckpt, path)
        blobs.append(path.read_bytes())
    return blobs


def test_two_runs_write_identical_epoch_files(tmp_path, toy_corpus,
                                              stage1_ckpt):
    records = _mixed(toy_corpus, 2 * B + 5)
    cfg = tiny_stage2(epochs=2, batch_size=B)
    first = _epoch_files(records, stage1_ckpt, cfg, tmp_path / "a")
    second = _epoch_files(records, stage1_ckpt, cfg, tmp_path / "b")
    assert len(first) == 2 and first == second


def test_epoch_files_do_not_depend_on_the_share_count(
        monkeypatch, tmp_path, toy_corpus, stage1_ckpt):
    # pass batches of 2 clips, so the 17 clips split into as many shares
    # as there are CPUs
    monkeypatch.setattr(evaluate, "SCORE_BATCH", 2)
    records = _mixed(toy_corpus, 2 * B + 5)
    cfg = tiny_stage2(epochs=2, batch_size=B)
    runs = []
    for cpus in (1, 2, 3):
        _force_shares(monkeypatch, cpus)
        assert len(shares.bounds(len(records), 2)) == cpus
        runs.append(_epoch_files(records, stage1_ckpt, cfg,
                                 tmp_path / f"cpus{cpus}"))
    _assert_no_children()
    assert len(runs[0]) == 2 and runs[0] == runs[1] == runs[2]
