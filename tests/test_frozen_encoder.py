"""Stage 2 runs the frozen general encoder once per clip.

The (mu, logvar) rows are computed before the first epoch in windows of
exactly batch_size clips; full batches read them and only the short tail
batch is encoded live.  Byte equality with live encoding depends on the
BLAS kernels, so the cache is compared to a live encode within a
tolerance, and bytes are compared only between two runs of one process.
"""

import numpy as np
import pytest

from spoofvae import model as M
from spoofvae import train
from spoofvae.checkpoint import save_checkpoint
from spoofvae.model import build_model
from spoofvae.tensor import Tensor, no_grad
from spoofvae.train import load_features, stage2_epochs

from conftest import TINY_FRONTEND, TINY_MODEL, tiny_stage2

B = 6


def _mixed(toy_corpus, n):
    """The first n training records, alternating the two labels."""
    train = toy_corpus["splits"]["train"]
    bona = [r for r in train if r.label == "bonafide"]
    syn = [r for r in train if r.label != "bonafide"]
    return [r for pair in zip(bona, syn) for r in pair][:n]


@pytest.fixture
def general_forwards(monkeypatch):
    """Batch extents of every forward of the frozen general encoder."""
    extents = []
    forward = M.Encoder.__call__

    def counted(enc, x):
        if not enc.mu_head.w.requires_grad:  # frozen: the general encoder
            extents.append(x.shape[0])
        return forward(enc, x)

    monkeypatch.setattr(M.Encoder, "__call__", counted)
    return extents


@pytest.mark.parametrize("n, want", [
    (2 * B + 5, [B, B, B] + [5, 5]),  # three cached windows, a live tail per epoch
    (2 * B, [B, B]),                  # no tail: nothing is encoded live
    (B - 1, [B - 1, B - 1]),          # no full batch: nothing is cached
])
def test_general_forwards_per_run(n, want, toy_corpus, stage1_ckpt,
                                  general_forwards):
    records = _mixed(toy_corpus, n)
    ckpts = list(stage2_epochs(records, stage1_ckpt,
                               tiny_stage2(epochs=2, batch_size=B)))
    assert [c.epoch for c in ckpts] == [1, 2]
    assert general_forwards == want


def test_cached_rows_match_a_live_encode(toy_corpus, stage1_ckpt):
    feats, _ = load_features(_mixed(toy_corpus, 2 * B + 5), TINY_FRONTEND)
    bundle = build_model(TINY_MODEL, 5)
    bundle.freeze("general_encoder")
    rows = train._general_rows(bundle, feats, B)
    assert rows.shape == (2, feats.shape[0], TINY_MODEL.latent_dim)
    assert rows.dtype == np.float32
    with no_grad():
        mu, logvar = bundle.general_encoder(Tensor(feats))
    np.testing.assert_allclose(rows[0], mu.data, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(rows[1], logvar.data, rtol=1e-6, atol=1e-6)
    assert train._general_rows(bundle, feats[:B - 1], B) is None


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
