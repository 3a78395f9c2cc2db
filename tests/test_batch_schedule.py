"""Which clips each training step takes, in both stages.

Each step's clip indices are recorded through train._requests, whose
first per-clip array is the batch, and compared with the schedule written
out from the shuffle stream (child 1 of the seed's master stream):
stage 1 takes only full batches and reshuffles each pass; stage 2 takes
ceil(n / batch_size) batches an epoch from one shuffle, the short tail
included.  Only indices are compared, so no BLAS kernel can move them.
"""

import pytest

from spoofvae import train
from spoofvae.rng import Stream
from spoofvae.train import stage2_epochs, train_stage1

from conftest import tiny_stage1, tiny_stage2
from test_frozen_encoder import _mixed

B = 4
PASSES = 3


@pytest.fixture
def taken(monkeypatch):
    """The clip indices of each training step, in order."""
    batches = []
    real = train._requests

    def recorded(per_clip, *whole):
        batches.append(per_clip[0].tolist())
        return real(per_clip, *whole)

    monkeypatch.setattr(train, "_requests", recorded)
    return batches


def _shuffles(seed, n):
    """The first PASSES permutations of n clips that seed's run draws."""
    stream = Stream(seed).spawn(1)
    return [stream.permutation(n).tolist() for _ in range(PASSES)]


@pytest.mark.parametrize("n", [2 * B + 5, B - 1])
def test_stage1_takes_full_batches_reshuffled_each_pass(n, toy_corpus, taken):
    size = min(B, n)
    per_pass = n // size
    cfg = tiny_stage1(batch_size=B, max_iterations=PASSES * per_pass)
    train_stage1(_mixed(toy_corpus, n), cfg)
    assert taken == [order[i * size:(i + 1) * size]
                     for order in _shuffles(cfg.seed, n)
                     for i in range(per_pass)]


@pytest.mark.parametrize("n", [2 * B + 5, B - 1])
def test_stage2_takes_every_batch_of_one_shuffle_an_epoch(n, toy_corpus,
                                                          stage1_ckpt, taken):
    cfg = tiny_stage2(batch_size=B, epochs=PASSES)
    ckpts = list(stage2_epochs(_mixed(toy_corpus, n), stage1_ckpt, cfg))
    assert taken == [order[lo:lo + B] for order in _shuffles(cfg.seed, n)
                     for lo in range(0, n, B)]
    assert [c.iteration for c in ckpts] == \
        [epoch * -(-n // B) for epoch in range(1, PASSES + 1)]
