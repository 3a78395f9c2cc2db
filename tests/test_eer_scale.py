"""ROC and EER at evaluation-set scale (tens of thousands of trials).

The brute-force oracle in test_eval loops over records once per distinct
score, so the exactness checks here use score grids with few distinct
values; the timing check uses 100k distinct scores, where a sweep that is
quadratic in the record count would take minutes.
"""

import math
import time

import numpy as np
import pytest

from test_eval import brute_force_eer, recs

from spoofvae.evaluate import compute_eer, roc_curve


@pytest.mark.parametrize("grid", [4, 16])
def test_eer_matches_oracle_on_large_tied_sets(grid):
    rng = np.random.default_rng(100 + grid)
    bona = list(rng.binomial(grid, 0.35, 9_000) / grid)
    syn = list(rng.binomial(grid, 0.6, 13_000) / grid)
    eer, thr = compute_eer(recs(bona, syn))
    assert eer == brute_force_eer(bona, syn)
    assert 0.0 < eer < 0.5
    assert min(bona + syn) <= thr <= max(bona + syn)


def test_roc_points_match_direct_counts():
    rng = np.random.default_rng(7)
    # float32, as ScoredClips keeps scores; the thresholds are those values
    bona = np.round(rng.random(15_000) * 0.8, 3).astype(np.float32)
    syn = np.round(0.2 + rng.random(10_000) * 0.8, 3).astype(np.float32)
    points = roc_curve(recs(bona, syn)).points
    assert points[0] == (-math.inf, 1.0, 0.0)
    assert points[-1] == (math.inf, 0.0, 1.0)
    taus = np.unique(np.concatenate([bona, syn]))
    want = [(t, np.count_nonzero(bona >= t) / bona.size,
             np.count_nonzero(syn < t) / syn.size) for t in taus.tolist()]
    assert points[1:-1] == want


def test_eer_on_100k_distinct_scores_within_budget():
    rng = np.random.default_rng(3)
    scores = rng.permutation(
        np.unique(rng.random(120_000).astype(np.float32)))[:100_000]
    synthetic = rng.random(scores.size) < scores
    records = recs(scores[~synthetic], scores[synthetic])
    start = time.perf_counter()
    eer, thr = compute_eer(records)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"compute_eer took {elapsed:.1f} s on 100k records"
    # P(synthetic | s) = s with s uniform: FPR (1 - t)^2 meets FNR t^2
    # at t = 1/2, where both are 1/4
    assert eer == pytest.approx(0.25, abs=0.01)
    assert thr == pytest.approx(0.5, abs=0.02)
