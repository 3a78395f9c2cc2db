"""Metrics, scoring, and embedding export.

The EER oracle here is deliberately different from the shipped algorithm:
instead of building the ROC convex hull, it intersects the segment between
every pair of operating points with the equal-error line TPR = 1 - FPR and
takes the best crossing, all in exact rational arithmetic.  Any concave
envelope crossing must lie on one of those segments, so the two routes agree
bit for bit when both are right.
"""

import csv
import dataclasses
import hashlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from spoofvae.checkpoint import restore_bundle
from spoofvae.errors import InputError
from spoofvae.evaluate import (EMBED_BOTH, EMBED_DISENTANGLED, EMBED_GENERAL,
                               ScoredClips, balanced_accuracy,
                               compute_embeddings, compute_eer, eval_report,
                               export_embeddings, load_clip_features,
                               per_synthesizer_report, roc_curve,
                               score_dataset, separation_ratio, write_rows,
                               write_scores_csv)

from conftest import TINY_FRONTEND


def recs(bona, syn):
    """ScoredClips of bona fide clips b0.. then synthetic (G01) clips s0.."""
    nb, ns = len(bona), len(syn)
    return ScoredClips(
        [*bona, *syn], [0] * nb + [1] * ns,
        [f"b{i}" for i in range(nb)] + [f"s{i}" for i in range(ns)],
        ["bonafide"] * nb + ["G01"] * ns)


def brute_force_eer(bona, syn) -> float:
    """All-pairs reference: max TPR on the equal-error line, exactly."""
    nb, ns = len(bona), len(syn)
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
    for tau in set(bona) | set(syn):
        pts.append((Fraction(sum(1 for s in bona if s >= tau), nb),
                    Fraction(sum(1 for s in syn if s >= tau), ns)))
    best = []
    for i, (x1, y1) in enumerate(pts):
        f1 = x1 + y1 - 1
        if f1 == 0:
            best.append(y1)
        for x2, y2 in pts[i + 1:]:
            f2 = x2 + y2 - 1
            if f1 * f2 < 0:
                s = f1 / (f1 - f2)
                best.append(y1 + s * (y2 - y1))
    return float(1 - max(best))


class TestScoredClips:
    def test_columns_and_len(self):
        scored = recs([0.25, 0.5], [1.0])
        assert len(scored) == 3
        assert scored.scores.dtype == np.float32
        assert scored.labels.dtype == np.int8
        assert scored.labels.tolist() == [0, 0, 1]
        assert list(scored.clip_ids) == ["b0", "b1", "s0"]
        assert list(scored.synthesizer_ids) == ["bonafide", "bonafide", "G01"]

    def test_score_out_of_range(self):
        with pytest.raises(InputError, match="score"):
            recs([0.5], [1.5])
        with pytest.raises(InputError, match="score"):
            recs([-0.01], [0.5])

    def test_nan_score_rejected(self):
        with pytest.raises(InputError, match="score"):
            recs([0.5], [math.nan])

    def test_bad_label(self):
        with pytest.raises(InputError, match="label"):
            ScoredClips([0.5], [2], ["a"], ["G01"])
        with pytest.raises(InputError, match="label"):
            ScoredClips([0.5], [-1])

    def test_columns_of_unequal_length(self):
        with pytest.raises(InputError, match="length"):
            ScoredClips([0.5, 0.5], [0])
        with pytest.raises(InputError, match="length"):
            ScoredClips([0.5], [0], ["a", "b"], ["bonafide"])
        with pytest.raises(InputError, match="length"):
            ScoredClips([0.5], [0], ["a"], [])

    def test_ids_are_optional(self):
        scored = ScoredClips(np.float32([0.2, 0.9]), np.int64([0, 1]))
        assert len(scored) == 2 and scored.clip_ids is None
        assert balanced_accuracy(scored) == 1.0


class TestEer:
    def test_separated_classes(self):
        eer, thr = compute_eer(recs([0.1, 0.2], [0.8, 0.9]))
        assert eer == 0.0
        assert np.float32(0.2) < thr <= np.float32(0.8)  # scores are float32

    def test_all_identical_scores(self):
        eer, _ = compute_eer(recs([0.5, 0.5], [0.5, 0.5]))
        assert eer == 0.5

    def test_interleaved_quarter(self):
        # a plain threshold sweep would report 0.5 here; the hull crossing
        # between the (0, 1/2) and (1/2, 1) operating points gives 1/4
        eer, thr = compute_eer(recs([0.4, 0.6], [0.5, 0.7]))
        assert eer == 0.25
        assert 0.4 <= thr <= 0.7

    def test_matches_brute_force_on_random_sets(self):
        for trial in range(200):
            rng = np.random.default_rng(1000 + trial)
            nb = int(rng.integers(1, 51))
            ns = int(rng.integers(1, 51))
            grid = int(rng.choice([0, 4, 8, 16]))
            if grid:
                bona = list(rng.integers(0, grid + 1, nb) / grid)
                syn = list(rng.integers(0, grid + 1, ns) / grid)
            else:
                bona = list(rng.random(nb))
                syn = list(rng.random(ns))
            eer, thr = compute_eer(recs(bona, syn))
            assert eer == brute_force_eer(bona, syn), f"trial {trial}"
            lo, hi = min(bona + syn), max(bona + syn)
            assert lo <= thr <= hi, f"trial {trial}"

    def test_monotone_transform_invariance(self):
        bona = [0.0, 0.25, 0.25, 0.5, 0.125, 0.8125]
        syn = [0.3125, 0.5, 0.75, 1.0, 0.25]
        base, _ = compute_eer(recs(bona, syn))
        transforms = [
            lambda x: x ** 3,
            lambda x: 0.5 + x / 4,
            lambda x: x / (1 + x),
            lambda x: 1.0 / (1.0 + math.exp(2.0 - 4.0 * x)),
        ]
        for t in transforms:
            eer, _ = compute_eer(recs([t(x) for x in bona],
                                      [t(x) for x in syn]))
            assert eer == base

    def test_single_class_rejected(self):
        with pytest.raises(InputError, match="both classes"):
            compute_eer(recs([0.1, 0.2], []))
        with pytest.raises(InputError, match="both classes"):
            compute_eer(recs([], [0.8]))


class TestRocCurve:
    def test_endpoints_and_monotonicity(self):
        curve = roc_curve(recs([0.2, 0.4, 0.4], [0.6, 0.9]))
        pts = curve.points
        assert pts[0] == (-math.inf, 1.0, 0.0)
        assert pts[-1] == (math.inf, 0.0, 1.0)
        taus = [p[0] for p in pts]
        assert taus == sorted(taus)
        fprs = [p[1] for p in pts]
        fnrs = [p[2] for p in pts]
        assert all(a >= b for a, b in zip(fprs, fprs[1:]))
        assert all(a <= b for a, b in zip(fnrs, fnrs[1:]))

    def test_exact_small_example(self):
        curve = roc_curve(recs([0.25, 0.5], [0.75]))
        assert curve.points == [
            (-math.inf, 1.0, 0.0),
            (0.25, 1.0, 0.0),
            (0.5, 0.5, 0.0),
            (0.75, 0.0, 0.0),
            (math.inf, 0.0, 1.0),
        ]


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy(recs([0.1, 0.3], [0.7, 0.9])) == 1.0

    def test_always_synthetic_is_half(self):
        assert balanced_accuracy(recs([0.8, 0.9], [0.7, 0.95])) == 0.5

    def test_tie_predicts_synthetic(self):
        # a score exactly at threshold counts as a synthetic call
        assert balanced_accuracy(recs([0.5], [0.5])) == 0.5

    def test_class_size_invariance(self):
        base = recs([0.1, 0.6], [0.4, 0.9])
        tripled = recs([0.1, 0.6] * 3, [0.4, 0.9])
        assert balanced_accuracy(tripled) == balanced_accuracy(base)

    def test_threshold_parameter(self):
        r = recs([0.1, 0.6], [0.7, 0.9])
        assert balanced_accuracy(r, threshold=0.5) == 0.75
        assert balanced_accuracy(r, threshold=0.65) == 1.0


def _table(seed=20, n=90):
    """Seeded float32 table: 3 synthesizers and ties on a 1/8 grid."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.6).astype(np.int8)
    families = np.array(["G01", "G02", "G03"])[rng.integers(0, 3, n)]
    synth = np.where(labels == 1, families, "bonafide").tolist()
    scores = rng.random(n).astype(np.float32)
    scores[::3] = np.round(scores[::3] * 8) / 8
    return ScoredClips(scores, labels, [f"c{i:03d}" for i in range(n)], synth)


def _per_synthesizer_oracle(scored, threshold):
    """Plain loop over clips, one dict entry per synthesizer id."""
    groups = {}
    for score, label, synth in zip(scored.scores.tolist(),
                                   scored.labels.tolist(),
                                   scored.synthesizer_ids):
        hits, count = groups.get(synth, (0, 0))
        groups[synth] = (hits + ((score >= threshold) == (label == 1)),
                         count + 1)
    order = sorted(groups, key=lambda g: (g != "bonafide", g))
    return [{"synthesizer_id": g, "accuracy": groups[g][0] / groups[g][1],
             "count": groups[g][1]} for g in order]


class TestPerSynthesizer:
    def test_partition_and_order(self):
        records = ScoredClips([0.2, 0.9, 0.7, 0.4, 0.6], [0, 1, 0, 1, 1],
                              ["b0", "s0", "b1", "s1", "s2"],
                              ["bonafide", "G02", "bonafide", "G01", "G01"])
        rows = per_synthesizer_report(records)
        assert [r["synthesizer_id"] for r in rows] == ["bonafide", "G01", "G02"]
        assert sum(r["count"] for r in rows) == len(records)
        by_id = {r["synthesizer_id"]: r for r in rows}
        assert by_id["bonafide"] == {"synthesizer_id": "bonafide",
                                     "accuracy": 0.5, "count": 2}
        assert by_id["G01"]["accuracy"] == 0.5
        assert by_id["G02"]["accuracy"] == 1.0

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("threshold", [0.5, 0.375, 0.65])
    def test_matches_plain_loop(self, seed, threshold):
        scored = _table(seed, n=40 + 17 * seed)
        got = per_synthesizer_report(scored, threshold)
        assert got == _per_synthesizer_oracle(scored, threshold)
        assert all(type(r["synthesizer_id"]) is str and
                   type(r["count"]) is int for r in got)

    def test_ids_sorted_by_code_point_after_bonafide(self):
        ids = ["b", "a", "Z", "bonafide", "a\x00", "\u00e9"]
        scored = ScoredClips([0.5] * 6, [1, 1, 1, 0, 1, 1], list("uvwxyz"), ids)
        got = [r["synthesizer_id"] for r in per_synthesizer_report(scored)]
        assert got == ["bonafide", "Z", "a", "a\x00", "b", "\u00e9"]

    def test_report_structure(self):
        report = eval_report(recs([0.1, 0.2], [0.8, 0.9]))
        d = report.to_dict()
        assert set(d) == {"eer", "eer_threshold", "balanced_accuracy",
                          "per_synthesizer", "counts"}
        assert d["counts"] == {"bonafide": 2, "synthetic": 2}
        assert d["eer"] == 0.0
        assert d["balanced_accuracy"] == 1.0


class TestPinnedBytes:
    """eval's report.json text and scores.csv for a fixed table, byte for byte.

    The digests were taken from the per-clip record implementation these
    columns replaced; a change to summation order, formatting or grouping
    moves them.
    """

    def test_report_json(self):
        text = json.dumps(eval_report(_table()).to_dict(), sort_keys=True,
                          indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "75d07e40b4650e2e96e125417e8755316ab40c621187ae22bdc8355521b8e4c6"

    def test_scores_csv(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(_table(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "575a867f573a2fc4f8484452f97fdad12bf3aaa63977e86b6a3e21e09c9419f1"


class TestSeparationRatio:
    def test_identical_clouds_give_zero(self):
        emb = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [3.0, 4.0]])
        assert separation_ratio(emb, [0, 0, 1, 1]) == 0.0

    def test_zero_spread_divides_by_epsilon(self):
        emb = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        assert separation_ratio(emb, [0, 0, 1, 1]) == 1e12

    def test_gaussian_monte_carlo(self):
        # clouds N((+-2, 0), I): gap 4, E||N(0, I_2)|| = sqrt(pi/2)
        rng = np.random.default_rng(7)
        n = 4000
        emb = np.vstack([rng.standard_normal((n, 2)) + [2.0, 0.0],
                         rng.standard_normal((n, 2)) - [2.0, 0.0]])
        labels = np.r_[np.zeros(n, int), np.ones(n, int)]
        want = 4.0 / math.sqrt(math.pi / 2.0)
        assert separation_ratio(emb, labels) == pytest.approx(want, rel=0.02)

    def test_input_validation(self):
        with pytest.raises(InputError, match="align"):
            separation_ratio(np.zeros((3, 2)), [0, 1])
        with pytest.raises(InputError, match="both classes"):
            separation_ratio(np.zeros((3, 2)), [1, 1, 1])


@pytest.fixture(scope="module")
def scorer(stage2_ckpts):
    bundle, _ = restore_bundle(stage2_ckpts[-1])
    return bundle


@pytest.fixture(scope="module")
def eval_feats(toy_corpus):
    records = toy_corpus["splits"]["eval"]
    feats = np.stack([load_clip_features(r, TINY_FRONTEND) for r in records])
    return records, feats


class TestScoring:
    def test_order_count_and_range(self, scorer, toy_corpus):
        records = toy_corpus["splits"]["eval"]
        scored, failures = score_dataset(scorer, records, TINY_FRONTEND)
        assert failures == []
        assert list(scored.clip_ids) == [r.clip_id for r in records]
        assert list(scored.synthesizer_ids) == \
            [r.synthesizer_id for r in records]
        assert np.all((scored.scores >= 0.0) & (scored.scores <= 1.0))
        assert scored.labels.tolist() == \
            [0 if r.label == "bonafide" else 1 for r in records]

    def test_determinism(self, scorer, toy_corpus):
        records = toy_corpus["splits"]["eval"]
        first, _ = score_dataset(scorer, records, TINY_FRONTEND)
        second, _ = score_dataset(scorer, records, TINY_FRONTEND)
        assert first.scores.tobytes() == second.scores.tobytes()
        assert list(first.clip_ids) == list(second.clip_ids)

    def test_empty_input(self, scorer):
        scored, failures = score_dataset(scorer, [], TINY_FRONTEND)
        assert len(scored) == 0 and failures == []

    def test_unreadable_clip_becomes_failure(self, scorer, toy_corpus):
        records = list(toy_corpus["splits"]["eval"])
        broken = dataclasses.replace(records[1], path="/nonexistent/gone.wav")
        records[1] = broken
        scored, failures = score_dataset(scorer, records, TINY_FRONTEND)
        assert len(scored) == len(records) - 1
        assert len(failures) == 1
        assert failures[0]["clip_id"] == broken.clip_id
        assert "gone.wav" in failures[0]["path"]
        assert failures[0]["error"]
        assert list(scored.clip_ids) == \
            [r.clip_id for r in records if r is not broken]

    def test_scores_csv_format(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(recs([0.125], [0.98765432]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "clip_id,label,synthesizer_id,score"
        assert lines[1] == "b0,bonafide,bonafide,0.125"
        assert lines[2] == "s0,synthetic,G01,0.987654"


def _csv_lines(ids, emb):
    out = io.StringIO()
    write_rows(out, ids, [f"f_{i}" for i in range(emb.shape[1])], emb)
    return out.getvalue().splitlines()


class TestEmbeddings:
    def test_row_widths(self, scorer, toy_corpus):
        records = toy_corpus["splits"]["eval"]
        d = scorer.config.latent_dim
        for which, width in ((EMBED_GENERAL, d), (EMBED_DISENTANGLED, d),
                             (EMBED_BOTH, 2 * d)):
            ids, emb, failures = export_embeddings(scorer, records, which,
                                                   TINY_FRONTEND)
            assert failures == []
            assert emb.shape == (len(records), width)
            assert ids[0] == [r.clip_id for r in records]
            lines = _csv_lines(ids, emb)
            assert lines[0].split(",") == \
                ["clip_id", "label", "synthesizer_id"] + \
                [f"f_{i}" for i in range(width)]
            assert len(lines) == len(records) + 1
            assert all(len(ln.split(",")) == 3 + width for ln in lines[1:])

    def test_determinism(self, scorer, toy_corpus):
        records = toy_corpus["splits"]["eval"]
        a = export_embeddings(scorer, records, EMBED_BOTH, TINY_FRONTEND)
        b = export_embeddings(scorer, records, EMBED_BOTH, TINY_FRONTEND)
        assert a[1].tobytes() == b[1].tobytes()
        assert _csv_lines(*a[:2]) == _csv_lines(*b[:2])

    def test_bad_which_rejected(self, scorer, eval_feats):
        with pytest.raises(InputError, match="which"):
            compute_embeddings(scorer, eval_feats[1], "latent")

    def test_csv_ratio_matches_in_process(self, scorer, eval_feats):
        records, feats = eval_feats
        labels = [0 if r.label == "bonafide" else 1 for r in records]
        emb = compute_embeddings(scorer, feats, EMBED_DISENTANGLED)
        direct = separation_ratio(emb, labels)

        ids, emb_out, _ = export_embeddings(scorer, records,
                                            EMBED_DISENTANGLED, TINY_FRONTEND)
        rows = list(csv.DictReader(_csv_lines(ids, emb_out)))
        parsed = np.array([[float(row[f"f_{i}"])
                            for i in range(emb.shape[1])] for row in rows])
        parsed_labels = [0 if row["label"] == "bonafide" else 1
                         for row in rows]
        assert parsed_labels == labels
        # CSV keeps 6 significant digits
        assert separation_ratio(parsed, parsed_labels) == \
            pytest.approx(direct, rel=1e-4)
