"""eval and export-embeddings read and score their clips in one pass of shares.

Batches sit on manifest positions: an unreadable clip keeps its place as a
zero row whose output is dropped.  So every kept clip's score and
embedding row must be the one a single process gives over a stack of all
the features, every clip readable, whatever the share count, the batch
size and where the unreadable clips fall.  The share count is forced
through os.sched_getaffinity and shares.MIN_SHARE (as in test_shares.py),
and the batch size is patched down, so that a few dozen clips cross many
batch and share edges.
"""

import os
import tracemalloc

import numpy as np
import pytest

from spoofvae import evaluate, shares
from spoofvae import model as M
from spoofvae.checkpoint import restore_bundle, save_checkpoint
from spoofvae.dsp import FrontendConfig
from spoofvae.evaluate import (EMBED_BOTH, compute_embeddings,
                               export_embeddings, featurize, score_dataset,
                               score_features)

from conftest import TINY_FRONTEND
from test_cli import run
from test_shares import (_assert_no_children, _count_forks, _force_shares,
                         _unreadable)


@pytest.fixture(scope="module")
def bundle(stage2_ckpts):
    return restore_bundle(stage2_ckpts[-1])[0]


@pytest.fixture
def best(tmp_path, stage2_ckpts):
    path = tmp_path / "best.dsva"
    save_checkpoint(stage2_ckpts[-1], path)
    return str(path)


def _in_one_stack(monkeypatch, bundle, records):
    """(ids, scores, embeddings, failures) from one stack, in one process."""
    _force_shares(monkeypatch, 1)
    ids, feats, failures = featurize(records, TINY_FRONTEND)
    return (ids, score_features(bundle, feats),
            compute_embeddings(bundle, feats, EMBED_BOTH), failures)


def _gone(records, batch):
    """records with unreadable clips inside, on the edges of and filling
    batches."""
    n = len(records)
    # first and inside batch 0, both edges of batch 1, inside batch 2,
    # every clip of batch 3
    index = {0, 1, batch - 1, batch, 2 * batch - 1, 2 * batch + batch // 3}
    index |= set(range(3 * batch, 4 * batch))
    out = list(records)
    for i in sorted(i for i in index if i < n):
        out[i] = _unreadable(out[i], f"gone_{i}.wav")
    return out


@pytest.mark.parametrize("batch", [2, 3, 5, 8])
def test_rows_are_those_of_one_stack(monkeypatch, bundle, toy_corpus, batch):
    good = toy_corpus["records"]
    monkeypatch.setattr(evaluate, "SCORE_BATCH", batch)
    ids, scores, emb, _ = _in_one_stack(monkeypatch, bundle, good)
    records = _gone(good, batch)
    kept_ids, _, _, failures = _in_one_stack(monkeypatch, bundle, records)
    keep = [i for i, rec in enumerate(records) if rec is good[i]]
    assert 10 < len(keep) < len(records)
    assert kept_ids[0] == [ids[0][i] for i in keep]
    for cpus in (1, 2, 3):
        _force_shares(monkeypatch, cpus)
        scored, failed = score_dataset(bundle, records, TINY_FRONTEND)
        ids2, emb2, failed2 = export_embeddings(bundle, records, EMBED_BOTH,
                                                TINY_FRONTEND)
        _assert_no_children()
        assert scored.scores.tobytes() == scores[keep].tobytes()
        assert emb2.tobytes() == emb[keep].tobytes()
        assert scored.clip_ids == kept_ids[0] == ids2[0]
        assert scored.synthesizer_ids == kept_ids[2] == ids2[2]
        assert scored.labels.tobytes() == kept_ids[1].tobytes() == \
            ids2[1].tobytes()
        assert failed == failed2 == failures


def test_batch_edges_sit_on_manifest_positions(monkeypatch, bundle,
                                               toy_corpus):
    # the rows may depend on which clips share a batch, so a batch grid
    # over the kept clips could move the rows after an unreadable clip; on
    # manifest positions each kept row stays the all-readable one
    good = toy_corpus["records"]
    monkeypatch.setattr(evaluate, "SCORE_BATCH", 4)
    _, scores, _, _ = _in_one_stack(monkeypatch, bundle, good)
    # a batch grid laid over the kept clips gives other bytes, so the last
    # assertion below can tell the two grids apart
    _, over_kept, _, _ = _in_one_stack(monkeypatch, bundle, good[2:])
    assert over_kept.tobytes() != scores[2:].tobytes()
    records = [_unreadable(rec, f"gone_{i}.wav")
               for i, rec in enumerate(good[:2])] + good[2:]
    scored, failures = score_dataset(bundle, records, TINY_FRONTEND)
    assert scored.scores.tobytes() == scores[2:].tobytes()
    assert [f["clip_id"] for f in failures] == ["gone_0", "gone_1"]


def _cli_outputs(tmp_path, best, manifest, label):
    out = tmp_path / label
    code, stdout, err = run(["eval", "--checkpoint", best,
                             "--manifest", manifest, "--out", str(out)])
    assert code == 0, err
    code, _, err = run(["export-embeddings", "--checkpoint", best,
                        "--manifest", manifest, "--out", str(out)])
    assert code == 0, err
    return stdout, {name: (out / name).read_bytes()
                    for name in ("scores.csv", "report.json", "embeddings.csv")}


def test_a_split_smaller_than_a_batch_gives_the_same_files(
        monkeypatch, tmp_path, toy_corpus, best):
    # one batch is never split across shares, so nothing forks
    manifest = toy_corpus["manifest"]
    assert len(toy_corpus["splits"]["eval"]) < evaluate.SCORE_BATCH
    _force_shares(monkeypatch, 1)
    reference = _cli_outputs(tmp_path, best, manifest, "one")
    forks = _count_forks(monkeypatch)
    for cpus in (2, 3):
        _force_shares(monkeypatch, cpus)
        assert _cli_outputs(tmp_path, best, manifest,
                            f"cpus{cpus}") == reference
    assert forks == []


def test_an_empty_eval_split(monkeypatch, tmp_path, bundle, best):
    _force_shares(monkeypatch, 3)
    monkeypatch.setattr(evaluate, "SCORE_BATCH", 2)
    scored, failures = score_dataset(bundle, [], TINY_FRONTEND)
    assert len(scored) == 0 and scored.scores.dtype == np.float32
    ids, emb, failed = export_embeddings(bundle, [], EMBED_BOTH, TINY_FRONTEND)
    assert emb.shape == (0, 2 * bundle.config.latent_dim)
    assert ids[0] == [] and ids[1].dtype == np.int8 and failures == failed == []

    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label,synthesizer_id,split\n")
    code, out, err = run(["export-embeddings", "--checkpoint", best,
                          "--manifest", str(manifest)])
    assert code == 0, err
    width = 2 * bundle.config.latent_dim
    assert out == ",".join(["clip_id", "label", "synthesizer_id"]
                           + [f"f_{i}" for i in range(width)]) + "\n"
    code, out, err = run(["eval", "--checkpoint", best,
                          "--manifest", str(manifest)])
    assert code == 1 and out == ""
    assert err.endswith("error: need both classes, got 0 bonafide and 0 "
                        "synthetic records\n")
    _assert_no_children()


@pytest.mark.parametrize("where", ["read", "score"])
def test_a_failed_child_in_a_later_batch_names_its_clips(
        monkeypatch, toy_corpus, tmp_path, best, where):
    # 12 eval clips, the first unreadable, in shares of records 0-3, 4-7
    # and 8-11 of two batches each.  A read or a forward that fails in a
    # child's second batch names the child's records, the manifest
    # positions of its share.
    records = toy_corpus["splits"]["eval"]
    manifest = tmp_path / "manifest.csv"
    rows = ["path,label,synthesizer_id,split"]
    for i, rec in enumerate(records):
        path = os.path.join(tmp_path, "gone.wav") if i == 0 else rec.path
        rows.append(f"{path},{rec.label},{rec.synthesizer_id},eval")
    manifest.write_text("\n".join(rows) + "\n")
    _force_shares(monkeypatch, 3)
    monkeypatch.setattr(evaluate, "SCORE_BATCH", 2)
    parent = os.getpid()
    calls = []  # a child's own calls, counted in its copy

    def fails_in_batch_1(real, per_batch):
        def wrapped(*args):
            if os.getpid() != parent:
                calls.append(None)
                if len(calls) > per_batch:
                    raise RuntimeError("boom")
            return real(*args)
        return wrapped

    if where == "score":
        monkeypatch.setattr(M, "infer", fails_in_batch_1(M.infer, 1))
    else:
        monkeypatch.setattr(evaluate, "load_clip_features",
                            fails_in_batch_1(evaluate.load_clip_features, 2))
    code, out, err = run(["eval", "--checkpoint", best,
                          "--manifest", str(manifest)])
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == \
        "internal error: clips 4-7: RuntimeError: boom"
    _assert_no_children()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_each_command_forks_once_a_cpu_and_sends_back_only_outputs(
        monkeypatch, bundle, toy_corpus, cpus):
    # 200 clips, at least MIN_SHARE batches a share: k CPUs fork k - 1
    # children per command or library pass, and every share writes its rows
    # into one shared mapping of the outputs' shape
    records = toy_corpus["records"] * 10
    assert shares.MIN_SHARE * evaluate.SCORE_BATCH * 3 <= len(records)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    forks = _count_forks(monkeypatch)
    mapped = []
    real_arrays = shares.shared_arrays

    def recorded(shapes):
        arrays = real_arrays(shapes)
        mapped.extend((a.dtype, a.shape) for a in arrays)
        return arrays

    monkeypatch.setattr(shares, "shared_arrays", recorded)
    scored, _ = score_dataset(bundle, records, TINY_FRONTEND)
    assert len(forks) == cpus - 1
    _, emb, _ = export_embeddings(bundle, records, EMBED_BOTH, TINY_FRONTEND)
    assert len(forks) == 2 * (cpus - 1)
    _, feats, _ = featurize(records, TINY_FRONTEND)
    assert len(forks) == 3 * (cpus - 1)
    scores = score_features(bundle, feats)
    assert len(forks) == 4 * (cpus - 1)
    stacked = compute_embeddings(bundle, feats, EMBED_BOTH)
    assert len(forks) == 5 * (cpus - 1)
    _assert_no_children()
    assert mapped == [(np.float32, (len(records),)),
                      (np.float32, emb.shape),
                      (np.float32, feats.shape),
                      (np.float32, (len(records),)),
                      (np.float32, emb.shape)]
    assert len(scored) == len(records)
    assert scores.tobytes() == scored.scores.tobytes()
    assert stacked.tobytes() == emb.tobytes()


def test_one_cpu_never_forks(monkeypatch, tmp_path, toy_corpus, best):
    _force_shares(monkeypatch, 1)
    monkeypatch.setattr(evaluate, "SCORE_BATCH", 1)

    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    _cli_outputs(tmp_path, best, toy_corpus["manifest"], "one")


def test_a_pass_holds_one_batch_of_features(monkeypatch, toy_corpus):
    # 1,056 paper-size clips in one share: a read buffer of one 32-clip
    # batch is 0.9 MiB, where one of every clip would be 31 MiB
    _force_shares(monkeypatch, 1)
    frontend = FrontendConfig()
    config = M.ModelConfig(channels=(2,), classifier_channels=(2,),
                           latent_dim=4)
    bundle = M.build_model(config, seed=0)
    records = toy_corpus["records"][:1] * 1056
    tracemalloc.start()
    try:
        scored, failures = score_dataset(bundle, records, frontend)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scored) == len(records) and failures == []
    assert peak < 12 << 20, f"{peak / 2**20:.1f} MiB"
