"""eval and export-embeddings read and score a chunk of clips at a time, in shares.

Every score and embedding row must be the one a single process gives over
all the features at once, whatever the share count, the chunk size and
where the unreadable clips fall.  The share count is forced through
os.sched_getaffinity and shares.MIN_SHARE (as in test_shares.py), and the
chunk and batch sizes are patched down, so that a few dozen clips cross
many chunk, batch and share edges.
"""

import os

import numpy as np
import pytest

from spoofvae import evaluate
from spoofvae import model as M
from spoofvae.checkpoint import restore_bundle, save_checkpoint
from spoofvae.evaluate import (EMBED_BOTH, compute_embeddings,
                               export_embeddings, featurize, score_dataset,
                               score_features)

from conftest import TINY_FRONTEND
from test_cli import run
from test_shares import _assert_no_children, _force_shares, _unreadable


@pytest.fixture(scope="module")
def bundle(stage2_ckpts):
    return restore_bundle(stage2_ckpts[-1])[0]


@pytest.fixture
def best(tmp_path, stage2_ckpts):
    path = tmp_path / "best.dsva"
    save_checkpoint(stage2_ckpts[-1], path)
    return str(path)


def _sizes(monkeypatch, chunk, batch):
    monkeypatch.setattr(evaluate, "CHUNK", chunk)
    monkeypatch.setattr(evaluate, "SCORE_BATCH", batch)


def _in_one_stack(monkeypatch, bundle, records):
    """(ids, scores, embeddings, failures) from one stack, in one process."""
    _force_shares(monkeypatch, 1)
    ids, feats, failures = featurize(records, TINY_FRONTEND)
    return (ids, score_features(bundle, feats),
            compute_embeddings(bundle, feats, EMBED_BOTH), failures)


def _gone(records, chunk):
    """records with unreadable clips inside, on the edges of and filling chunks."""
    n = len(records)
    # first and inside chunk 0, both edges of chunk 1, a featurize share
    # edge of chunk 2 (with 3 shares), every clip of chunk 3
    index = {0, 1, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk + chunk // 3}
    index |= set(range(3 * chunk, 4 * chunk))
    out = list(records)
    for i in sorted(i for i in index if i < n):
        out[i] = _unreadable(out[i], f"gone_{i}.wav")
    return out


@pytest.mark.parametrize("chunk", [3, 5, 8, 1024])
def test_rows_are_those_of_one_stack(monkeypatch, bundle, toy_corpus, chunk):
    batch = 4
    records = _gone(toy_corpus["records"], chunk)
    _sizes(monkeypatch, chunk, batch)
    ids, scores, emb, failures = _in_one_stack(monkeypatch, bundle, records)
    assert 10 < len(ids[0]) < len(records) and len(ids[0]) % batch
    for cpus in (1, 2, 3):
        _force_shares(monkeypatch, cpus)
        scored, failed = score_dataset(bundle, records, TINY_FRONTEND)
        ids2, emb2, failed2 = export_embeddings(bundle, records, EMBED_BOTH,
                                                TINY_FRONTEND)
        _assert_no_children()
        assert scored.scores.tobytes() == scores.tobytes()
        assert emb2.tobytes() == emb.tobytes()
        assert scored.clip_ids == ids[0] == ids2[0]
        assert scored.synthesizer_ids == ids[2] == ids2[2]
        assert scored.labels.tobytes() == ids[1].tobytes() == ids2[1].tobytes()
        assert failed == failed2 == failures


def test_batch_edges_follow_the_kept_clips(monkeypatch, bundle, toy_corpus):
    # the rows depend on which clips share a batch, so a chunk loop that
    # scored each chunk's short tail on its own would change them
    _sizes(monkeypatch, 1024, 4)
    records = _gone(toy_corpus["records"], 5)
    _, scores, _, _ = _in_one_stack(monkeypatch, bundle, records)
    _sizes(monkeypatch, 1024, 3)
    _, other, _, _ = _in_one_stack(monkeypatch, bundle, records)
    assert scores.tobytes() != other.tobytes()


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
    manifest = toy_corpus["manifest"]
    assert len(toy_corpus["splits"]["eval"]) < evaluate.SCORE_BATCH
    _force_shares(monkeypatch, 1)
    reference = _cli_outputs(tmp_path, best, manifest, "one")
    for cpus, chunk in ((2, 4), (3, 5), (3, 1024)):
        _force_shares(monkeypatch, cpus)
        monkeypatch.setattr(evaluate, "CHUNK", chunk)
        assert _cli_outputs(tmp_path, best, manifest,
                            f"cpus{cpus}_chunk{chunk}") == reference
    _assert_no_children()


def test_an_empty_eval_split(monkeypatch, tmp_path, bundle, best):
    _force_shares(monkeypatch, 3)
    _sizes(monkeypatch, 4, 2)
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


@pytest.mark.parametrize("where, clips", [("score", "4-4"), ("read", "5-5")])
def test_a_failed_child_in_a_later_chunk_names_its_clips(
        monkeypatch, toy_corpus, tmp_path, best, where, clips):
    # 12 eval clips in chunks of 4, the first unreadable: chunk 1 reads
    # records 4-7 in shares (0, 1), (1, 2), (2, 4) and scores kept clips
    # 3-6 in the same shares, one clip a batch.  A failed read names its
    # records and a failed forward its kept clips, the rows of scores.csv.
    records = toy_corpus["splits"]["eval"]
    manifest = tmp_path / "manifest.csv"
    rows = ["path,label,synthesizer_id,split"]
    for i, rec in enumerate(records):
        path = os.path.join(tmp_path, "gone.wav") if i == 0 else rec.path
        rows.append(f"{path},{rec.label},{rec.synthesizer_id},eval")
    manifest.write_text("\n".join(rows) + "\n")
    _force_shares(monkeypatch, 3)
    _sizes(monkeypatch, 4, 1)
    parent = os.getpid()
    chunks = []
    real_featurize = evaluate.featurize

    def counted(records, frontend, out=None):
        chunks.append(len(records))
        return real_featurize(records, frontend, out)

    def fails_in_chunk_1(real):
        def wrapped(*args):
            if os.getpid() != parent and len(chunks) == 2:
                raise RuntimeError("boom")
            return real(*args)
        return wrapped

    monkeypatch.setattr(evaluate, "featurize", counted)
    if where == "score":
        monkeypatch.setattr(M, "infer", fails_in_chunk_1(M.infer))
    else:
        monkeypatch.setattr(evaluate, "load_clip_features",
                            fails_in_chunk_1(evaluate.load_clip_features))
    code, out, err = run(["eval", "--checkpoint", best,
                          "--manifest", str(manifest)])
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == \
        f"internal error: clips {clips}: RuntimeError: boom"
    assert chunks == [4, 4]
    _assert_no_children()


def test_one_cpu_never_forks(monkeypatch, tmp_path, toy_corpus, best):
    _force_shares(monkeypatch, 1)
    _sizes(monkeypatch, 4, 1)

    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    _cli_outputs(tmp_path, best, toy_corpus["manifest"], "one")
