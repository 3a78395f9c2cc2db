"""A kept clip's eval rows do not depend on which other clips could be read.

eval and export-embeddings batch their clips on manifest positions, and an
unreadable clip keeps its place as a zero row whose output is dropped.  So
for any set of unreadable clips in the toy eval split, 1-3 shares and
batches of 1, 2 or 5 clips, every kept clip's score and embedding row is
byte for byte its row in the run of that batch size where every clip is
readable, and the ids and failure entries are those featurize gives in one
process.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofvae import evaluate
from spoofvae.checkpoint import restore_bundle
from spoofvae.evaluate import (EMBED_BOTH, export_embeddings, featurize,
                               score_dataset)

from conftest import TINY_FRONTEND
from test_shares import _assert_no_children, _force_shares, _unreadable

# the 12-clip split then holds 12, 6 or 3 batches, split by shares
BATCHES = (1, 2, 5)


def _outputs(bundle, records):
    scored, failures = score_dataset(bundle, records, TINY_FRONTEND)
    ids, emb, failed = export_embeddings(bundle, records, EMBED_BOTH,
                                         TINY_FRONTEND)
    assert failed == failures
    assert (scored.clip_ids, scored.labels.tobytes(), scored.synthesizer_ids) \
        == (ids[0], ids[1].tobytes(), ids[2])
    return ids, scored.scores, emb, failures


@pytest.fixture(scope="module")
def bundle(stage2_ckpts):
    return restore_bundle(stage2_ckpts[-1])[0]


@pytest.fixture(scope="module")
def readable(bundle, toy_corpus):
    """Per batch size, the eval split's outputs with every clip readable,
    in one process."""
    out = {}
    for batch in BATCHES:
        with pytest.MonkeyPatch.context() as mp:
            _force_shares(mp, 1)
            mp.setattr(evaluate, "SCORE_BATCH", batch)
            _, scores, emb, failures = _outputs(bundle,
                                                toy_corpus["splits"]["eval"])
        assert failures == []
        out[batch] = scores, emb
    return out


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kept_rows_are_those_of_the_all_readable_run(bundle, readable,
                                                     toy_corpus, data):
    good = toy_corpus["splits"]["eval"]
    gone = data.draw(st.sets(st.integers(0, len(good) - 1)), label="gone")
    cpus = data.draw(st.integers(1, 3), label="cpus")
    batch = data.draw(st.sampled_from(BATCHES), label="batch")
    records = [_unreadable(rec, f"gone_{i}.wav") if i in gone else rec
               for i, rec in enumerate(good)]
    keep = [i for i in range(len(good)) if i not in gone]
    with pytest.MonkeyPatch.context() as mp:
        _force_shares(mp, 1)
        ids, _, failures = featurize(records, TINY_FRONTEND)
        _force_shares(mp, cpus)
        mp.setattr(evaluate, "SCORE_BATCH", batch)
        ids2, scores, emb, failures2 = _outputs(bundle, records)
    _assert_no_children()
    assert scores.tobytes() == readable[batch][0][keep].tobytes()
    assert emb.tobytes() == readable[batch][1][keep].tobytes()
    assert (ids2[0], ids2[1].tobytes(), ids2[2]) == \
        (ids[0], ids[1].tobytes(), ids[2])
    assert failures2 == failures
