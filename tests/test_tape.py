"""The autodiff tape is released during backward.

Once a node's closure has run, the node drops its closure, its parent
links and its gradient: intermediates die with the caller's last
reference, leaves keep .grad, and a consumed graph cannot be
differentiated again through any of its nodes.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from spoofvae import tensor as T
from spoofvae.data import ToyConfig, generate_toy_dataset, parse_manifest
from spoofvae.errors import ContractError
from spoofvae.tensor import Tensor
from spoofvae.train import StageConfig, train_stage1


def leaf(*shape, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape).astype(np.float32),
                  requires_grad=True)


def small_graph():
    """(leaves, intermediates, loss) of a conv -> leaky_relu -> matmul net."""
    x = leaf(2, 3, 8, 8, seed=1)
    w = leaf(4, 3, 3, 3, seed=2)
    v = leaf(4 * 4 * 4, 1, seed=3)
    h = T.conv2d(x, w, stride=2, padding=1)
    a = T.leaky_relu(h)
    flat = a.reshape((2, 4 * 4 * 4))
    loss = T.reduce_sum(T.square(flat @ v))
    return (x, w, v), (h, a, flat), loss


def test_intermediates_die_after_backward():
    _, (h, a, flat), loss = small_graph()
    # h.data and a.data are fresh arrays; flat.data is a view of a.data
    refs = [weakref.ref(t) for t in (h, a, flat, h.data, a.data)]
    del h, a, flat
    gc.collect()
    assert all(r() is not None for r in refs)  # the tape holds them
    loss.backward()
    # no gc.collect: the tape releases by reference counting alone
    assert [r() for r in refs] == [None] * 5


def test_leaves_keep_grad_and_intermediates_do_not():
    leaves, inters, loss = small_graph()
    loss.backward()
    for t in leaves:
        assert t.grad is not None and t.grad.shape == t.shape
        assert t.grad.dtype == np.float32 and np.isfinite(t.grad).all()
    for t in inters + (loss,):
        assert t.grad is None
        assert t._parents == () and t._backward_fn is None


def test_leaf_grads_match_the_closed_form():
    x = leaf(5, 3, seed=4)
    w = leaf(3, 2, seed=5)
    y = x @ w
    loss = T.reduce_sum(T.square(y))
    loss.backward()
    g = 2.0 * (x.data @ w.data)
    np.testing.assert_allclose(w.grad, x.data.T @ g, rtol=1e-5)
    np.testing.assert_allclose(x.grad, g @ w.data.T, rtol=1e-5)


class TestConsumedGraph:
    def test_second_backward_on_the_loss(self):
        _, _, loss = small_graph()
        loss.backward()
        with pytest.raises(ContractError, match="already run"):
            loss.backward()

    def test_backward_on_an_intermediate(self):
        _, (h, a, flat), loss = small_graph()
        loss.backward()
        with pytest.raises(ContractError, match="already run"):
            T.reduce_sum(flat).backward()
        with pytest.raises(ContractError, match="already run"):
            T.reduce_sum(h).backward()

    def test_new_graph_over_a_consumed_node(self):
        (x, w, v), (h, a, flat), loss = small_graph()
        loss.backward()
        fresh = T.reduce_sum(T.square(a) + leaf(*a.shape, seed=9))
        with pytest.raises(ContractError, match="already run"):
            fresh.backward()

    def test_leaves_are_reusable_across_graphs(self):
        (x, w, v), _, loss = small_graph()
        loss.backward()
        first = w.grad.copy()
        w.grad = None
        h = T.conv2d(x, w, stride=2, padding=1)
        T.reduce_sum(T.square(
            T.leaky_relu(h).reshape((2, 64)) @ v)).backward()
        assert np.array_equal(w.grad, first)


def test_paper_size_stage1_peak_memory(tmp_path):
    # two stage-1 iterations at the paper's 80x96, 16-128-channel size and
    # batch 32; with the whole tape alive until the loss died the traced
    # peak was about 217 MB
    manifest = generate_toy_dataset(
        ToyConfig(clips_train=16, clips_dev=0, clips_eval=0, seed=3),
        str(tmp_path))
    records = parse_manifest(manifest)
    cfg = StageConfig.stage1(max_iterations=2, seed=1)
    assert cfg.batch_size == len(records) == 32
    gc.collect()
    tracemalloc.start()
    try:
        train_stage1(records, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 160e6, f"traced peak {peak / 1e6:.1f} MB"
