"""The block-copy windows of a transposed conv equal the strided gather.

_transpose_cols reads the windows of a full stride-1 correlation (origin
k - 1, extent H + k - 1 by W + k - 1) through _full_cols: one copy into a
zero-bordered grid, then one contiguous slice a tap.  The window matrix
must be _gather_cols's, byte for byte, so no conv output moves.
"""

import numpy as np
import pytest

from spoofvae import tensor as T

# (c, n, h, w): the toy model's grids, the paper's 5x6 to 40x48 ones,
# extents 1x1, 1xW and Hx1, and one image
SHAPES = [
    (8, 4, 2, 2), (16, 4, 4, 4), (32, 4, 8, 8), (64, 2, 16, 16),
    (128, 2, 5, 6), (64, 2, 10, 12), (32, 2, 20, 24), (16, 2, 40, 48),
    (3, 2, 1, 1), (2, 3, 1, 7), (2, 3, 6, 1), (4, 1, 5, 3), (5, 1, 1, 1),
]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_full_cols_equal_the_gather(shape, k):
    c, n, h, w = shape
    xc = np.random.default_rng(11).normal(size=shape).astype(np.float32)
    want = T._gather_cols(xc, k, 1, k - 1, h + k - 1, w + k - 1)
    got = T._full_cols(xc, k)
    assert got.shape == want.shape and got.dtype == np.float32
    assert got.tobytes() == want.tobytes()


def test_full_cols_read_an_nchw_array_too():
    x = np.random.default_rng(12).normal(size=(3, 4, 5, 6)).astype(np.float32)
    xc = x.transpose(1, 0, 2, 3)  # a strided view, as _cm gives it
    assert T._full_cols(xc, 2).tobytes() == \
        T._gather_cols(xc, 2, 1, 1, 6, 7).tobytes()
