"""Deterministic counter-based random streams."""

import numpy as np
import pytest

from spoofvae.errors import ContractError
from spoofvae.rng import Stream


class TestReproducibility:
    def test_same_seed_same_draws(self):
        a = Stream(123).uniform(0.0, 1.0, (100,))
        b = Stream(123).uniform(0.0, 1.0, (100,))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Stream(1).uniform(0.0, 1.0, (100,))
        b = Stream(2).uniform(0.0, 1.0, (100,))
        assert not np.array_equal(a, b)

    def test_spawn_children_are_stable_and_distinct(self):
        s = Stream(7)
        c0 = s.spawn(0).uniform(0.0, 1.0, (50,))
        c1 = s.spawn(1).uniform(0.0, 1.0, (50,))
        again = Stream(7).spawn(0).uniform(0.0, 1.0, (50,))
        assert np.array_equal(c0, again)
        assert not np.array_equal(c0, c1)


class TestDistributions:
    def test_uniform_range_and_moments(self):
        u = Stream(5).uniform(2.0, 4.0, (20000,))
        assert u.min() >= 2.0 and u.max() < 4.0
        assert abs(u.mean() - 3.0) < 0.02

    def test_normal_moments(self):
        z = Stream(6).normal(0.0, 1.0, (40000,))
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02
        assert np.all(np.isfinite(z))

    def test_normal_scale_and_shift(self):
        z = Stream(6).normal(10.0, 0.5, (40000,))
        assert abs(z.mean() - 10.0) < 0.02
        assert abs(z.std() - 0.5) < 0.02

    def test_randint_bounds(self):
        s = Stream(8)
        vals = [s.randint(3, 7) for _ in range(200)]
        assert set(vals) <= {3, 4, 5, 6}
        assert len(set(vals)) == 4

    def test_permutation_is_a_permutation(self):
        p = Stream(9).permutation(100)
        assert sorted(p.tolist()) == list(range(100))

    def test_permutation_depends_on_seed(self):
        assert not np.array_equal(Stream(1).permutation(50),
                                  Stream(2).permutation(50))

    def test_draws_advance_the_stream(self):
        s = Stream(10)
        a = s.uniform(0.0, 1.0, (10,))
        b = s.uniform(0.0, 1.0, (10,))
        assert not np.array_equal(a, b)

    def test_dtype_is_float64(self):
        assert Stream(3).uniform(0.0, 1.0, (4,)).dtype == np.float64
        assert Stream(3).normal(0.0, 1.0, (4,)).dtype == np.float64


class TestSeedRange:
    """Seeds and spawn indices outside [0, 2^64) would alias ones inside."""

    @pytest.mark.parametrize("seed", [-1, -2**64, 2**64, 2**64 + 5, 2**70])
    def test_a_seed_outside_64_bits_is_refused(self, seed):
        with pytest.raises(ContractError, match=r"seed must be in \[0, 2\^64\)"):
            Stream(seed)

    @pytest.mark.parametrize("index", [-1, -2**64, 2**64, 2**64 + 1])
    def test_a_spawn_index_outside_64_bits_is_refused(self, index):
        with pytest.raises(ContractError, match=r"spawn index must be in"):
            Stream(7).spawn(index)

    def test_the_ends_of_the_range_are_distinct_streams(self):
        top = Stream(2**64 - 1).uniform(0.0, 1.0, (20,))
        assert not np.array_equal(top, Stream(0).uniform(0.0, 1.0, (20,)))
        assert not np.array_equal(top, Stream(2**64 - 2).uniform(0.0, 1.0, (20,)))
        last = Stream(7).spawn(2**64 - 1).uniform(0.0, 1.0, (20,))
        assert not np.array_equal(last, Stream(7).spawn(0).uniform(0.0, 1.0, (20,)))
