import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lethargy.seq import (
    IndexMap,
    InsufficientWindowError,
    NullSequence,
    SequenceError,
    lethargy_majorant,
)

from conftest import random_nonincreasing


def check_majorant_postconditions(eps, h, xi):
    v, hv, x = eps.values, h.values, xi.values
    n = v.size
    assert np.all(x >= v - 1e-15), "domination fails"
    assert np.all(np.diff(x) <= 1e-15), "monotonicity fails"
    for i in range(n):
        if hv[i] < n:
            assert x[i] <= 2.0 * x[hv[i]] + 1e-15, f"doubling bound fails at {i}"


class TestLethargyMajorant:
    def test_identity_map_blocks(self):
        eps = NullSequence.geometric(0.5, 64)
        h = IndexMap.identity(64)
        xi = lethargy_majorant(eps, h)
        check_majorant_postconditions(eps, h, xi)
        # output is piecewise constant on blocks
        assert len(np.unique(xi.values)) < 64

    def test_harmonic_window_1024(self):
        n = 1024
        eps = NullSequence(1.0 / (np.arange(n) + 1.0))
        h = IndexMap(2 * np.arange(n) + 1)
        xi = lethargy_majorant(eps, h)
        check_majorant_postconditions(eps, h, xi)

    def test_zero_sequence(self):
        eps = NullSequence(np.zeros(32))
        xi = lethargy_majorant(eps, IndexMap.identity(32))
        assert np.all(xi.values == 0.0)

    def test_insufficient_window(self):
        eps = NullSequence(np.array([1.0, 0.5, 0.25]))
        h = IndexMap(np.array([10, 11, 12]))
        with pytest.raises(InsufficientWindowError):
            lethargy_majorant(eps, h)

    def test_map_must_cover_window(self):
        eps = NullSequence(np.ones(8))
        with pytest.raises(SequenceError):
            lethargy_majorant(eps, IndexMap.identity(4))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_randomized_postconditions(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 200))
        eps = NullSequence(random_nonincreasing(rng, n))
        jumps = rng.integers(0, 5, size=n)
        h = IndexMap(np.minimum(np.arange(n) + jumps, 4 * n))
        xi = lethargy_majorant(eps, h)
        check_majorant_postconditions(eps, h, xi)


class TestNullSequence:
    def test_monotonicity_enforced(self):
        with pytest.raises(SequenceError):
            NullSequence(np.array([1.0, 2.0]))

    def test_negative_rejected(self):
        with pytest.raises(SequenceError):
            NullSequence(np.array([1.0, -0.1]))

    def test_representation_noise_tolerated(self):
        v = np.array([1.0, 1.0 + 1e-14])
        NullSequence(v)  # within the relative tolerance


class TestIndexMap:
    def test_below_diagonal_rejected(self):
        with pytest.raises(SequenceError):
            IndexMap(np.array([0, 0, 1]))

    def test_call(self):
        h = IndexMap(2 * np.arange(4) + 1)
        assert h(3) == 7
