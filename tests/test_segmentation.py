"""The min-max segmentation solver behind the quantizer and the sup-norm spline,
against slow oracles: brute-force partitions, the former bisection over the
half-range, and the former breakpoint dynamic program."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lethargy.scheme import build_scheme
from lethargy.solve import LP_TOL, _sup_fit, best_approx, best_m_value_sup
from test_solve import brute_force_partition_value


def bisection_quantizer(values: np.ndarray, m: int):
    """The former quantizer: a Python greedy check per bisection step of the
    half-range down to adjacent floats, then the greedy partition at hi."""
    def feasible(v, t):
        groups, start, bounds = 1, v[0], [0]
        for i in range(1, v.size):
            if v[i] - start > 2.0 * t:
                groups += 1
                start = v[i]
                bounds.append(i)
                if groups > m:
                    return False, bounds
        return True, bounds

    order = np.argsort(values, kind="stable")
    v = values[order]
    lo, hi = 0.0, float(v[-1] - v[0]) / 2.0
    if feasible(v, lo)[0]:
        hi = lo
    else:
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if feasible(v, mid)[0]:
                hi = mid
            else:
                lo = mid
    _, bounds = feasible(v, hi)
    bounds.append(v.size)
    value = 0.0
    levels = np.empty(len(bounds) - 1)
    labels_sorted = np.empty(v.size, dtype=int)
    for g, (i, j) in enumerate(zip(bounds[:-1], bounds[1:])):
        half = float(v[j - 1] - v[i]) / 2.0
        value = max(value, half)
        levels[g] = float(v[i]) + half
        labels_sorted[i:j] = g
    minimizer = np.empty_like(values, dtype=float)
    labels = np.empty_like(labels_sorted)
    minimizer[order] = levels[labels_sorted]
    labels[order] = labels_sorted
    return value, minimizer, labels


def breakpoint_dp_sup(nodes: np.ndarray, x: np.ndarray, degree: int, pieces: int) -> float:
    """The former sup spline: every cell's minimax fit in an O(N^2) table,
    combined by a max-DP over at most `pieces` cells."""
    npts = nodes.size
    cost = np.full((npts + 1, npts + 1), math.inf)
    for i in range(npts):
        for j in range(i + 1, npts + 1):
            t = nodes[i:j]
            cols = np.vander((t - t.mean()) / max(float(np.ptp(t)), 1e-300), degree,
                             increasing=True)
            cost[i, j] = _sup_fit(cols, x[i:j]).value
    dp = np.full(npts + 1, math.inf)
    dp[0] = 0.0
    for _ in range(pieces):
        dp = np.min(np.maximum(dp[:, None], cost), axis=0)
    return float(dp[npts])


TIED = st.lists(st.integers(-3, 3).map(lambda k: 0.25 * k), min_size=1, max_size=10)
MIXED = st.lists(st.one_of(st.integers(-3, 3).map(float),
                           st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)),
                 min_size=1, max_size=10)


@settings(max_examples=150, deadline=None)
@given(st.one_of(TIED, MIXED), st.integers(1, 6))
def test_quantizer_matches_brute_force(values, m):
    x = np.array(values)
    res = best_m_value_sup(x, m)
    assert res.value == brute_force_partition_value(x, m)
    assert res.lower == res.value
    ulp = np.finfo(float).eps * max(1.0, float(np.max(np.abs(x))))  # levels are rounded
    assert float(np.max(np.abs(x - res.minimizer))) == pytest.approx(res.value, abs=4.0 * ulp)
    assert len(np.unique(res.minimizer)) <= m


def _vector(seed: int, kind: str) -> np.ndarray:
    x = np.random.default_rng(seed).standard_normal(2049)
    if kind == "rounded":
        return np.round(x, 1)
    if kind == "cubic":
        return x ** 3
    if kind == "seven-valued":
        return np.floor(7.0 * (x - x.min()) / (np.ptp(x) * (1.0 + 1e-9))) * 0.37
    return x


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["normal", "rounded", "cubic", "seven-valued"]),
       st.sampled_from([1, 4, 16, 128, 256]))
def test_quantizer_bit_identical_to_bisection(seed, kind, m):
    x = _vector(seed, kind)
    res = best_m_value_sup(x, m)
    want_value, want_minimizer, want_labels = bisection_quantizer(x, m)
    assert res.value == want_value
    assert np.array_equal(res.minimizer, want_minimizer)
    # the cell midpoints increase with the cells, so the minimizer's levels number the partition
    assert np.array_equal(np.unique(res.minimizer, return_inverse=True)[1], want_labels)
    assert res.lower == res.value
    assert res.info["iterations"] <= 70


@settings(max_examples=12, deadline=None)
@given(st.integers(4, 65), st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**32 - 1),
       st.sampled_from(["noisy", "kink", "piecewise"]))
def test_sup_spline_matches_breakpoint_dp(nodes, degree, knots, seed, kind):
    s = build_scheme({"kind": "spline", "degree": degree, "n_max": 3,
                      "space": {"carrier": "grid", "domain": "interval",
                                "nodes": nodes, "norm": "sup"}})
    t = s.space.grid.nodes
    rng = np.random.default_rng(seed)
    if kind == "noisy":
        x = np.sin(7.0 * t) + 0.1 * rng.standard_normal(nodes)
    elif kind == "kink":
        x = np.abs(t - rng.uniform()) ** 0.5
    else:
        x = np.where(t < rng.uniform(), rng.standard_normal(), rng.standard_normal() * t)
    res = best_approx(s.space, x, s, knots)
    want = breakpoint_dp_sup(t, x, degree, knots + 1)
    tol = LP_TOL * max(1.0, float(np.max(np.abs(x))))
    assert res.value == pytest.approx(want, abs=tol)
    assert res.lower <= want + tol
    assert res.value == pytest.approx(float(np.max(np.abs(x - res.minimizer))), abs=1e-15)
    assert len(res.info["knot_nodes"]) <= knots
    assert res.status == "exact"
    assert res.value - res.lower <= tol
