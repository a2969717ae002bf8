"""Invariants of E(x, A_n) that hold for every scheme kind, on small instances.

- power-of-two homogeneity: E(2^k x, A_n) == 2^k E(x, A_n) bit for bit, and
  a solve with incumbent 2^k c is 2^k times the solve of x with incumbent c;
- translation by a member on the linear kinds: E(x + a, A_n) = E(x, A_n);
- monotonicity: E(x, A_n) does not increase with n on exact entries;
- extreme magnitudes never give a non-finite value with a solved status;
- membership is homogeneous: 2^k x lies in A_n exactly when x does.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lethargy.scheme import KINDS, build_scheme, list_schemes, membership, sample_element
from lethargy.solve import LP_TOL, SolverError, best_approx, error_profile
from lethargy.space import norm

# a sum of squares that overflows is formed again on the scaled element
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

def _grid(nodes, norm_kind="sup", **extra):
    return {"carrier": "grid", "nodes": nodes, "norm": norm_kind, **extra}


INSTANCES = {
    "chain-sup": {"kind": "chain", "family": "monomial", "n_max": 5, "space": _grid(65)},
    "chain-l2": {"kind": "chain", "family": "monomial", "n_max": 5,
                 "space": _grid(65, "lp", p=2.0)},
    "trig-chain-sup": {"kind": "chain", "family": "trig", "n_max": 3,
                       "space": _grid(64, domain="torus")},
    "orthonormal-nterm": {"kind": "nterm", "n_max": 4, "dictionary": {"family": "orthonormal"},
                          "space": {"carrier": "coords", "dim": 8, "norm": "lp", "p": 2.0}},
    "char-nterm": {"kind": "nterm", "n_max": 3,
                   "dictionary": {"family": "char-binary-intervals", "depth": 3},
                   "space": _grid(32, "lp", p=2.0, domain="interval-cells")},
    "haar-nterm": {"kind": "wavelet-haar", "level": 4, "n_max": 3},
    "quantizer": {"kind": "quantizer", "m": [1, 2, 3, 4, 5], "space": _grid(65)},
    "interleaved-c0": {"kind": "interleaved-c0", "cap": 6},
    "spline-l2": {"kind": "spline", "degree": 2, "n_max": 3, "space": _grid(33, "lp", p=2.0)},
    "spline-sup": {"kind": "spline", "degree": 2, "n_max": 3, "space": _grid(33)},
    "rank-hs": {"kind": "rank", "space": {"carrier": "matrix", "side": 5, "norm": "hs"}},
    "rank-operator": {"kind": "rank", "space": {"carrier": "matrix", "side": 5, "norm": "operator"}},
}
SCHEMES = {name: build_scheme(desc) for name, desc in INSTANCES.items()}
LINEAR = ("chain-sup", "chain-l2", "trig-chain-sup")


def element(s, seed: int) -> np.ndarray:
    """Entries of size 1/4 to 4 with random signs, the first of size 4, so
    that 2^k x neither overflows nor underflows for |k| <= 996 and
    ||x / 2||_inf >= 1."""
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], s.space.shape) * rng.uniform(0.25, 4.0, s.space.shape)
    x.flat[0] = 4.0
    return x


def rounding(s, x) -> float:
    """Tolerance for rounding in a solved value: the sup fits' bracket, or
    1e-12 relative to the element."""
    scale = max(1.0, norm(s.space, x))
    return LP_TOL * scale if s.space.norm_kind == "sup" else 1e-12 * scale


def test_instances_cover_every_kind():
    assert {type(s) for s in SCHEMES.values()} == {build.__self__ for build in KINDS.values()}


@pytest.mark.parametrize("name", list(INSTANCES))
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_power_of_two_scaling_is_exact(name, seed):
    s = SCHEMES[name]
    x = element(s, seed)
    base_profile = error_profile(s.space, x, s, s.n_max)
    base = base_profile.entries
    for k in (-996, -1, 3, 996):
        scaled_profile = error_profile(s.space, np.ldexp(x, k), s, s.n_max)
        assert scaled_profile.element_norm == np.ldexp(base_profile.element_norm, k)
        scaled = scaled_profile.entries
        assert [e.status for e in scaled] == [e.status for e in base]
        assert [e.value for e in scaled] == [float(np.ldexp(e.value, k)) for e in base]


@pytest.mark.parametrize("name", ("chain-sup", "trig-chain-sup"))
@pytest.mark.parametrize("seed", [0, 1])
def test_incumbent_and_lower_scale_with_the_element(name, seed):
    """best_approx(2^k x, incumbent=2^k c) is 2^k best_approx(x, incumbent=c)
    bit for bit: value, minimizer, status, lower, tol and the early stop.
    An incumbent 5% above E lies within reach of the incumbent screen."""
    s = SCHEMES[name]
    x = element(s, seed)
    stopped = 0
    for n in range(1, s.n_max + 1):
        e = best_approx(s.space, x, s, n).value
        for c in (-math.inf, 0.0, 0.999 * e, 1.05 * e):
            base = best_approx(s.space, x, s, n, incumbent=c)
            stopped += base.info["solver"] == "least-squares"
            for k in (-996, -1, 3, 996):
                got = best_approx(s.space, np.ldexp(x, k), s, n, incumbent=float(np.ldexp(c, k)))
                assert (got.value, got.status, got.lower, got.tol, got.info) == (
                    np.ldexp(base.value, k), base.status, np.ldexp(base.lower, k),
                    np.ldexp(base.tol, k), base.info)
                assert got.minimizer.tobytes() == np.ldexp(base.minimizer, k).tobytes()
    assert stopped  # some incumbent above E stops a fit early


@pytest.mark.parametrize("name", LINEAR)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_adding_a_member_keeps_the_error(name, seed):
    s = SCHEMES[name]
    rng = np.random.default_rng(seed)
    x = element(s, seed)
    for n in range(s.n_max + 1):
        y = x + sample_element(s, n, rng)
        e_x, e_y = best_approx(s.space, x, s, n), best_approx(s.space, y, s, n)
        slack = rounding(s, x) + rounding(s, y)
        if s.space.norm_kind == "sup":
            # both brackets [lower, value] hold the same E(x, A_n)
            assert max(e_x.lower, e_y.lower) <= min(e_x.value, e_y.value) + slack
        assert abs(e_x.value - e_y.value) <= slack


@pytest.mark.parametrize("name", list(INSTANCES))
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_exact_errors_do_not_increase_with_n(name, seed):
    s = SCHEMES[name]
    x = element(s, seed)
    entries = error_profile(s.space, x, s, s.n_max).entries
    exact = [e.value for e in entries if e.status == "exact"]
    assert len(exact) == len(entries)
    assert all(b <= a + rounding(s, x) for a, b in zip(exact, exact[1:]))


def unit_inputs(s) -> list:
    """Two elements with max |x| = 1: the +-1 pattern (-1 at every third
    entry), and seeded normal entries divided by their largest size."""
    pattern = np.where(np.arange(math.prod(s.space.shape)) % 3 == 0, -1.0, 1.0)
    x = np.random.default_rng(0).standard_normal(s.space.shape)
    return [pattern.reshape(s.space.shape), x / np.max(np.abs(x))]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("name", list_schemes())
@pytest.mark.parametrize("magnitude", [1e-300, 1e300, 1.7e308])
def test_extreme_magnitudes_claim_no_non_finite_value(name, magnitude):
    s = build_scheme(name)
    n_max = min(s.n_max, 4)
    for x in unit_inputs(s):
        unit = error_profile(s.space, x, s, n_max)
        big = error_profile(s.space, magnitude * x, s, n_max)
        slack = LP_TOL * big.element_norm
        previous = math.inf
        for level, (e, u) in enumerate(zip(big.entries, unit.entries)):
            if e.status == "error":  # the error itself overflows
                assert magnitude * u.value >= np.finfo(float).max * (1 - 1e-12)
                with pytest.raises(SolverError):
                    best_approx(s.space, magnitude * x, s, level)
                continue
            assert math.isfinite(e.value)
            assert e.status == u.status
            assert e.value == pytest.approx(magnitude * u.value, rel=1e-12, abs=1e-12 * magnitude)
            if e.status == "exact":  # E(x, A_n) <= ||x|| and does not increase with n
                assert e.value <= min(previous, big.element_norm) + slack
                previous = e.value
        if math.isfinite(magnitude * unit.element_norm):
            assert big.element_norm == pytest.approx(magnitude * unit.element_norm, rel=1e-12)


@pytest.mark.parametrize("name", list_schemes())
def test_membership_is_invariant_under_powers_of_two(name):
    s = build_scheme(name)
    rng = np.random.default_rng(7)
    n = s.n_max // 2
    for x, inside in ((sample_element(s, n, rng), True), (rng.standard_normal(s.space.shape), False)):
        assert membership(s, x, n) == inside
        for k in (-996, -40, 40, 996):
            assert membership(s, np.ldexp(x, k), n) == inside, k


@pytest.mark.parametrize("name, shape, n", [("monomial-chain", lambda t: np.cos(40.0 * t), 1),
                                            ("quantizer-linear", lambda t: 2.0 * t - 1.0, 3)],
                         ids=["monomial-chain", "quantizer-linear"])
def test_a_small_non_member_is_no_member(name, shape, n):
    s = build_scheme(name)
    x = shape(s.space.grid.nodes)
    assert not membership(s, x, n)
    assert not membership(s, 1e-10 * x, n)
