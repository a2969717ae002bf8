"""Invariants of E(x, A_n) that hold for every scheme kind, on small instances.

- power-of-two homogeneity: E(2^k x, A_n) == 2^k E(x, A_n) bit for bit;
- translation by a member on the linear kinds: E(x + a, A_n) = E(x, A_n);
- monotonicity: E(x, A_n) does not increase with n on exact entries;
- extreme magnitudes never give a non-finite value with a solved status.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lethargy.scheme import KINDS, build_scheme, list_schemes, sample_element
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
# sup fits close their bracket to LP_TOL * max(1, ||x||_inf): relative above
# ||x||_inf = 1, absolute below it
SUP_FITS = ("chain-sup", "trig-chain-sup", "spline-sup")
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
        want = [float(np.ldexp(e.value, k)) for e in base]
        got = [e.value for e in scaled]
        if name in SUP_FITS and k == -996:
            # below ||x||_inf = 1 the sup bracket is absolute, so a tiny
            # element's fit stops early; only the documented bound holds
            assert all(abs(g - w) <= LP_TOL for g, w in zip(got, want))
        else:
            assert got == want


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
            assert max(e_x.info["lower"], e_y.info["lower"]) <= min(e_x.value, e_y.value) + slack
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


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("name", list_schemes())
@pytest.mark.parametrize("magnitude", [1e-300, 1e300, 1.7e308])
def test_extreme_magnitudes_claim_no_non_finite_value(name, magnitude):
    s = build_scheme(name)
    n_max = min(s.n_max, 4)
    pattern = np.where(np.arange(math.prod(s.space.shape)) % 3 == 0, -1.0, 1.0).reshape(s.space.shape)
    unit = error_profile(s.space, pattern, s, n_max)
    big = error_profile(s.space, magnitude * pattern, s, n_max)
    for level, (e, u) in enumerate(zip(big.entries, unit.entries)):
        if e.status == "error":  # the error, or a sup solver's residual, overflows
            assert magnitude == 1.7e308
            with pytest.raises(SolverError):
                best_approx(s.space, magnitude * pattern, s, level)
            continue
        assert math.isfinite(e.value)
        if not (s.space.norm_kind == "sup" and s.kind == "chain" and magnitude < 1.0):
            # (a sup chain's bracket is absolute below ||x||_inf = 1)
            assert e.status == u.status
            assert e.value == pytest.approx(magnitude * u.value, rel=1e-12, abs=1e-12 * magnitude)
    if math.isfinite(magnitude * unit.element_norm):
        assert big.element_norm == pytest.approx(magnitude * unit.element_norm, rel=1e-12)
