"""The window kernels of indicator dictionaries against the dense products.

A dictionary whose family builds indicator atoms declares their windows
(start, stop, height), and the n-term kernels read inner products, norms and
Gram entries off prefix sums.  Here they meet the dense products on small
grids with nested, disjoint and overlapping windows of heights 1e-8 to 1e8,
`_nterm_levels` meets its dense path, and the declared windows of the two
indicator families rebuild their atoms bit for bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lethargy.solve as solve
from lethargy.scheme import build_scheme
from lethargy.space import Grid, Space, norm

EPS = np.finfo(float).eps


def _columns(rows, windows):
    """The atoms of `windows`, one column at a time."""
    start, stop, height = windows
    cols = np.zeros((rows, len(start)))
    for j in range(len(start)):
        cols[start[j]:stop[j], j] = height[j]
    return cols


@st.composite
def windowed(draw, max_depth=4):
    """(space, atoms, windows, x): the dyadic windows of `cells` to a drawn
    depth (nested or disjoint, repeated where the cells run out) and a few
    arbitrary ones (overlapping), on an interval or interval-cells grid."""
    cells = draw(st.integers(2, 64))
    make = draw(st.sampled_from([Grid.interval, Grid.interval_cells]))
    space = Space.lp_grid(make(0.0, 1.0, cells), 2.0)
    pairs = [(j * cells >> k, (j + 1) * cells >> k)
             for k in range(draw(st.integers(0, max_depth))) for j in range(2**k)]
    for _ in range(draw(st.integers(0 if pairs else 1, 6))):
        lo = draw(st.integers(0, cells - 1))
        pairs.append((lo, draw(st.integers(lo + 1, cells))))
    start, stop = (np.array(v) for v in zip(*[(a, b) for a, b in pairs if a < b]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    height = rng.choice([-1.0, 1.0], len(start)) * 10.0 ** rng.uniform(-8.0, 8.0, len(start))
    windows = (start, stop, height)
    x = rng.standard_normal(cells)
    if draw(st.booleans()):  # near a member
        pick = rng.choice(len(start), size=min(2, len(start)), replace=False)
        x = _columns(cells, windows)[:, pick] @ (1.0 / height[pick]) + 1e-9 * x
    return space, _columns(cells, windows), windows, x


def _rounding(space, v, stop):
    """4 (N + 4) eps sum_{i < stop} |v_i|, per window: the first-order
    rounding of a prefix-sum difference and of a dense sum over the window."""
    prefix = np.zeros((len(v) + 1, *v.shape[1:]))
    prefix[1:] = np.cumsum(np.abs(v), axis=0)
    return 4 * (space.grid.size + 4) * EPS * prefix[stop]


@settings(max_examples=150, deadline=None)
@given(windowed(), st.integers(1, 8))
def test_window_kernels_match_the_dense_products(case, restarts):
    space, atoms, windows, x = case
    start, stop, height = windows
    w = space.weights
    got = solve._inner_products(space, atoms, x, windows)
    want = solve._inner_products(space, atoms, x)
    assert np.all(np.abs(got - want) <= np.abs(height) * _rounding(space, w * x, stop))

    resid = np.random.default_rng(restarts).standard_normal((restarts, len(x))) * x
    got = solve._inner_products(space, atoms, resid.T, windows)
    want = solve._inner_products(space, atoms, resid.T)
    assert got.shape == want.shape == (len(start), restarts)
    bound = np.abs(height)[:, None] * _rounding(space, (w * resid).T, stop)
    assert np.all(np.abs(got - want) <= bound)

    got = solve._diag_gram(space, atoms, windows)
    assert np.all(np.abs(got - solve._diag_gram(space, atoms))
                  <= height**2 * _rounding(space, w, stop))

    got, want = solve._gram(space, atoms, windows), solve._gram(space, atoms)
    hi = np.minimum.outer(stop, stop)
    bound = np.abs(np.outer(height, height)) * _rounding(space, w, hi)
    assert np.all(np.abs(got - want) <= bound)
    assert np.array_equal(got, got.T)
    disjoint = hi <= np.maximum.outer(start, start)
    assert np.all(got[disjoint] == 0.0) and np.all(want[disjoint] == 0.0)


@settings(max_examples=100, deadline=None)
@given(windowed(max_depth=5), st.sampled_from([solve.EXHAUSTIVE_SUBSET_LIMIT, 30, 4]),
       st.integers(0, 999), st.data())
def test_window_levels_match_the_dense_levels(case, limit, seed, data):
    # a limit of 30 or 4 subsets sends the larger levels of these small
    # dictionaries to the greedy pursuit; the exhaustive levels fit at most
    # 5,000 subsets, to keep the example small
    space, atoms, windows, x = case
    n_atoms = atoms.shape[1]
    levels = data.draw(st.sets(st.integers(0, min(n_atoms, 8)), min_size=1, max_size=4))
    levels = sorted(n for n in levels
                    if math.comb(n_atoms, n) <= min(limit, 5000) or math.comb(n_atoms, n) > limit)
    if not levels:
        return
    with mock.patch.object(solve, "EXHAUSTIVE_SUBSET_LIMIT", limit):
        got = solve._nterm_levels(space, atoms, x, levels, seed, windows)
        want = solve._nterm_levels(space, atoms, x, levels, seed)
    tol = 1e-12 * max(1.0, norm(space, x))
    for n, g, h in zip(levels, got, want):
        assert g.info.get("solver") == h.info.get("solver"), n
        if g.info["solver"] == "greedy-omp":
            assert abs(g.value - h.value) <= tol, (n, g.value, h.value)
            assert g.lower == h.lower == 0.0
        else:  # exhaustive subsets and the zero level: bit for bit
            assert (g.value, g.lower, g.info) == (h.value, h.lower, h.info), n
            assert np.array_equal(g.minimizer, h.minimizer)


CHAR = [("char", depth, norm_, domain) for depth in range(2, 9) for norm_ in ("l2", "sup")
        for domain in ("interval", "interval-cells")]
HAAR = [("haar", nodes, budget, None) for nodes in (100, 512, 1024) for budget in (None, 1, 40)]


@pytest.mark.parametrize("family,a,b,c", CHAR + HAAR)
def test_declared_windows_rebuild_the_atoms(family, a, b, c):
    if family == "char":
        depth, norm_, domain = a, b, c
        space = {"carrier": "grid", "domain": domain, "nodes": 1024 + (domain == "interval"),
                 **({"norm": "lp", "p": 2.0} if norm_ == "l2" else {"norm": "sup"})}
        dictionary = {"family": "char-binary-intervals", "depth": depth}
    else:
        nodes, budget = a, b
        space = {"carrier": "grid", "domain": "interval-cells", "nodes": nodes,
                 "norm": "lp", "p": 2.0}
        dictionary = {"family": "haar-scaling", "max_level": 8, "budget": budget}
    d = build_scheme({"kind": "nterm", "n_max": 1, "space": space,
                      "dictionary": dictionary}).dictionary
    rebuilt = _columns(d.atoms.shape[0], d.windows)
    assert rebuilt.tobytes() == d.atoms.tobytes()


@pytest.mark.parametrize("name", ["char-binary-intervals", "haar-wavelet-nterm"])
def test_registry_indicator_schemes_declare_windows(name):
    d = build_scheme(name).dictionary
    assert _columns(d.atoms.shape[0], d.windows).tobytes() == d.atoms.tobytes()


@pytest.mark.parametrize("desc", [
    {"kind": "nterm", "n_max": 1, "dictionary": {"family": "char-binary-intervals", "depth": 0},
     "space": {"carrier": "grid", "nodes": 1025, "norm": "lp", "p": 2.0}},
    {"kind": "wavelet-haar", "level": 9, "max_level": 0, "n_max": 1}], ids=["char", "haar"])
def test_a_single_atom_takes_the_dense_coefficient(desc, rng):
    # one unit indicator is an orthonormal dictionary: its top coefficient is
    # the dense inner product, so the answer is the dense path's bit for bit
    d = build_scheme(desc)
    atoms, windows = d.dictionary.atoms, d.dictionary.windows
    assert atoms.shape[1] == 1 and windows is not None
    for _ in range(5):
        x = rng.standard_normal(d.space.shape)
        got, = solve._nterm_levels(d.space, atoms, x, [1], 0, windows)
        want, = solve._nterm_levels(d.space, atoms, x, [1], 0)
        assert got.info["solver"] == "orthonormal-top-coefficients"
        assert got.value == want.value and np.array_equal(got.minimizer, want.minimizer)


@pytest.mark.parametrize("family", ["trig", "monomial"])
def test_other_dictionaries_declare_none(family):
    s = build_scheme({"kind": "nterm", "n_max": 1, "dictionary": {"family": family},
                      "space": {"carrier": "grid", "nodes": 65, "norm": "lp", "p": 2.0}})
    assert s.dictionary.windows is None
