"""The blocked L2 spline cost table against the former per-row solve, the
membership decisions and profiles that read it, and the certificate that
decides drawn members without it."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lethargy.scheme as scheme
import lethargy.solve as solve
from lethargy.scheme import build_scheme, membership, sample_element, validate_scheme
from lethargy.solve import _spline_cost_entry, _spline_cost_table_l2, error_profile
from lethargy.space import Grid, Space, norm


def row_loop_table(space, x, degree):
    """The former table: one batched `np.linalg.solve` of the normal
    equations per row, in the powers of (t - t_i) / (t_N - t_i)."""
    g = space.grid
    t, w = g.nodes, g.weights
    npts = t.size
    d = degree
    hankel_idx = np.add.outer(np.arange(d), np.arange(d))
    cost = np.full((npts + 1, npts + 1), math.inf)
    for i in range(npts):
        span = npts - i
        dt = (t[i:] - t[i]) / max(float(t[-1] - t[i]), 1e-300)
        pows = np.vander(dt, 2 * d - 1, increasing=True)
        ws = w[i:]
        mom = np.cumsum(ws[:, None] * pows, axis=0)
        rhs_all = np.cumsum(ws[:, None] * pows[:, :d] * x[i:, None], axis=0)
        xx = np.cumsum(ws * x[i:] ** 2)
        cost[i, i + 1:i + min(d, span) + 1] = 0.0
        if span > d:
            lens = np.arange(d + 1, span + 1)
            a_stack = mom[lens - 1][:, hankel_idx]
            b_stack = rhs_all[lens - 1]
            coef = np.linalg.solve(a_stack, b_stack[..., None])[..., 0]
            sq = xx[lens - 1] - np.einsum("ld,ld->l", coef, b_stack)
            cost[i, i + d + 1:npts + 1] = np.maximum(sq, 0.0)
    return cost


def assert_tables_agree(space, x, degree, member):
    new = _spline_cost_table_l2(space, x, degree)
    old = row_loop_table(space, x, degree)
    assert not np.isnan(new).any()
    finite = np.isfinite(old)
    assert np.array_equal(np.isfinite(new), finite)
    size = np.subtract.outer(-np.arange(old.shape[0]), -np.arange(old.shape[0]))  # j - i
    assert np.all(new[(size >= 1) & (size <= degree)] == 0.0)  # interpolating cells
    if not member:  # a member's exactly fitting cells cost rounding noise, clipped to 0 or not
        assert np.array_equal(new == 0.0, old == 0.0)
    xx = float(np.sum(space.grid.weights * x * x))
    assert np.all(np.abs(new[finite] - old[finite]) <= 1e-12 * xx)


def spline_element(space, degree, shape, rng):
    npts = space.grid.size
    if shape == "member":
        s = build_scheme({"kind": "spline", "degree": degree, "n_max": 3,
                          "space": {"carrier": "grid", "domain": "interval", "nodes": npts,
                                    "norm": "lp", "p": 2.0}})
        return sample_element(s, int(rng.integers(0, 4)), rng)
    x = rng.standard_normal(npts)
    if shape == "scaled":  # the whole element far from 1
        return x * 10.0 ** rng.uniform(-150.0, 150.0)
    if shape == "spiky":  # node values over many orders of magnitude
        return x * 10.0 ** rng.uniform(-8.0, 8.0, npts)
    return x


@settings(max_examples=120, deadline=None)
@given(st.integers(4, 129), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "member", "scaled", "spiky"]))
@example(npts=101, degree=4, seed=765433877, shape="scaled")  # max|x| 4.5e-150
def test_blocked_table_matches_row_loop(npts, degree, seed, shape):
    space = Space.lp_grid(Grid.interval(0.0, 1.0, npts), 2.0)
    x = spline_element(space, degree, shape, np.random.default_rng(seed))
    assert_tables_agree(space, x, degree, shape == "member")


@pytest.mark.parametrize("shape", ["random", "member"])
def test_full_table_at_2049_nodes_degree_4(shape, rng):
    # the shortest cells of the first rows are the worst-conditioned systems
    space = Space.lp_grid(Grid.interval(0.0, 1.0, 2049), 2.0)
    assert_tables_agree(space, spline_element(space, 4, shape, rng), 4, shape == "member")


def test_block_bound_does_not_change_the_table(rng, monkeypatch):
    space = Space.lp_grid(Grid.interval(0.0, 1.0, 65), 2.0)
    x = rng.standard_normal(65)
    want = _spline_cost_table_l2(space, x, 3)
    monkeypatch.setattr(solve, "SPLINE_CELL_BLOCK", 1)  # one row per block
    assert np.array_equal(_spline_cost_table_l2(space, x, 3), want)


def test_non_positive_pivots_are_resolved_per_cell(rng, monkeypatch):
    space = Space.lp_grid(Grid.interval(0.0, 1.0, 40), 2.0)
    x = rng.standard_normal(40)
    want = _spline_cost_table_l2(space, x, 3)
    hankel_quad = solve._hankel_quad

    def spoiled(mom, rhs):
        quad, pivot = hankel_quad(mom, rhs)
        pivot = pivot.copy()
        pivot[:, ::7] = -1.0
        pivot[:, 3::7] = math.nan
        return quad, pivot

    monkeypatch.setattr(solve, "_hankel_quad", spoiled)
    got = _spline_cost_table_l2(space, x, 3)
    i, j = np.arange(41)[:, None], np.arange(41)
    spoilt = (j - i > 3) & np.isin((j - 1) % 7, [0, 3])  # one block: column j - 1 of the pivots
    assert spoilt.sum() > 50
    for a, b in zip(*np.nonzero(spoilt)):
        assert got[a, b] == _spline_cost_entry(space, x, 3, a, b)[0]
    assert np.array_equal(got[~spoilt], want[~spoilt])
    assert np.all(np.abs(got[spoilt] - want[spoilt]) <= 1e-12 * float(np.sum(space.grid.weights * x * x)))


@pytest.mark.parametrize("desc", ["free-knot-spline",
                                  {"kind": "spline", "degree": 3, "n_max": 4,
                                   "space": {"carrier": "grid", "domain": "interval",
                                             "nodes": 33, "norm": "lp", "p": 2.0}}])
def test_no_cell_is_resolved_on_the_test_schemes(desc, rng, monkeypatch):
    s = build_scheme(desc)
    resolved = []

    def counted(space, x, degree, i, j):
        resolved.append((i, j))
        return _spline_cost_entry(space, x, degree, i, j)

    monkeypatch.setattr(solve, "_spline_cost_entry", counted)
    for n in range(s.n_max + 1):
        _spline_cost_table_l2(s.space, sample_element(s, n, rng), s.degree)
        _spline_cost_table_l2(s.space, rng.standard_normal(s.space.shape), s.degree)
    assert resolved == []


# -- decisions that read the table --------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_membership_decisions_match_row_loop(seed, monkeypatch):
    # validate reads the table only in its density proxy, so the drawn members,
    # a sum of two and a random element are also decided by `membership` directly
    s = build_scheme("free-knot-spline")
    trial_counts = (12, 200) if seed == 0 else (12,)
    rng = np.random.default_rng(seed)
    level = seed % s.n_max
    elements = [rng.standard_normal(s.space.shape), sample_element(s, level, rng)]
    a, b = sample_element(s, level, rng), sample_element(s, level, rng)
    cases = [(3.0 * a, level), (a, level + 1), (a + b, s.K(level)), (elements[0], level)]

    def decisions():
        reports = [validate_scheme(s, trials, rng_seed=seed).to_json() for trials in trial_counts]
        members = [membership(s, x, n) for x, n in cases]
        return reports, members, [error_profile(s.space, x, s, s.n_max).entries for x in elements]

    got, members, (profile, member_profile) = decisions()
    monkeypatch.setattr(solve, "_spline_cost_table_l2", row_loop_table)
    want, want_members, (want_profile, want_member_profile) = decisions()
    assert got == want
    assert members == want_members == [True, True, True, False]
    assert profile == want_profile
    # from the member's own level on, each value is rounding noise, and the
    # cuts between noise-level cells are a free choice of either table
    assert member_profile[:level] == want_member_profile[:level]
    noise = 1e-12 * norm(s.space, elements[1])
    for e, w in zip(member_profile[level:], want_member_profile[level:]):
        assert e.status == w.status == "exact"
        assert max(e.value, w.value) <= noise


# -- certified membership: the fit on the drawn cells ------------------------------

SPLINE_NORMS = {"sup": {"norm": "sup"}, "l1": {"norm": "lp", "p": 1.0},
                "l2": {"norm": "lp", "p": 2.0}}
SMALL_SPLINES = (st.integers(4, 33), st.sampled_from(sorted(SPLINE_NORMS)), st.integers(1, 4),
                 st.integers(0, 3), st.integers(0, 2**32 - 1))


def small_spline(npts, norm_kind, degree):
    return build_scheme({"kind": "spline", "degree": degree, "n_max": 3,
                         "space": {"carrier": "grid", "nodes": npts, **SPLINE_NORMS[norm_kind]}})


@settings(max_examples=60, deadline=None)
@given(*SMALL_SPLINES)
def test_certificate_agrees_with_the_dp(npts, norm_kind, degree, level, seed):
    s = small_spline(npts, norm_kind, degree)
    rng = np.random.default_rng(seed)
    x, edges = s.draw(level, rng)
    lam = float(rng.standard_normal() * 3.0)
    assert s.certified_members([lam * x], level, [edges]) == [membership(s, lam * x, level)]
    assert s.certified_members([x], level + 1, [edges]) == [membership(s, x, level + 1)]
    (a, cuts_a), (b, cuts_b) = s.draw(level, rng), s.draw(level, rng)
    added = s.certified_members([a + b], s.K(level), [np.union1d(cuts_a, cuts_b)], level)
    assert added == [membership(s, a + b, s.K(level))]


@settings(max_examples=40, deadline=None)
@given(*SMALL_SPLINES)
def test_a_moved_node_fails_the_certificate(npts, norm_kind, degree, level, seed):
    s = small_spline(npts, norm_kind, degree)
    rng = np.random.default_rng(seed)
    x, edges = s.draw(level, rng)
    fitted = [(i, j) for i, j in zip(edges, edges[1:]) if j - i > degree]  # not interpolated
    assume(fitted)
    i, j = fitted[rng.integers(len(fitted))]
    y = x.copy()
    y[rng.integers(i, j)] += 1e-3 * norm(s.space, x)
    with mock.patch.object(scheme, "membership", wraps=membership) as decide:
        [decision] = s.certified_members([y], level, [edges])
    assert decide.call_count == 1  # the certificate failed, and the DP decided
    assert decision == membership(s, y, level)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_levels_past_one_cell_per_node_fit_exactly(p, rng):
    # n knots make n + 1 cells of at least one node each: on 4 nodes, 3 knots
    # already fit exactly, and so does every larger count
    s = build_scheme({"kind": "spline", "degree": 1, "n_max": 6,
                      "space": {"carrier": "grid", "nodes": 4, "norm": "lp", "p": p}})
    x = rng.standard_normal(4)
    entries = error_profile(s.space, x, s, s.n_max).entries
    assert all(e.value <= 1e-12 * norm(s.space, x) for e in entries[3:])


@pytest.mark.parametrize("trials", [12, 200])
def test_validate_runs_the_dp_only_on_the_density_probes(trials, monkeypatch):
    s = build_scheme("free-knot-spline")
    calls = []
    spline_lp = scheme._spline_lp
    monkeypatch.setattr(scheme, "_spline_lp", lambda *args: calls.append(args) or spline_lp(*args))
    assert validate_scheme(s, trials, rng_seed=0).passed
    assert len(calls) == len(scheme._proxy_probes(s, None)) == 3  # two smooth probes, one kink
