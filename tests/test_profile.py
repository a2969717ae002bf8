"""`error_profile`'s one solve of every level against the per-level
`best_approx`, the batched L2 n-term screen against the former fit of every
subset, the lockstep greedy pursuit against the former per-restart `lstsq`
loop, and work counts that keep each profile to one factorization."""

import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lethargy.solve as solve
from lethargy.scheme import build_scheme, make_dictionary, sample_element
from lethargy.solve import (
    GREEDY_RESTARTS,
    LP_TOL,
    BestApprox,
    NoSolverError,
    SolverError,
    _fit_in_span,
    _nterm_exhaustive,
    best_approx,
    error_profile,
)
from lethargy.space import Grid, Space, norm


def _grid(nodes: int, p: float = 2.0, domain: str = "interval") -> dict:
    return {"carrier": "grid", "domain": domain, "nodes": nodes, "norm": "lp", "p": p}


INLINE = {
    "coordinate-chain": {"kind": "chain", "family": "coordinate", "n_max": 7,
                         "space": {"carrier": "coords", "dim": 8, "norm": "lp", "p": 2.0}},
    "monomial-chain-65": {"kind": "chain", "family": "monomial", "n_max": 9, "space": _grid(65)},
    "trig-chain-64": {"kind": "chain", "family": "trig", "n_max": 6,
                      "space": _grid(64, domain="torus")},
    "spline-33": {"kind": "spline", "degree": 3, "n_max": 4, "space": _grid(33)},
    "spline-p1.5": {"kind": "spline", "degree": 2, "n_max": 2, "space": _grid(12, p=1.5)},
    "rank-5-operator": {"kind": "rank", "n_max": 5,
                        "space": {"carrier": "matrix", "side": 5, "norm": "operator"}},
    "poly-atoms": {"kind": "nterm", "n_max": 9, "dictionary": {"family": "monomial", "count": 9},
                   "space": _grid(33)},
}
SCHEMES = {name: build_scheme(name) for name in (
    "monomial-chain-l2", "orthonormal-nterm", "char-binary-intervals", "haar-wavelet-nterm",
    "free-knot-spline", "rank-8-hs", "rank-8-operator")}
SCHEMES.update({name: build_scheme(desc) for name, desc in INLINE.items()})


def per_level_profile(s, x, n_max, seed):
    """(value, status) per level from `best_approx`, with the monotone
    tightening of upper-bound entries that `error_profile` applies."""
    out, best = [], math.inf
    for n in range(n_max + 1):
        try:
            r = best_approx(s.space, x, s, n, seed=seed)
        except (NoSolverError, SolverError) as exc:
            out.append((str(exc), "error"))
            continue
        value = best if r.status == "upper-bound" and r.value > best else r.value
        best = min(best, value)
        out.append((value, r.status))
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SCHEMES)), st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "member"]))
def test_profile_matches_per_level_solves(name, seed, element):
    s = SCHEMES[name]
    rng = np.random.default_rng(seed)
    if element == "member":
        x = sample_element(s, int(rng.integers(0, s.n_max + 1)), rng)
    else:
        x = rng.standard_normal(s.space.shape)
    prof = error_profile(s.space, x, s, s.n_max, seed=seed % 1000)
    want = per_level_profile(s, x, s.n_max, seed % 1000)
    assert [e.status for e in prof.entries] == [status for _, status in want]
    got = [e.value for e in prof.entries]
    if s.kind == "chain":  # one level's QR is only as wide as that level
        scale = norm(s.space, x)
        assert got == [pytest.approx(v, rel=1e-12, abs=1e-12 * scale) for v, _ in want]
    else:
        assert got == [v for v, _ in want]  # bit-identical


def test_shared_factorization_errors_become_entries():
    s = build_scheme({"kind": "spline", "degree": 2, "n_max": 3, "space": _grid(33, p=0.5)})
    x = np.random.default_rng(0).standard_normal(33)
    prof = error_profile(s.space, x, s, 3)
    want = per_level_profile(s, x, 3, 0)
    assert [(e.status, e.note) for e in prof.entries] == [(st_, msg) for msg, st_ in want]
    assert all(e.status == "error" for e in prof.entries)


def test_errors_at_some_levels_stay_at_those_levels():
    # p < 1: the zero level is the norm, and every fit in a span is refused
    s = build_scheme({"kind": "nterm", "n_max": 3, "dictionary": {"family": "monomial", "count": 4},
                      "space": _grid(17, p=0.5)})
    x = np.random.default_rng(0).standard_normal(17)
    prof = error_profile(s.space, x, s, 3)
    assert [e.status for e in prof.entries] == ["exact", "error", "error", "error"]
    assert prof.entries[0].value == norm(s.space, x)
    assert all("p < 1" in e.note for e in prof.entries[1:])
    got = [(e.note if e.status == "error" else e.value, e.status) for e in prof.entries]
    assert got == per_level_profile(s, x, 3, 0)


class ScriptedKind:
    """A kind whose one solve returns fixed answers, one per level."""
    label, n_max = "scripted", 2

    def __init__(self, answers: list):
        self.answers = answers

    def solve(self, space, x, levels, seed, incumbent):
        return [self.answers[n] for n in levels]


def test_an_upper_bound_above_an_earlier_value_is_tightened():
    # nesting: the value achieved at level 1 is feasible at level 2
    s = ScriptedKind([BestApprox(1.0, None, 1.0), BestApprox(0.5, None, 0.1),
                      BestApprox(0.7, None, 0.2)])
    prof = error_profile(Space.coords(4, math.inf), np.ones(4), s, 2)  # max|x| = 1: unscaled
    assert [(e.value, e.status, e.note) for e in prof.entries] == [
        (1.0, "exact", ""), (0.5, "upper-bound", ""),
        (0.5, "upper-bound", "tightened by level monotonicity")]


def test_l2_chain_member_profile_vanishes(rng):
    s = SCHEMES["monomial-chain-l2"]
    x = s.basis[:, :6] @ rng.standard_normal(6)  # an element of A_5
    vals = error_profile(s.space, x, s, s.n_max).values()
    assert np.all(vals[5:] <= 1e-9 * norm(s.space, x))
    assert vals[4] > 1e-6 * norm(s.space, x)


# -- the batched exhaustive screen against the former loop ----------------------------


def loop_exhaustive(space, atoms, x, n):
    """The former exhaustive search: a direct fit of every n-subset, keeping
    the first least value in `combinations` order and the least lower bound
    over all subsets; the status follows the one rule, value - lower <= LP_TOL."""
    best, lower = (math.inf, None, {}), math.inf
    for subset in combinations(range(atoms.shape[1]), n):
        fit = _fit_in_span(space, atoms[:, list(subset)], x)
        lower = min(lower, fit.lower)
        if fit.value < best[0]:
            best = (fit.value, fit.minimizer, {"subset": list(subset)})
    value, approx, info = best
    status = "exact" if value - lower <= LP_TOL else "upper-bound"
    return value, approx, lower, status, {**info, "solver": "exhaustive-subsets"}


# the 2 x 2 closed form at its singular blocks: the last atom repeats the
# first (rho = 1), negates it (rho = -1), or is within 1e-12 of parallel to it
SINGULAR_PAIRS = [dict(dim=8, n_atoms=4, n=2, seed=0, shape=shape, delta=1e-6, on_grid=on_grid)
                  for shape, on_grid in (("duplicate", True), ("negated", False),
                                         ("near-parallel", True))]


def screen_case(dim, n_atoms, n, seed, shape, delta, on_grid):
    """(space, atoms, x, n) of one drawn case of the exhaustive screen."""
    n = min(n, n_atoms)
    rng = np.random.default_rng(seed)
    space = Space.lp_grid(Grid.interval(0.0, 1.0, dim), 2.0) if on_grid else Space.coords(dim, 2.0)
    atoms = rng.standard_normal((dim, n_atoms))
    if shape == "duplicate":
        atoms[:, -1] = atoms[:, 0]
    elif shape == "negated":
        atoms[:, -1] = -atoms[:, 0]
    elif shape == "near-parallel":
        atoms[:, -1] = atoms[:, 0] + delta * rng.standard_normal(dim)
    elif shape == "scaled":  # a direct fit truncates the small columns
        atoms *= 10.0 ** rng.uniform(-8.0, 8.0, n_atoms)
    x = rng.standard_normal(dim)
    if shape == "member" or rng.uniform() < 0.3:
        pick = rng.choice(n_atoms, size=n, replace=False)
        x = atoms[:, pick] @ rng.standard_normal(n) + (0.0 if shape == "member" else delta * x)
    return space, atoms, x, n


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 12), st.integers(2, 9), st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "duplicate", "negated", "near-parallel", "scaled", "member"]),
       st.sampled_from([1e-3, 1e-6, 1e-9]), st.booleans())
@example(**SINGULAR_PAIRS[0])
@example(**SINGULAR_PAIRS[1])
@example(**SINGULAR_PAIRS[2])
def test_screen_matches_fitting_every_subset(dim, n_atoms, n, seed, shape, delta, on_grid):
    space, atoms, x, n = screen_case(dim, n_atoms, n, seed, shape, delta, on_grid)
    got = _nterm_exhaustive(space, atoms, x, n)
    want_value, want_approx, want_lower, want_status, want_info = loop_exhaustive(space, atoms, x, n)
    assert got.value == want_value
    assert got.lower == want_lower
    assert got.info == want_info
    assert got.status == want_status
    assert np.array_equal(got.minimizer, want_approx)


@pytest.mark.parametrize("case", SINGULAR_PAIRS, ids=lambda case: case["shape"])
def test_a_singular_pair_is_untrusted_and_refitted(case):
    # x = a_1 + a_2 lies far from the span of the pair (a_0, a_3): the screen
    # drops such a pair when it trusts its estimate, as it drops (a_0, a_1)
    space, atoms, _, n = screen_case(**case)
    gram = solve._gram(space, atoms)
    rho = gram[0, 3] / math.sqrt(gram[0, 0] * gram[3, 3])
    assert 1.0 - abs(rho) <= 1e-12
    x = atoms[:, 1] + atoms[:, 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by 1 - rho^2 = 0
        kept = solve._nterm_l2_candidates(space, atoms, x, n)
    assert (0, 3) in kept and (0, 1) not in kept
    got = _nterm_exhaustive(space, atoms, x, n)
    assert got.info["subset"] == [1, 2]
    assert got.value == loop_exhaustive(space, atoms, x, n)[0]


# -- the lockstep pursuit against the former per-restart loop ----------------------------


def loop_greedy(space, atoms, x, levels, seed):
    """The former pursuit: the restarts one after another, each pick's
    residual from a weighted `lstsq` fit on the atoms chosen so far."""
    rng = np.random.default_rng(seed)
    n_atoms = atoms.shape[1]
    top = max(levels)
    l2 = solve._is_l2(space)
    col_scale = np.sqrt(np.maximum(solve._diag_gram(space, atoms), 1e-300))
    best = {n: (math.inf, None, {}) for n in levels}
    for restart in range(GREEDY_RESTARTS):
        chosen: list = []
        resid = x.astype(float)
        for step in range(top):
            corr = np.abs(solve._inner_products(space, atoms, resid)) / col_scale
            corr[chosen] = -math.inf
            if restart > 0 and step == 0:
                pick = int(rng.choice(np.argsort(corr)[-min(16, n_atoms):]))
            else:
                pick = int(np.argmax(corr))
            chosen.append(pick)
            cols = atoms[:, chosen]
            fit = _fit_in_span(space, cols, x) if step + 1 in best else None
            if fit is not None and fit.value < best[step + 1][0]:
                best[step + 1] = (fit.value, fit.minimizer, {"subset": sorted(chosen)})
            if step + 1 < top:
                l2_fit = fit is not None and l2
                resid = x - (fit.minimizer if l2_fit else solve._weighted_l2_fit(space, cols, x)[2])
    # a pursuit proves no lower bound: lower 0, so the one rule leaves exact
    # only a value within LP_TOL of 0
    return {n: (value, approx, 0.0, "exact" if value <= LP_TOL else "upper-bound",
                {**info, "solver": "greedy-omp", "restarts": GREEDY_RESTARTS})
            for n, (value, approx, info) in best.items()}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24), st.integers(2, 21), st.integers(0, 2**32 - 1),
       st.sampled_from(["l2-coords", "l2-grid", "l1.5-coords"]),
       st.sampled_from(["random", "repeated-atom", "in-span"]), st.data())
def test_lockstep_pursuit_matches_the_restart_loop(dim, n_atoms, seed, where, shape, data):
    # Gaussian entries: two correlations tie only by the span (a repeated
    # atom), never by the rounding of the two residual updates
    rng = np.random.default_rng(seed)
    space = {"l2-coords": Space.coords(dim, 2.0), "l1.5-coords": Space.coords(dim, 1.5),
             "l2-grid": Space.lp_grid(Grid.interval(0.0, 1.0, dim), 2.0)}[where]
    atoms = rng.standard_normal((dim, n_atoms))
    if shape == "repeated-atom":
        atoms[:, -1] = atoms[:, 0]
    atoms = make_dictionary(space, atoms, "random").atoms
    x = rng.standard_normal(dim)
    if shape == "in-span":
        k = int(rng.integers(1, min(dim, n_atoms) + 1))
        x = atoms[:, rng.choice(n_atoms, size=k, replace=False)] @ rng.standard_normal(k)
    levels = data.draw(st.lists(st.integers(1, n_atoms), min_size=1, max_size=5, unique=True))
    got = solve._nterm_greedy(space, atoms, x, levels, seed % 1000)
    want = loop_greedy(space, atoms, x, levels, seed % 1000)
    assert sorted(got) == sorted(want) == sorted(levels)
    tol = 1e-12 * max(1.0, norm(space, x))
    for n in levels:
        assert (got[n].lower, got[n].status) == want[n][2:4]
        assert abs(got[n].value - want[n][0]) <= tol, (n, got[n].value, want[n][0])
        assert norm(space, x - got[n].minimizer) == pytest.approx(got[n].value, rel=1e-9, abs=tol)


@pytest.mark.parametrize("name", ["char-binary-intervals", "haar-wavelet-nterm"])
@pytest.mark.parametrize("element", ["random", "positive", "near-member"])
def test_lockstep_pursuit_matches_the_restart_loop_on_dyadic_dictionaries(name, element, rng):
    # once a parent is chosen its two children tie, and rounding may pick
    # either: the values must agree, the subsets need not
    s = SCHEMES[name]
    x = rng.standard_normal(s.space.shape)
    if element == "positive":
        x = np.abs(x)
    elif element == "near-member":
        x = sample_element(s, 4, rng) + 1e-9 * x
    levels = list(range(3, s.n_max + 1))
    got = solve._nterm_greedy(s.space, s.dictionary.atoms, x, levels, 5)
    want = loop_greedy(s.space, s.dictionary.atoms, x, levels, 5)
    tol = 1e-12 * max(1.0, norm(s.space, x))
    assert all(abs(got[n].value - want[n][0]) <= tol for n in levels)


# -- work counts ---------------------------------------------------------------------


def _count(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name", ["rank-8-hs", "rank-8-operator"])
def test_one_svd_per_rank_profile(name, rng, monkeypatch):
    s = SCHEMES[name]
    x = rng.standard_normal(s.space.shape)
    calls = _count(monkeypatch, np.linalg, "svd")
    prof = error_profile(s.space, x, s, s.n_max)
    assert len(calls) == 1
    monkeypatch.undo()
    assert prof.element_norm == norm(s.space, x)


@pytest.mark.parametrize("name", ["monomial-chain-l2", "trig-chain-64", "coordinate-chain"])
def test_one_qr_per_l2_chain_profile(name, rng, monkeypatch):
    s = SCHEMES[name]
    x = rng.standard_normal(s.space.shape)
    qr = _count(monkeypatch, solve.linalg, "qr")
    lstsq = _count(monkeypatch, np.linalg, "lstsq")
    error_profile(s.space, x, s, s.n_max)
    assert (len(qr), len(lstsq)) == (1, 0)


def test_one_cost_table_per_spline_profile(rng, monkeypatch):
    s = SCHEMES["free-knot-spline"]
    x = rng.standard_normal(s.space.shape)
    calls = _count(monkeypatch, solve, "_spline_cost_table_l2")
    error_profile(s.space, x, s, s.n_max)
    assert len(calls) == 1


def test_one_greedy_run_per_nterm_profile(rng, monkeypatch):
    s = SCHEMES["haar-wavelet-nterm"]  # 1023 atoms: level 1 exhaustive, 2..6 greedy
    x = rng.standard_normal(s.space.shape)
    runs = _count(monkeypatch, solve, "_nterm_greedy")
    steps = _count(monkeypatch, solve, "_inner_products")
    error_profile(s.space, x, s, s.n_max)
    assert len(runs) == 1
    # one correlation per pursuit step for all GREEDY_RESTARTS restarts in
    # lockstep, plus the screen's A^T W x at level 1
    assert len(steps) == s.n_max + 1
    monkeypatch.undo()
    lstsq = _count(monkeypatch, np.linalg, "lstsq")
    solve._nterm_greedy(s.space, s.dictionary.atoms, x, list(range(2, s.n_max + 1)), 0)
    assert lstsq == []


def test_one_greedy_run_per_sup_nterm_profile(rng, monkeypatch):
    # 511 atoms: comb(511, 2) > EXHAUSTIVE_SUBSET_LIMIT, so level 1 is
    # exhaustive and levels 2..4 share one pursuit, each fitted in the sup norm
    s = build_scheme({"kind": "nterm", "n_max": 4,
                      "dictionary": {"family": "char-binary-intervals", "depth": 8},
                      "space": {"carrier": "grid", "domain": "interval-cells", "nodes": 256,
                                "norm": "sup"}})
    x = rng.standard_normal(s.space.shape)
    runs = _count(monkeypatch, solve, "_nterm_greedy")
    prof = error_profile(s.space, x, s, s.n_max)
    assert len(runs) == 1
    monkeypatch.undo()
    want = per_level_profile(s, x, s.n_max, 0)
    assert [(e.value, e.status) for e in prof.entries] == want
    assert [status for _, status in want] == ["exact", "exact"] + ["upper-bound"] * 3


@pytest.mark.parametrize("name,grams", [("char-binary-intervals", 1),
                                         ("haar-wavelet-nterm", 0), ("orthonormal-nterm", 1)])
def test_one_gram_per_nterm_profile(name, grams, rng, monkeypatch):
    # the orthonormality test and the level-2 screen share one Gram matrix; a
    # dictionary of over 256 atoms needs neither
    s = SCHEMES[name]
    x = rng.standard_normal(s.space.shape)
    calls = _count(monkeypatch, solve, "_gram")
    error_profile(s.space, x, s, s.n_max)
    assert len(calls) == grams


def test_char_solves_form_no_product_with_the_whole_dictionary(rng):
    # the char atoms declare their windows, so every A^T W A, A^T W r and
    # ||a_j||^2 of a best_approx at levels 0-8 is a window sum: no product,
    # einsum or elementwise operation takes the whole 1024 x 127 atom matrix.
    # Without the windows the same solves form all three.
    x = rng.standard_normal(SCHEMES["char-binary-intervals"].space.shape)
    uses = {}
    for windowed in (True, False):
        s = build_scheme("char-binary-intervals")
        whole = {s.dictionary.atoms.shape, s.dictionary.atoms.shape[::-1]}
        seen = uses[windowed] = []

        class Watched(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                seen.extend(ufunc.__name__ for a in inputs
                            if isinstance(a, Watched) and a.shape in whole)
                return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

            def __array_function__(self, func, types, args, kwargs):
                seen.extend(func.__name__ for a in args
                            if isinstance(a, Watched) and a.shape in whole)
                return func(*(np.asarray(a) if isinstance(a, Watched) else a for a in args),
                            **kwargs)

        object.__setattr__(s.dictionary, "atoms", s.dictionary.atoms.view(Watched))
        if not windowed:
            object.__setattr__(s.dictionary, "windows", None)
        for n in range(9):
            best_approx(s.space, x, s, n)
    assert uses[True] == []
    assert {"matmul", "einsum", "multiply"} <= set(uses[False])


def test_greedy_fits_do_not_revalidate(rng, monkeypatch):
    s = SCHEMES["haar-wavelet-nterm"]
    x = rng.standard_normal(s.space.shape)
    counts = []
    for n in (3, 6):
        checks = _count(monkeypatch, Space, "check")
        res = best_approx(s.space, x, s, n)
        assert res.info["solver"] == "greedy-omp"
        counts.append(len(checks))
        monkeypatch.undo()
    assert counts == [1, 1]  # the element itself, not one check per fit
