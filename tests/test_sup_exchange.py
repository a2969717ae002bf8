"""The exchange behind every sup-norm fit, against the HiGHS LP oracle."""

import math

import numpy as np
import pytest
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import lethargy.solve as solve
from lethargy.cli import run_task
from lethargy.scheme import Chain, build_scheme
from lethargy.solve import LP_TOL, _exchange_reference, _fit_in_span, _sup_fit, best_approx, error_profile
from lethargy.space import Space
from lp_oracle import sup_fit_lp

VALUES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def poly_columns(size: int, count: int) -> np.ndarray:
    """Chebyshev columns of degree < count on `size` uniform nodes of [-1, 1]."""
    return np.polynomial.chebyshev.chebvander(np.linspace(-1.0, 1.0, size), count - 1)


def trig_columns(size: int, degree: int) -> np.ndarray:
    """1, cos kt, sin kt (k <= degree) on `size` uniform nodes of the torus."""
    t = 2.0 * np.pi * np.arange(size) / size
    cols = [np.ones(size)]
    for k in range(1, degree + 1):
        cols += [np.cos(k * t), np.sin(k * t)]
    return np.column_stack(cols)


@st.composite
def poly_cases(draw):
    size = draw(st.integers(2, 65))
    cols = poly_columns(size, draw(st.integers(1, min(size - 1, 9))))
    return cols, np.array(draw(st.lists(VALUES, min_size=size, max_size=size)))


@st.composite
def trig_cases(draw):
    size = draw(st.integers(4, 65))
    cols = trig_columns(size, draw(st.integers(0, min((size - 2) // 2, 6))))
    return cols, np.array(draw(st.lists(VALUES, min_size=size, max_size=size)))


@st.composite
def member_cases(draw):
    """Elements of the span: the distance is 0 up to rounding."""
    cols, _ = draw(st.one_of(poly_cases(), trig_cases()))
    coef = np.array(draw(st.lists(VALUES, min_size=cols.shape[1], max_size=cols.shape[1])))
    return cols, cols @ coef


def assert_bracket_against_lp(cols: np.ndarray, x: np.ndarray) -> dict:
    """The fit closes its bracket, and the LP oracle's value lies in it up to
    HiGHS's rounding; returns the fit's info."""
    fit = _sup_fit(cols, x)
    lp_value, _, _ = sup_fit_lp(cols, x)
    scale = max(1.0, float(np.max(np.abs(x))))
    assert fit.value == pytest.approx(float(np.max(np.abs(x - fit.minimizer))), abs=1e-15 * scale)
    assert fit.lower <= lp_value + 1e-12
    assert fit.value <= lp_value + 1e-12 * scale
    assert fit.tol == LP_TOL * scale
    assert fit.value - fit.lower <= fit.tol
    assert fit.status == "exact"
    assert fit.info["solver"] in ("exchange", "single-point-exchange")
    return fit.info


@settings(max_examples=80, deadline=None)
@given(poly_cases())
def test_polynomial_columns(case):
    assert_bracket_against_lp(*case)


@settings(max_examples=80, deadline=None)
@given(trig_cases())
def test_trigonometric_columns(case):
    assert_bracket_against_lp(*case)


@settings(max_examples=60, deadline=None)
@given(member_cases())
def test_members_of_the_span(case):
    cols, x = case
    assert_bracket_against_lp(cols, x)
    assert _sup_fit(cols, x).value <= 1e-9 * max(1.0, float(np.max(np.abs(x))))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_repeated_column_takes_single_point_steps(data):
    size = data.draw(st.integers(3, 65))
    cols = poly_columns(size, data.draw(st.integers(1, min(size - 2, 9))))
    cols = np.column_stack([cols, cols[:, -1]])  # not a Haar system: every reference is singular
    x = np.array(data.draw(st.lists(VALUES, min_size=size, max_size=size)))
    assert assert_bracket_against_lp(cols, x)["solver"] == "single-point-exchange"


def test_repeated_column_on_zero_element_takes_single_point_steps():
    # inv does not raise on these singular reference systems (condition number ~1e17)
    cols = poly_columns(7, 5)
    cols = np.column_stack([cols, cols[:, -1]])
    fit = _sup_fit(cols, np.zeros(7))
    assert (fit.value, fit.lower, fit.info["solver"]) == (0.0, 0.0, "single-point-exchange")


def dyadic_indicators(size: int) -> np.ndarray:
    """The indicators of the dyadic intervals of `size` = 2^k nodes, coarsest first."""
    cols = []
    width = size
    while width >= 1:
        for start in range(0, size, width):
            cols.append(np.zeros(size))
            cols[-1][start:start + width] = 1.0
        width //= 2
    return np.column_stack(cols)


@st.composite
def non_haar_cases(draw):
    """Column sets that are not Haar systems: subsets of dyadic indicators
    (nested or disjoint), a repeated polynomial column, coordinate columns;
    x drawn from few values (ties), any values, or in the span."""
    kind = draw(st.sampled_from(["indicator", "repeated", "coordinate"]))
    if kind == "indicator":
        atoms = dyadic_indicators(2 ** draw(st.integers(1, 5)))
        picks = draw(st.sets(st.integers(0, atoms.shape[1] - 1), min_size=1, max_size=6))
        cols = atoms[:, sorted(picks)]
    elif kind == "repeated":
        size = draw(st.integers(2, 40))
        cols = poly_columns(size, draw(st.integers(1, min(size, 6))))
        cols = np.column_stack([cols, cols[:, draw(st.integers(0, cols.shape[1] - 1))]])
    else:
        size = draw(st.integers(1, 40))
        picks = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=min(size, 6)))
        cols = np.eye(size)[:, sorted(picks)]
    size, count = cols.shape
    values = draw(st.sampled_from([VALUES, st.integers(-2, 2).map(float)]))
    x = np.array(draw(st.lists(values, min_size=size, max_size=size)))
    if draw(st.booleans()):
        x = cols @ np.array(draw(st.lists(values, min_size=count, max_size=count)))
    return cols, x


def sine_columns() -> np.ndarray:
    t = 2.0 * np.pi * np.arange(32) / 32
    return np.column_stack([np.sin(k * t) for k in (1, 2, 3)])


# sin t, sin 2t, sin 3t vanish together at t = 0 and pi: every reference
# holding both is singular, and single-point steps meet degenerate references
DEGENERATE_32X3 = (sine_columns(), np.array(
    [-1, 2, 2, 1, -1, -2, -2, 0, -1, -2, 2, 1, 0, 0, -1, -2, -2, -1, -2, 0, -2, 0, 2, 2, 0, -2, 2, 2, 0, 2, 2, 2],
    dtype=float))


@settings(max_examples=150, deadline=None)
@given(non_haar_cases())
@example(DEGENERATE_32X3)
def test_non_haar_columns_against_the_lp(case):
    """Every fit closes its bracket, so it is exact, and is at most the LP
    oracle's value plus 1e-12 * max(1, ||x||_inf)."""
    cols, x = case
    assert_bracket_against_lp(cols, x)
    assert _fit_in_span(Space.sup_coords(x.size), cols, x).status == "exact"


def test_the_degenerate_input_closes():
    # the single-point steps pass the degenerate references without cycling
    # and close the bracket at the best error, 2
    cols, x = DEGENERATE_32X3
    fit = _sup_fit(cols, x)
    assert fit.info["solver"] == "single-point-exchange"
    assert fit.lower == 2.0
    assert fit.value - 2.0 <= LP_TOL * 2.0


def test_single_point_steps_return_the_least_value():
    # the third step's value, 19.7, is above the first's, 3.43: a fit stopped
    # there returns the least value and its approximant, not the last
    cols = sine_columns()
    x = np.random.default_rng(31).integers(-2, 3, 32).astype(float)
    with mock.patch.object(solve, "EXCHANGE_MAX_ITER", 3):
        fit = solve._single_point_exchange(cols, x, 2.0, 0)
    assert fit.value == float(np.max(np.abs(x - fit.minimizer))) < 3.5
    assert fit.info["iterations"] == 3
    best = fit.value / 2.0, np.zeros(32)  # a smaller value seen before the steps is kept
    with mock.patch.object(solve, "EXCHANGE_MAX_ITER", 3):
        assert solve._single_point_exchange(cols, x, 2.0, 0, best).value == best[0]


def test_ill_conditioned_full_rank_columns():
    # monomials t^k, k < 14, on 101 nodes of [0, 1]: condition about 4e9, so
    # the multi-point references are refused and the single-point steps,
    # on an orthonormal basis of the same span, close the bracket
    t = np.linspace(0.0, 1.0, 101)
    cols = np.column_stack([t ** k for k in range(14)])
    assert np.linalg.matrix_rank(cols) == 14
    x = np.sign(np.sin(7.0 * t)) + np.random.default_rng(0).standard_normal(101) / 10
    assert assert_bracket_against_lp(cols, x)["solver"] == "single-point-exchange"
    assert _fit_in_span(Space.sup_coords(101), cols, x).status == "exact"


def test_a_system_singular_to_working_precision_proves_nothing():
    # with every reference system refused, no step may raise `lower`: the
    # fit keeps an achieved value and is no longer exact; a fit the incumbent
    # screen stopped keeps no bound either
    cols, x = DEGENERATE_32X3
    with mock.patch.object(solve, "_reference_cond", lambda *args: math.inf):
        fit = _fit_in_span(Space.sup_coords(x.size), cols, x)
        stopped = _fit_in_span(Space.sup_coords(x.size), cols, x, math.inf)
    assert (fit.status, fit.info["solver"], fit.lower) == ("upper-bound", "single-point-exchange", 0.0)
    assert fit.value == float(np.max(np.abs(x - fit.minimizer))) <= 2.0 + LP_TOL * 2.0
    assert (stopped.info["solver"], stopped.info["iterations"], stopped.lower) == ("least-squares", 0, 0.0)
    assert stopped.status == "upper-bound"


def test_the_cap_leaves_an_open_bracket_upper_bound():
    # two multi-point and two single-point steps do not reach the best error, 2
    cols, x = DEGENERATE_32X3
    with mock.patch.object(solve, "EXCHANGE_MAX_ITER", 2):
        fit = _fit_in_span(Space.sup_coords(x.size), cols, x)
    assert (fit.status, fit.info["solver"], fit.info["iterations"]) == (
        "upper-bound", "single-point-exchange", 4)
    assert 0.0 < fit.lower <= 2.0 < fit.value - LP_TOL * 2.0
    assert fit.value == float(np.max(np.abs(x - fit.minimizer)))  # an achieved distance


def test_sup_fits_never_call_highs():
    """With `linprog` raising, the non-Haar fits and a sup n-term profile
    (trigonometric subsets on the torus) still solve, every level exact."""
    def refuse(*args, **kwargs):
        raise AssertionError("a sup fit called HiGHS")

    rng = np.random.default_rng(11)
    scheme = build_scheme({"kind": "nterm", "n_max": 3, "label": "trig-nterm-sup",
                           "dictionary": {"family": "trig", "levels": 3},
                           "space": {"carrier": "grid", "domain": "torus", "nodes": 32, "norm": "sup"}})
    with mock.patch.object(solve, "linprog", refuse):
        for cols, x in (DEGENERATE_32X3, (dyadic_indicators(16)[:, [0, 1, 3, 8]], rng.standard_normal(16)),
                        (np.column_stack([poly_columns(9, 3), poly_columns(9, 3)]), rng.standard_normal(9))):
            fit = _sup_fit(cols, x)
            assert fit.value - fit.lower <= LP_TOL * max(1.0, float(np.max(np.abs(x))))
        x = np.cos(scheme.space.grid.nodes) ** 3 + rng.standard_normal(32) / 4
        profile = error_profile(scheme.space, x, scheme, 3)
    assert [e.status for e in profile.entries] == ["exact"] * 4


def test_generic_elements_use_the_exchange():
    rng = np.random.default_rng(3)
    for cols in (poly_columns(65, 9), trig_columns(64, 6)):
        for _ in range(5):
            info = _sup_fit(cols, rng.standard_normal(cols.shape[0])).info
            assert info["solver"] == "exchange"
            assert 1 <= info["iterations"]


def test_closed_bracket_goes_on_to_the_best_error():
    # the reference {3, 2} closes the bracket within LP_TOL at 1 + 5e-11;
    # one more exchange step reaches the best error, 1
    cols, x = np.ones((4, 1)), np.array([1.0, 0.0, 2.0, 1e-10])
    fit = _sup_fit(cols, x)
    assert (fit.value, fit.lower, fit.info["solver"]) == (1.0, 1.0, "exchange")
    assert_bracket_against_lp(cols, x)


def oracle_exchange_reference(ref, neg, absr, peak):
    """The reference update as first written: one `argmax` per sign run over
    bounds from `concatenate`, kept as the oracle of `_exchange_reference`."""
    cuts = np.flatnonzero(neg[1:] != neg[:-1]) + 1
    runs = np.searchsorted(cuts, ref, side="right")
    if np.any(runs[1:] == runs[:-1]):
        new = ref.copy()
        new[int(np.abs(ref - peak).argmin())] = peak
        return new
    bounds = np.concatenate(([0], cuts, [neg.size]))
    new = np.array([a + int(absr[a:b].argmax()) for a, b in zip(bounds[runs], bounds[runs + 1])])
    if peak in new:
        return new
    pos = int(np.searchsorted(new, peak))
    if pos == 0:
        return np.concatenate(([peak], new[1:] if neg[new[0]] == neg[peak] else new[:-1]))
    if pos == new.size:
        return np.concatenate((new[:-1] if neg[new[-1]] == neg[peak] else new[1:], [peak]))
    new[pos - 1 if neg[new[pos - 1]] == neg[peak] else pos] = peak
    return new


@st.composite
def exchange_states(draw):
    """A residual of few distinct sizes (so runs hold exact ties and
    one-node runs are common) and a sorted reference of distinct indices."""
    size = draw(st.integers(1, 40))
    resid = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    end = draw(st.sampled_from([None, 0, -1]))
    if end is not None:  # the global peak at either end
        resid[end] = draw(st.sampled_from([-4, 4]))
    ref = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=min(size, 10), unique=True))
    return resid, sorted(ref)


@settings(max_examples=400, deadline=None)
@given(exchange_states())
@example(([1, 3, 3, -1, -2, 2], [0, 3, 5]))  # a tie inside a run: the first index wins
@example(([1, -1, 1, -1, 1], [0, 1, 2, 3]))  # one-node runs
@example(([-4, 1, -1, 1, -1], [1, 2, 3]))  # the global peak at the start
@example(([1, -1, 1, -1, 4], [1, 2, 3]))  # the global peak at the end
@example(([1, 1, 1, -1, 2], [0, 1, 3]))  # two reference indices in one run
def test_reference_update_matches_the_oracle(state):
    resid, ref = np.array(state[0], dtype=float), np.array(state[1], dtype=int)
    absr = np.abs(resid)
    args = ref, resid < 0, absr, int(absr.argmax())
    new, want = _exchange_reference(*args), oracle_exchange_reference(*args)
    assert new.dtype == want.dtype
    assert new.tolist() == want.tolist()


@settings(max_examples=40, deadline=None)
@given(st.one_of(poly_cases(), trig_cases()))
def test_fits_match_the_oracle_exchange(case):
    cols, x = case
    fit = _sup_fit(cols, x)
    with mock.patch.object(solve, "_exchange_reference", oracle_exchange_reference):
        want = _sup_fit(cols, x)
    assert (fit.value, fit.lower, fit.tol, fit.info) == (want.value, want.lower, want.tol, want.info)
    assert fit.minimizer.tobytes() == want.minimizer.tobytes()


@st.composite
def incumbent_problems(draw):
    """Monomial or trig columns (d = 1..9) on 33..257 nodes, one in six with a
    repeated column (every reference singular: single-point steps decide); x
    random or near a member, at scale 1 or 2^+-40."""
    size = draw(st.integers(33, 257))
    if draw(st.booleans()):
        cols = poly_columns(size, draw(st.integers(1, 9)))
    else:
        cols = trig_columns(size, draw(st.integers(0, 4)))
    if draw(st.integers(0, 5)) == 0:
        cols = np.column_stack([cols, cols[:, -1]])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(size)
    if draw(st.booleans()):
        x = cols @ rng.standard_normal(cols.shape[1]) + 1e-9 * x
    return cols, np.ldexp(x, draw(st.sampled_from([0, 40, -40])))


@settings(max_examples=40, deadline=None)
@given(incumbent_problems())
@example((poly_columns(65, 6), np.random.default_rng(1).standard_normal(65)))  # 1 and 3 steps
@example((np.zeros((33, 0)), np.random.default_rng(1).standard_normal(33)))  # no column
def test_a_fit_stops_only_below_its_incumbent(problem):
    """A fit with an incumbent is the fit without one, bit for bit, unless the
    screen stopped it at an achieved value below the incumbent; the full
    fit's value then lies below the incumbent plus its tol, so it could not
    have beaten the incumbent by more.  A stopped fit proves no bound, and
    its iterations are the reweighting steps it took: capped at that many
    steps the screen stops it the same, capped one step fewer it does not."""
    cols, x = problem
    space = Space.sup_coords(x.size)
    scale = max(1.0, float(np.max(np.abs(x))))
    full = _sup_fit(cols, x)
    for incumbent in (-math.inf, 0.0, math.inf,
                      *(full.value * (1.0 + sign * delta)
                        for delta in (0.2, 0.05, 1e-3, 1e-7, 1e-12) for sign in (1, -1))):
        fit = _fit_in_span(space, cols, x, incumbent)
        info = fit.info
        if info["solver"] != "least-squares":
            assert (fit.value, fit.lower, fit.tol, fit.status, info) == (
                full.value, full.lower, full.tol, "exact", full.info)
            assert fit.minimizer.tobytes() == full.minimizer.tobytes()
            continue
        assert (fit.lower, fit.tol) == (0.0, LP_TOL * scale)  # the screen proves nothing
        assert fit.value < incumbent
        assert full.value <= incumbent + full.tol
        assert fit.value == float(np.max(np.abs(x - fit.minimizer)))  # an achieved distance
        steps = info["iterations"]
        with mock.patch.object(solve, "LAWSON_MAX_STEPS", steps):
            again = _fit_in_span(space, cols, x, incumbent)
        assert (again.value, again.info) == (fit.value, info)
        if steps:
            with mock.patch.object(solve, "LAWSON_MAX_STEPS", steps - 1):
                assert _fit_in_span(space, cols, x, incumbent).info["solver"] != "least-squares"


def test_the_screen_stops_a_gaussian_draw_below_the_chebyshev_incumbent():
    """At level 8 of monomial-chain, E(T_9) ~ 1 is the density search's
    incumbent; a unit Gaussian draw, at distance about 0.92, stops at the
    least-squares fit, whose value bounds the full fit's from above."""
    s = build_scheme("monomial-chain")
    incumbent = best_approx(s.space, s.basis[:, 9], s, 8).value  # T_9 on the grid
    assert 0.9999 < incumbent <= 1.0  # 1 on [0, 1], a little less on 2,049 nodes
    x = np.random.default_rng(5).standard_normal(s.space.shape)
    x /= np.max(np.abs(x))
    fit = best_approx(s.space, x, s, 8, incumbent=incumbent)
    assert (fit.info["solver"], fit.info["iterations"]) == ("least-squares", 0)
    assert fit.value == float(np.max(np.abs(x - fit.minimizer)))
    assert (fit.lower, fit.status) == (0.0, "upper-bound")
    full = best_approx(s.space, x, s, 8)
    assert full.status == "exact"
    assert full.value <= fit.value + full.tol
    assert fit.value < incumbent


def lawson_values(cols: np.ndarray, x: np.ndarray, steps: int) -> list:
    """max |x - cols c| of the least-squares fit and of `steps` Lawson
    steps, each c by `lstsq` on square-root weighted rows, the weights
    multiplied by |x - cols c| and normalized after each fit."""
    weights, values = np.ones(x.size), []
    for _ in range(steps + 1):
        root = np.sqrt(weights)
        resid = np.abs(x - cols @ np.linalg.lstsq(cols * root[:, None], x * root, rcond=None)[0])
        values.append(float(resid.max()))
        weights = weights * resid / np.sum(weights * resid)
    return values


def test_the_screen_takes_lawson_steps():
    """A fit stopped after reweighting steps has the value of Lawson's
    iteration at that step, as the oracle above computes it."""
    cols, x = poly_columns(65, 6), np.random.default_rng(1).standard_normal(65)
    incumbent = 1.05 * _sup_fit(cols, x).value
    fit = _sup_fit(cols, x, incumbent)
    assert (fit.info["solver"], fit.info["iterations"]) == ("least-squares", 3)
    values = lawson_values(cols, x, 3)
    assert fit.value == pytest.approx(values[3], rel=1e-9)
    assert min(values[:3]) >= incumbent  # no earlier step stopped it


def test_the_screen_ends_when_the_value_stays_or_at_the_cap():
    """At a tied incumbent nothing stops the fit.  cos 5t is orthogonal to
    the trig columns of degree <= 3 on the uniform torus grid: the
    least-squares fit leaves it as it is, at the zero approximant's value 1,
    so the screen ends after that one solve, though the Chebyshev fit is
    lower.  A Gaussian draw takes every reweighting step up to the cap.
    Both fits then run to their end."""
    cols = trig_columns(64, 3)
    wave = np.cos(10.0 * np.pi * np.arange(64) / 64)
    assert _sup_fit(cols, wave).value < 0.995
    for x, solves in ((wave, 1), (np.random.default_rng(4).standard_normal(64), solve.LAWSON_MAX_STEPS + 1)):
        full = _sup_fit(cols, x)
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as counted:
            assert solve._incumbent_screen(cols, x, full.value, float(np.max(np.abs(x)))) is None
        assert counted.call_count == solves
        fit = _sup_fit(cols, x, full.value)
        assert (fit.value, fit.lower, fit.info) == (full.value, full.lower, full.info)


def test_a_singular_gram_matrix_skips_the_screen():
    """A repeated column makes the screen's Gram solve raise; with a finite
    incumbent the fit goes on to the exchange, run to its end as without
    one, and raises nothing."""
    cols = poly_columns(33, 4)
    cols = np.column_stack([cols, cols[:, -1]])
    x = np.random.default_rng(2).standard_normal(33)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(cols.T @ cols, cols.T @ x)
    full = _sup_fit(cols, x)
    for incumbent in (full.value / 2, 2 * full.value, 10.0):
        fit = _sup_fit(cols, x, incumbent)
        assert (fit.value, fit.lower, fit.info) == (full.value, full.lower, full.info)
        assert fit.minimizer.tobytes() == full.minimizer.tobytes()


def test_a_chain_level_forms_its_screen_gram_once(monkeypatch):
    """Two density tasks at level 8 of monomial-chain share the scheme, and
    their screened fits share one Gram matrix of the level's 9 columns:
    formed by the first, bit for bit the product the screen forms itself."""
    keep = Chain._screen_gram
    calls = []

    def counted(self, d):
        calls.append((d, d in self.screen_grams))  # (dim, kept already)
        return keep(self, d)

    monkeypatch.setattr(Chain, "_screen_gram", counted)
    for seed in (0, 1):
        run_task({"task": "density", "seed": seed, "scheme": "monomial-chain",
                  "params": {"levels": [8]}})
    assert [d for d, kept in calls if not kept] == [9]  # one fill
    assert len(calls) > 2 and {d for d, _ in calls} == {9}  # many screened fits
    s = build_scheme("monomial-chain")
    cols = s.basis[:, :9]
    assert s.screen_grams[9].tobytes() == (cols.T @ cols).tobytes()
    assert not s.screen_grams[9].flags.writeable
