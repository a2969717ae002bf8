"""The ridge witness's complex IRLS fit against the former per-step `lstsq` loop."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from lethargy import witness
from lethargy.space import Grid
from lethargy.witness import _complex_l1_fit, _exp_cols, _l1_torus, witness_ridge


def oracle_fit(mu, cols, x, iters=40):
    """The former fit: one `lstsq` on the weighted 1024 x m columns per IRLS step."""
    u = np.sqrt(mu)
    coef, *_ = np.linalg.lstsq(cols * u[:, None], x * u, rcond=None)
    resid = x - cols @ coef
    best = _l1_torus(mu, resid)
    for _ in range(iters):
        r = np.maximum(np.abs(resid), 1e-12)
        uu = np.sqrt(mu / r)
        coef, *_ = np.linalg.lstsq(cols * uu[:, None], x * uu, rcond=None)
        resid = x - cols @ coef
        val = _l1_torus(mu, resid)
        if abs(val - best) < 1e-12 * max(best, 1e-300):
            best = min(best, val)
            break
        best = min(best, val)
    return best


def ridge_problem(n):
    """Nodes, normalized measure and alternating element of `witness_ridge(n)`."""
    grid = Grid.torus(1024)
    t = grid.nodes
    mu = grid.weights / float(np.sum(grid.weights))
    ks = np.arange(1, n * n + 1)
    x = (((-1.0) ** ks)[None, :] * np.exp(1j * np.outer(t, ks))).sum(axis=1) / (n * n)
    return t, mu, x


def oracle_attempts(n, n_starts, seed, fit):
    """The former attempt loop, which also fitted each start before Nelder-Mead.

    Returns the (label, seed, value) log and the number of fits made."""
    t, mu, x = ridge_problem(n)
    rng = np.random.default_rng(seed)
    calls = [0]

    def objective(freqs):
        calls[0] += 1
        return fit(mu, _exp_cols(t, np.asarray(freqs)), x)

    log = [("zero-member", 0, _l1_torus(mu, x))]
    for start in range(n_starts):
        freqs0 = rng.uniform(0.25, n * n + 2.0, size=n - 1)
        val0 = objective(freqs0)
        res = minimize(objective, freqs0, method="Nelder-Mead",
                       options={"maxfev": 80, "xatol": 1e-3, "fatol": 1e-9})
        log.append(("multi-start-frequency-search", start, float(min(val0, res.fun))))
    return log, calls[0]


def attempt_log(w):
    return [(a.label, a.seed, a.value) for a in w.attempts]


@st.composite
def frequency_sets(draw):
    """m in {1, 2, 3} frequencies in [0.25, n^2 + 2], n = m + 1; for m >= 2 the
    first two may sit 1e-5, 1e-7 or 1e-9 apart, or coincide."""
    m = draw(st.integers(1, 3))
    hi = (m + 1) ** 2 + 2.0
    freqs = [draw(st.floats(0.25, hi)) for _ in range(m)]
    if m >= 2:
        gap = draw(st.sampled_from([None, 1e-5, 1e-7, 1e-9, 0.0]))
        if gap is not None:
            freqs[1] = freqs[0] + gap
    return m + 1, np.array(freqs)


@settings(max_examples=60, deadline=None)
@given(frequency_sets())
def test_fit_matches_lstsq_oracle(case):
    n, freqs = case
    t, mu, x = ridge_problem(n)
    cols = _exp_cols(t, freqs)
    got, want = _complex_l1_fit(mu, cols, x), oracle_fit(mu, cols, x)
    assert abs(got - want) <= 1e-9 * want


def test_coincident_frequencies_do_not_raise():
    t, mu, x = ridge_problem(3)
    for freqs in ([2.0, 2.0], [2.0, 2.0 + 1e-9], [3.0, 3.0, 7.5]):
        cols = _exp_cols(t, np.array(freqs))
        got, want = _complex_l1_fit(mu, cols, x), oracle_fit(mu, cols, x)
        assert abs(got - want) <= 1e-9 * want


def assert_logs_close(w, want, rel):
    got = attempt_log(w)
    assert [a[:2] for a in got] == [a[:2] for a in want]  # same labels, seeds and order
    for (_, _, g), (_, _, v) in zip(got, want):
        assert abs(g - v) <= rel * v


def test_two_term_logs_match_the_oracle_build():
    for seed in range(5):
        want, _ = oracle_attempts(2, 5, seed, oracle_fit)
        assert_logs_close(witness_ridge(2, n_starts=5, seed=seed), want, 1e-9)


def test_three_term_logs_match_the_oracle_build():
    want, _ = oracle_attempts(3, 12, 6, oracle_fit)
    assert_logs_close(witness_ridge(3, n_starts=12, seed=6), want, 1e-9)


def test_start_value_is_not_fitted_twice(monkeypatch):
    calls = [0]

    def counting(mu, cols, x):
        calls[0] += 1
        return oracle_fit(mu, cols, x)

    monkeypatch.setattr(witness, "_complex_l1_fit", counting)
    got = attempt_log(witness_ridge(2, n_starts=5, seed=0))
    want, oracle_calls = oracle_attempts(2, 5, 0, oracle_fit)
    assert oracle_calls - calls[0] == 5
    assert got == want  # bit-identical: Nelder-Mead's result already covers its start
