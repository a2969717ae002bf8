import json
import math
from unittest import mock

import numpy as np
import pytest

import lethargy.analyze as analyze
import lethargy.solve as solve
from lethargy.analyze import (
    AnalyzeError,
    bernstein_audit,
    brudnyi_gap,
    density_lower_bound,
    dolzhenko_variation_audit,
    jackson_audit,
    monotone_envelope,
    sample_rational,
    seminorm,
    shapiro_check,
)
from lethargy.cli import run_task
from lethargy.scheme import (Chain, Quantizer, SchemeError, build_scheme, density_candidates,
                             gap_candidates)
from lethargy.seq import NullSequence
from lethargy.solve import LP_TOL, BestApprox, NoSolverError, best_approx
from lethargy.space import Grid, Space, norm
from lethargy.witness import construct_slow_decay, verify_slow_decay


@pytest.fixture(scope="module")
def quantizer_linear_small():
    return build_scheme({"kind": "quantizer", "m": [max(n, 1) for n in range(9)],
                         "space": {"carrier": "grid", "domain": "interval",
                                   "nodes": 513, "norm": "sup"},
                         "label": "quantizer-small"})


class TestDensityCertificates:
    def test_quantizer_pinch(self, quantizer_linear_small):
        s = quantizer_linear_small
        gap = 2.0 / (s.space.grid.size - 1)
        for n in (1, 2, 4, 8):
            lo = density_lower_bound(s, n, rng_seed=1)
            [hi] = s.envelope([n])
            assert hi == pytest.approx(1.0 / s.m_of(n), abs=1e-15)
            assert lo.status == "exact"
            assert abs(lo.bound - 1.0 / s.m_of(n)) <= gap + 1e-12

    def test_monomial_certificates_near_one(self, small_monomial_chain):
        c = density_lower_bound(small_monomial_chain, 3, rng_seed=1)
        assert c.status == "exact"
        assert c.bound >= 0.9

    def test_l2_chain_certificate_at_top_level(self):
        s = build_scheme("monomial-chain-l2")
        for n in (4, s.n_max):
            c = density_lower_bound(s, n, rng_seed=1)
            assert c.status == "exact"
            assert c.bound == pytest.approx(1.0, abs=1e-9)

    def test_rank_certificate_from_identity(self):
        s = build_scheme({"kind": "rank", "n_max": 6,
                          "space": {"carrier": "matrix", "side": 6, "norm": "operator"}})
        c = density_lower_bound(s, 2, rng_seed=1)
        # the normalized identity keeps unit distance to low rank in operator norm
        assert c.bound == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("norm", [{"norm": "sup"}, {"norm": "lp", "p": 2.0}],
                             ids=["sup", "l2"])
    def test_a_coordinate_chain_that_fills_the_space_certifies_zero(self, norm):
        # dim 8 = n_max + 1: A_7 is the whole space, so the next direction
        # falls back to the last coordinate, e_7, a member at distance 0
        s = build_scheme({"kind": "chain", "family": "coordinate", "n_max": 7,
                          "space": {"carrier": "coords", "dim": 8, **norm}})
        c = density_lower_bound(s, 7, rng_seed=0)
        assert (c.status, c.bound) == ("exact", 0.0)
        assert np.array_equal(c.element, np.eye(8)[7])

    def test_certificate_reproducible(self, small_interleaved):
        c = density_lower_bound(small_interleaved, 5, rng_seed=9)
        res = best_approx(small_interleaved.space, c.element, small_interleaved, 5)
        assert res.value == pytest.approx(c.solver_value, abs=1e-9)
        assert c.bound <= c.solver_value / norm(small_interleaved.space, c.element) + 1e-9

    def test_empirical_note_counts_the_upper_bound_solves(self, monkeypatch):
        # the certificate is the first candidate, a member solved exactly;
        # the other solve is upper-bound only, so nothing is proved
        s = build_scheme("rank-8-operator")
        pool = [np.eye(8), np.diag([1.0] + [0.0] * 7)]
        answers = iter([BestApprox(0.0, None, 0.0), BestApprox(0.5, None, 0.25)])
        monkeypatch.setattr(analyze, "density_candidates", lambda *args: pool)
        monkeypatch.setattr(analyze, "best_approx", lambda *args, **kwargs: next(answers))
        c = density_lower_bound(s, 0)
        assert (c.element is pool[0], c.bound, c.status) == (True, 0.0, "empirical")
        assert c.note == ("no solve proved a positive distance; 1 of 2 candidate solves "
                          "are upper-bound only")

    def test_no_solver_in_the_norm_names_the_level(self):
        # p < 1: every candidate's solve at a level above 0 raises NoSolverError
        s = build_scheme({"kind": "nterm", "n_max": 3,
                          "dictionary": {"family": "monomial", "count": 4},
                          "space": {"carrier": "grid", "nodes": 17, "norm": "lp", "p": 0.5}})
        with pytest.raises(AnalyzeError, match="no candidate could be solved at level 2"):
            density_lower_bound(s, 2)
        assert density_lower_bound(s, 0).status == "exact"  # level 0 is the norm

    @pytest.mark.parametrize("name,n", [("free-knot-spline", 9), ("orthonormal-nterm", 12),
                                        ("rank-8-hs", 11), ("interleaved-c0", 41)])
    def test_a_level_past_the_window_is_refused(self, name, n):
        # these kinds' solvers answer past the window; the certificate does not
        s = build_scheme(name)
        message = f"level {n} outside the window 0..{s.n_max}"
        with pytest.raises(SchemeError, match=message):
            density_lower_bound(s, n)
        with pytest.raises(SchemeError, match=message):
            shapiro_check(s, levels=[n])
        assert best_approx(s.space, s.space.zero() + 1.0, s, n).status == "exact"

    def test_monotone_envelope(self):
        assert monotone_envelope([0.5, 0.9, 0.3]) == [0.9, 0.9, 0.3]

    @pytest.mark.parametrize("margin,winner", [(0.5, 0), (2.0, 1)])
    def test_a_tie_within_tol_keeps_the_first_candidate(self, margin, winner, monkeypatch):
        # two exact answers: the later one replaces the first only when it is
        # farther by more than its tol, so rounding decides no tie
        s = build_scheme("rank-8-operator")
        pool = [np.eye(8), np.diag([1.0] + [0.0] * 7)]
        values = [1.0, 1.0 + margin * LP_TOL]
        answers = iter([BestApprox(value, None, value) for value in values])
        monkeypatch.setattr(analyze, "density_candidates", lambda *args: pool)
        monkeypatch.setattr(analyze, "best_approx", lambda *args, **kwargs: next(answers))
        c = density_lower_bound(s, 0)
        assert c.element is pool[winner]
        assert (c.bound, c.status) == (values[winner], "exact")


class TestBrudnyiGap:
    def test_interleaved_matches_reciprocal(self, small_interleaved):
        rep = brudnyi_gap(small_interleaved, rng_seed=2)
        for k in range(1, 5):
            n = 2 * k - 1
            assert rep["per_level"][n] == pytest.approx(1.0 / (k + 1), abs=1e-10)
        assert rep["gamma"] <= 1.0 / 5.0

    def test_orthonormal_chain_gap_is_one(self):
        s = build_scheme({"kind": "chain", "family": "coordinate", "n_max": 6,
                          "space": {"carrier": "coords", "dim": 8, "norm": "lp", "p": 2.0}})
        rep = brudnyi_gap(s, rng_seed=2)
        assert rep["gamma"] == pytest.approx(1.0, abs=1e-12)

    def test_monomial_chain_gap_near_one(self, small_monomial_chain):
        rep = brudnyi_gap(small_monomial_chain, rng_seed=2)
        assert rep["gamma"] >= 0.99

    @pytest.mark.parametrize("margin,winner", [(0.5, 0), (2.0, 1)])
    def test_a_tie_within_tol_keeps_the_first_candidate(self, margin, winner, monkeypatch):
        # the level's best is the first exact answer unless the later one is
        # farther by more than its tol
        s = build_scheme({"kind": "rank", "n_max": 1,
                          "space": {"carrier": "matrix", "side": 2, "norm": "hs"}})
        values = [1.0, 1.0 + margin * LP_TOL]
        answers = iter([BestApprox(value, None, value) for value in values])
        monkeypatch.setattr(analyze, "gap_candidates", lambda *args, **kwargs: [None, None])
        monkeypatch.setattr(analyze, "best_approx", lambda *args, **kwargs: next(answers))
        assert brudnyi_gap(s)["per_level"] == [values[winner]]


def oracle_density_lower_bound(s, n, rng_seed):
    """`density_lower_bound` with its default pool of unit candidates, as
    written before the searches passed incumbents: every candidate solved to
    the end, a later one chosen only when farther by more than its tol, the
    bound the lower end of the chosen bracket."""
    rng = np.random.default_rng(rng_seed)
    best, decided = None, True
    for cand in density_candidates(s, n, rng):
        try:
            res = best_approx(s.space, cand, s, n, seed=rng_seed)
        except NoSolverError:
            continue
        decided &= res.status == "exact"
        score = res.value if res.status == "exact" and res.lower > 0.0 else -math.inf
        if best is None or score > best[0] + res.tol:
            best = (score, cand, res)
    score, element, res = best
    status = "exact" if score > -math.inf or decided else "empirical"
    return n, res.lower, res.value, status, element.tobytes()


def oracle_brudnyi_gap(s, rng_seed):
    """`brudnyi_gap` over its default levels, every candidate solved to the
    end: only an exact solve with a positive lower bound counts, and a later
    one replaces the first only when farther by more than its tol."""
    rng = np.random.default_rng(rng_seed)
    per = []
    for n in range(s.n_max):
        best = None
        for cand in gap_candidates(s, n, rng, count=4):
            res = best_approx(s.space, cand, s, n, seed=rng_seed)
            if res.status == "exact" and res.lower > 0.0 and (
                    best is None or res.value > best + res.tol):
                best = res.value
        per.append(0.0 if best is None else best)
    return {"gamma": min(per) if per else 0.0, "per_level": per, "levels": list(range(s.n_max))}


def oracle_chain_gap_candidates(s, n, rng, count):
    """`Chain.gap_candidates` as written before one next direction per level:
    on sup monomial and trig chains the next column, on L2 grids that column
    orthonormalized against A_n, then `count` draws from the columns that
    A_{n+1} adds, however many these are."""
    d, d_next = s.chain_dim(n), s.chain_dim(n + 1)
    out = []
    if s.space.norm_kind == "sup" and s.family in ("monomial", "trig"):
        out.append(s.basis[:, d])
    elif s.space.carrier == "grid" and s.space.norm_kind == "lp" and s.space.p == 2.0:
        w = np.sqrt(s.space.grid.weights)
        q, _ = np.linalg.qr(np.column_stack([s.basis[:, :d], s.basis[:, d]]) * w[:, None])
        col = q[:, d] / w
        out.append(col / norm(s.space, col))
    for _ in range(count):
        out.append(s.basis[:, d:d_next] @ rng.standard_normal(d_next - d))
    return out


def sup_fit_infos(search, *args, **kwargs) -> list:
    """The info of every `_sup_fit` that `search(*args, **kwargs)` runs."""
    fit, infos = solve._sup_fit, []

    def counted(*fit_args):
        out = fit(*fit_args)
        infos.append(out.info)
        return out

    with mock.patch.object(solve, "_sup_fit", counted):
        search(*args, **kwargs)
    return infos


def sup_fit_iterations(search, *args, **kwargs) -> int:
    """The exchange and reweighting steps of every `_sup_fit` that
    `search(*args, **kwargs)` runs."""
    return sum(info["iterations"] for info in sup_fit_infos(search, *args, **kwargs))


INCUMBENT_SCHEMES = ["monomial-chain", "trig-chain", "quantizer-linear", "interleaved-c0"]


class TestIncumbentSearch:
    """The searches stop a candidate that cannot beat their best so far, and
    give what the full solves gave."""

    @pytest.mark.parametrize("name", INCUMBENT_SCHEMES)
    def test_certificates_equal_the_full_search(self, name):
        s = build_scheme(name)

        def search():
            for seed in range(3):
                for n in range(s.n_max + 1):
                    c = density_lower_bound(s, n, rng_seed=seed)
                    got = c.level, c.bound, c.solver_value, c.status, c.element.tobytes()
                    assert got == oracle_density_lower_bound(s, n, seed), (seed, n)

        stopped = [info["iterations"] for info in sup_fit_infos(search) if info["solver"] == "least-squares"]
        if isinstance(s, Chain):  # the oracle covers fits stopped after reweighting steps
            assert max(stopped) >= 1

    @pytest.mark.parametrize("name", INCUMBENT_SCHEMES)
    def test_gap_equals_the_full_search(self, name):
        s = build_scheme(name)
        for seed in range(3):
            assert brudnyi_gap(s, rng_seed=seed) == oracle_brudnyi_gap(s, seed)

    def test_quantizer_reports_equal_solves_without_an_incumbent(self, monkeypatch):
        configs = [{"task": task, "scheme": name, "seed": seed}
                   for name in ("quantizer-linear", "quantizer-geometric")
                   for task in ("density", "shapiro") for seed in range(5)]
        configs.append({"task": "slowdecay", "scheme": "quantizer-linear", "seed": 1,
                        "params": {"i_max": 4}})

        def reports():
            out = []
            for config in configs:
                report = run_task(config)
                del report["timestamp"]
                out.append(json.dumps(report, sort_keys=True))
            return out

        quantize, stopped = solve.best_m_value_sup, []

        def counted(*args):
            res = quantize(*args)
            stopped.append(res.lower < res.value)  # an unstopped solve is exact, lower = value
            return res

        monkeypatch.setattr(solve, "best_m_value_sup", counted)
        got = reports()
        assert any(stopped)
        full = Quantizer.solve
        monkeypatch.setattr(Quantizer, "solve", lambda self, space, x, levels, seed, incumbent:
                            full(self, space, x, levels, seed, -math.inf))
        assert got == reports()

    def test_the_density_search_takes_fewer_exchange_steps(self):
        s = build_scheme("monomial-chain")
        steps = sup_fit_iterations(density_lower_bound, s, 8, rng_seed=3)
        assert steps < sup_fit_iterations(oracle_density_lower_bound, s, 8, 3)


class TestNextDirection:
    """One next direction per chain level gives the gap and the slow-decay
    ladder that the parent's pool of repeated draws gave, bit for bit."""

    @pytest.mark.parametrize("name", ["monomial-chain", "monomial-chain-l2", "trig-chain"])
    def test_gap_and_ladder_equal_the_repeated_draws(self, name, monkeypatch):
        s = build_scheme(name)

        def results():
            out = []
            for seed in range(3):
                out.append(brudnyi_gap(s, rng_seed=seed)["per_level"])
                for i_max in (2, 4, 8):
                    w = construct_slow_decay(s, NullSequence.harmonic(12), i_max, rng_seed=seed)
                    verify_slow_decay(w)
                    out.append(json.dumps(w.to_json()))
            return out

        got = results()
        monkeypatch.setattr(Chain, "gap_candidates", oracle_chain_gap_candidates)
        assert got == results()


class TestShapiro:
    def test_quantizer_fails_with_envelope(self, quantizer_linear_small):
        v = shapiro_check(quantizer_linear_small, probe_budget=4, rng_seed=3)
        assert v.verdict == "Shapiro-fails"
        assert v.envelope["values"] == [1.0 / quantizer_linear_small.m_of(n)
                                        for n in range(quantizer_linear_small.n_max + 1)]
        assert v.probes_checked > 0

    def test_monomial_consistent(self, small_monomial_chain):
        v = shapiro_check(small_monomial_chain, rng_seed=3)
        assert v.verdict == "consistent-with-Shapiro"
        assert v.constant >= 0.9

    def test_interleaved_consistent_but_gap_vanishes(self, small_interleaved):
        v = shapiro_check(small_interleaved, rng_seed=3)
        assert v.verdict == "consistent-with-Shapiro"
        assert v.gamma < 0.2  # the weak-gap constant survives, the strong gap does not

    def test_whole_space_top_level_is_inconclusive(self):
        # rank 3 of 3x3 matrices is the whole space: the top certificate is 0.0,
        # and the kind proves no envelope
        s = build_scheme({"kind": "rank", "n_max": 3,
                          "space": {"carrier": "matrix", "side": 3, "norm": "hs"}})
        v = shapiro_check(s, rng_seed=0)
        assert v.verdict == "inconclusive"
        assert v.certificates[-1].status == "exact"
        assert v.constant == v.certificates[-1].bound == 0.0
        assert v.envelope is None and "envelope" not in v.to_json()

    def test_a_probe_above_the_envelope_is_inconclusive(self, quantizer_linear_small, monkeypatch):
        # half the proved budget envelope: some probe's error exceeds it
        s = quantizer_linear_small
        monkeypatch.setattr(type(s), "envelope",
                            lambda self, levels: [0.5 / self.m_of(n) for n in levels])
        v = shapiro_check(s, probe_budget=2, rng_seed=1, levels=[1, 2])
        assert v.verdict == "inconclusive"
        assert v.envelope is None and v.probes_checked == 0

    def test_verdict_json(self, quantizer_linear_small):
        v = shapiro_check(quantizer_linear_small, probe_budget=2, rng_seed=1)
        d = v.to_json()
        assert d["verdict"] == "Shapiro-fails"
        assert "envelope" in d


class TestJacksonAudit:
    def test_monomial_lipschitz_grows(self, small_monomial_chain):
        rep = jackson_audit(small_monomial_chain, {"kind": "lipschitz"}, rng_seed=2)
        assert rep["growing"]

    def test_same_norm_reports_no_gain(self, small_monomial_chain, rng):
        s = small_monomial_chain
        samples = density_candidates(s, s.n_max, rng)
        rep = jackson_audit(s, {"kind": "same-norm"}, samples=samples,
                            n_list=[1, 3, 5], rng_seed=2)
        finite = [c for c in rep["c_n"] if math.isfinite(c)]
        assert max(finite) <= 1.5  # bounded: no smoothness gain when Y = X
        assert not rep["growing"]

    def test_quantizer_same_norm_matches_budget(self, quantizer_linear_small):
        s = quantizer_linear_small
        g = s.space.grid
        ramp = 2.0 * g.nodes - 1.0
        rep = jackson_audit(s, {"kind": "same-norm"}, samples=[ramp],
                            n_list=[2, 4, 8], rng_seed=2)
        for c, n in zip(rep["c_n"], [2, 4, 8]):
            assert c == pytest.approx(s.m_of(n), rel=2e-3)


class TestBernsteinAudit:
    def test_trig_derivative_bound(self):
        s = build_scheme({"kind": "chain", "family": "trig", "n_max": 6,
                          "space": {"carrier": "grid", "domain": "torus",
                                    "nodes": 2048, "norm": "sup"}})
        rep = bernstein_audit(s, {"kind": "deriv-sup"}, budget=150, rng_seed=4)
        for b, n in zip(rep["b_n"], rep["levels"]):
            assert b <= n * (1.0 + 1e-3) + 1e-12

    def test_degenerate_samples_skipped(self, small_monomial_chain, monkeypatch):
        import lethargy.analyze as analyze_mod

        calls = {"k": 0}
        real = analyze_mod.sample_element

        def sometimes_zero(s, n, rng):
            calls["k"] += 1
            if calls["k"] % 3 == 0:
                return s.space.zero()
            return real(s, n, rng)

        monkeypatch.setattr(analyze_mod, "sample_element", sometimes_zero)
        rep = bernstein_audit(small_monomial_chain, {"kind": "lipschitz"}, budget=30, rng_seed=4)
        assert rep["levels"] == list(range(1, small_monomial_chain.n_max + 1))
        assert rep["skipped_degenerate"] == 10 * len(rep["levels"])


class TestDolzhenko:
    def test_thousand_samples_hold(self):
        rep = dolzhenko_variation_audit(n_samples=1000, rng_seed=6)
        assert rep["passed"]
        assert rep["worst_margin"] <= 1e-3

    def test_a_margin_above_the_tolerance_is_a_violation(self, monkeypatch):
        clean = dolzhenko_variation_audit(n_samples=50, rng_seed=6)
        monkeypatch.setattr(analyze, "DOLZHENKO_TOL", clean["worst_margin"] - 1e-9)
        rep = dolzhenko_variation_audit(n_samples=50, rng_seed=6)
        assert clean["passed"] and not rep["passed"] and rep["violations"]
        assert rep["tolerance"] == clean["worst_margin"] - 1e-9
        for v in rep["violations"]:
            assert v["variation"] - 2.0 * v["degree"] > rep["tolerance"]

    def test_sampler_degrees_and_margins(self, rng):
        g = Grid.interval(0, 1, 513)
        for _ in range(50):
            f, deg = sample_rational(rng, g, 5)
            assert deg <= 5
            assert np.all(np.isfinite(f))


class TestSeminorms:
    def test_bv_of_oscillation(self):
        g = Grid.torus(2048)
        f = np.sin(g.nodes)
        assert seminorm(Space.sup_grid(g), {"kind": "bv"}, f) == pytest.approx(4.0, abs=1e-3)

    def test_coord_weighted(self):
        sp = Space.coords(3, 2.0)
        val = seminorm(sp, {"kind": "coord-weighted", "weights": [1.0, 2.0, 3.0]},
                       np.array([1.0, 1.0, 1.0]))
        assert val == 3.0

    def test_unsupported(self):
        with pytest.raises(AnalyzeError):
            seminorm(Space.coords(2, 2.0), {"kind": "sobolev"}, np.ones(2))
