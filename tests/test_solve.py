import itertools
import math

import numpy as np
import pytest

from lethargy.cli import run_task
from lethargy.scheme import build_scheme, list_schemes
from lethargy.solve import (
    NoSolverError,
    SolverError,
    best_approx,
    best_m_value_sup,
    error_profile,
    midpoint_quantizer,
    quantizer_error,
    _nterm_exhaustive,
    _sup_fit,
    _sup_fit_lp,
)
from lethargy.space import Grid, Space, SpaceError, norm


def brute_force_partition_value(values, m):
    """Enumerate all m-part contiguous partitions of the sorted values."""
    v = np.sort(values)
    n = v.size
    if m >= n:
        return 0.0
    best = math.inf
    for cuts in itertools.combinations(range(1, n), m - 1):
        edges = [0, *cuts, n]
        worst = max((v[j - 1] - v[i]) / 2.0 for i, j in zip(edges[:-1], edges[1:]))
        best = min(best, worst)
    return best


class TestChainSolvers:
    def test_midrange_of_monotone(self, small_monomial_chain):
        s = small_monomial_chain
        t = s.space.grid.nodes
        res = best_approx(s.space, t, s, 0)
        assert res.value == pytest.approx(0.5, abs=1e-10)
        assert np.allclose(res.minimizer, 0.5, atol=1e-9)
        assert res.status == "exact"

    def test_kink_equioscillation_value(self, small_monomial_chain):
        # best affine fit to |t - 1/2| on [0,1] has error exactly 1/4
        s = small_monomial_chain
        t = s.space.grid.nodes
        res = best_approx(s.space, np.abs(t - 0.5), s, 1)
        assert res.value == pytest.approx(0.25, abs=1e-9)

    def test_l2_projection_matches_irls(self):
        g = Grid.interval(0, 1, 257)
        s2 = build_scheme({"kind": "chain", "family": "monomial", "n_max": 5,
                           "space": {"carrier": "grid", "domain": "interval",
                                     "nodes": 257, "norm": "lp", "p": 2.0}})
        x = np.exp(g.nodes)
        exact = best_approx(s2.space, x, s2, 3)
        assert exact.status == "exact"
        from lethargy.solve import _irls_fit

        value, _, _, info = _irls_fit(s2.basis[:, :4], x, s2.space.grid.weights, 2.0)
        assert value == pytest.approx(exact.value, abs=1e-8)

    def test_irls_general_p_reports_upper_bound(self):
        s = build_scheme({"kind": "chain", "family": "monomial", "n_max": 4,
                          "space": {"carrier": "grid", "domain": "interval",
                                    "nodes": 129, "norm": "lp", "p": 1.5}})
        x = np.abs(s.space.grid.nodes - 0.3)
        res = best_approx(s.space, x, s, 2)
        assert res.status == "upper-bound"
        assert res.info["converged"]

    def test_p_below_one_refused(self):
        s = build_scheme({"kind": "chain", "family": "monomial", "n_max": 4,
                          "space": {"carrier": "grid", "domain": "interval",
                                    "nodes": 65, "norm": "lp", "p": 0.5}})
        with pytest.raises(NoSolverError):
            best_approx(s.space, np.ones(65), s, 2)

    def test_homogeneity_of_error(self, small_monomial_chain, rng):
        s = small_monomial_chain
        x = rng.standard_normal(s.space.grid.size)
        lam = 3.7
        e1 = best_approx(s.space, x, s, 3).value
        e2 = best_approx(s.space, lam * x, s, 3).value
        assert e2 == pytest.approx(lam * e1, rel=1e-9)


class TestQuantizerSolver:
    def test_ramp_exact_reciprocal(self):
        g = Grid.interval(0, 1, 2049)
        sp = Space.sup_grid(g)
        x = 2 * g.nodes - 1
        for m in (1, 2, 4, 8, 16, 64):
            res = quantizer_error(sp, x, m)
            assert res.value == pytest.approx(1.0 / m, abs=2e-3)
            assert res.value <= 1.0 / m + 1e-15

    def test_constant_is_free(self):
        g = Grid.interval(0, 1, 65)
        res = quantizer_error(Space.sup_grid(g), np.full(65, 2.5), 1)
        assert res.value == 0.0

    def test_matches_bruteforce_on_64_points(self, rng):
        g = Grid.interval(0, 1, 64)
        sp = Space.sup_grid(g)
        for m in (2, 3, 4):
            for _ in range(5):
                x = rng.standard_normal(64)
                got = quantizer_error(sp, x, m).value
                want = brute_force_partition_value(x, m)
                assert got == want

    def test_member_has_zero_distance(self):
        value, minimizer, _, info = best_m_value_sup(np.array([0.0, 0.0, 1.0, 1.0]), 2)
        assert value == 0.0
        assert info["lower"] == 0.0
        assert np.array_equal(minimizer, [0.0, 0.0, 1.0, 1.0])

    def test_bisection_stops_at_adjacent_floats(self, rng, monkeypatch):
        import lethargy.solve as solve_mod

        calls = []
        driver = solve_mod._min_max_cells

        def counted(n, k, cell_end, cell_cost, tol):
            def end(s, t):
                if s == 0:  # every greedy pass starts at the first cell
                    calls.append(t)
                return cell_end(s, t)

            return driver(n, k, end, cell_cost, tol)

        monkeypatch.setattr(solve_mod, "_min_max_cells", counted)
        x = rng.standard_normal(2049)
        for m in (2, 5, 12):
            calls.clear()
            value, _, _, info = best_m_value_sup(x, m)
            assert len(calls) <= 70
            assert info["iterations"] == len(calls)
            assert value > 0.0
            assert info["lower"] == value

    def test_minimizer_achieves_value_up_to_rounded_levels(self):
        # found by Hypothesis: the cell midpoints are rounded, so the minimizer
        # misses the value by about one ulp of max|x|
        x = np.array([0.0, 1.0, -1.0, 2.0, -2.0, -8.0, -8.534907327886616])
        value, minimizer, _, info = best_m_value_sup(x, 6)
        scale = float(np.max(np.abs(x)))
        assert float(np.max(np.abs(x - minimizer))) <= value + 2.0 * np.finfo(float).eps * scale
        assert info["lower"] == value

    def test_budget_validation(self):
        g = Grid.interval(0, 1, 33)
        with pytest.raises(SolverError):
            quantizer_error(Space.sup_grid(g), np.ones(33), 0)

    def test_midpoint_bound(self, rng):
        x = rng.uniform(-1, 1, 400)
        for m in (1, 3, 9):
            q = midpoint_quantizer(x, m, radius=1.0)
            assert np.max(np.abs(x - q)) <= 1.0 / m + 1e-15
            assert len(np.unique(q)) <= m

    def test_labels_and_minimizer(self, rng):
        v = rng.standard_normal(50)
        value, minimizer, labels, _ = best_m_value_sup(v, 4)
        assert np.max(np.abs(v - minimizer)) == pytest.approx(value, abs=1e-15)
        assert len(np.unique(labels)) <= 4

    def test_coordinate_sup_variant(self, rng):
        # the same scheme over ell_inf coordinate vectors
        s = build_scheme({"kind": "quantizer", "m": [1, 2, 4],
                          "space": {"carrier": "coords", "dim": 40, "norm": "sup"}})
        x = np.linspace(-1, 1, 40)
        res = best_approx(s.space, x, s, 2)
        assert res.value == pytest.approx(brute_force_partition_value(x, 4), abs=1e-15)
        from lethargy.scheme import membership, sample_element

        a = sample_element(s, 1, rng)
        assert membership(s, a, 1)


class TestNonFinite:
    @pytest.mark.parametrize("name", list_schemes())
    def test_nan_element_raises_space_error(self, name):
        s = build_scheme(name)
        x = np.zeros(s.space.shape)
        x.flat[x.size // 2] = math.nan
        with pytest.raises(SpaceError):
            best_approx(s.space, x, s, 1)

    def test_quantizer_refuses_non_finite_values(self):
        # a NaN once made the bisection midpoint NaN, and the solve never returned
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(SolverError):
                best_m_value_sup(np.array([0.0, bad, 1.0]), 2)
        with pytest.raises(SpaceError):
            run_task({"task": "profile", "scheme": "quantizer-linear",
                      "params": {"n_max": 3, "element": {"values": [math.nan] * 2049}}})


class TestInterleavedSolver:
    def test_odd_levels_reproduce_tail(self, small_interleaved):
        s = small_interleaved
        eps = 0.5 ** np.arange(s.cap)
        for n in range(1, 6):
            res = best_approx(s.space, eps, s, 2 * n - 1)
            assert res.value == pytest.approx(eps[n], abs=1e-15)
            assert res.status == "exact"

    def test_constrained_level_formula(self, small_interleaved):
        s = small_interleaved
        # x = e_k: distance to the constrained set on k+1 coordinates
        for k in (1, 2, 5):
            x = np.zeros(s.cap)
            x[k] = 1.0
            res = best_approx(s.space, x, s, 2 * k)
            assert res.value == pytest.approx((k + 1) / (k + 2), abs=1e-15)

    def test_minimizer_is_feasible_and_achieves(self, small_interleaved, rng):
        s = small_interleaved
        from lethargy.scheme import membership

        for _ in range(25):
            x = rng.standard_normal(s.cap)
            for level in (0, 2, 3, 4, 7, 8):
                res = best_approx(s.space, x, s, level)
                assert membership(s, res.minimizer, level)
                achieved = float(np.max(np.abs(x - res.minimizer)))
                assert achieved == pytest.approx(res.value, abs=1e-12)

    def test_random_members_never_beat_value(self, small_interleaved, rng):
        s = small_interleaved
        from lethargy.scheme import sample_element

        x = rng.standard_normal(s.cap)
        for level in (2, 4, 6):
            value = best_approx(s.space, x, s, level).value
            for _ in range(200):
                y = sample_element(s, level, rng)
                scale = rng.standard_normal()
                assert float(np.max(np.abs(x - scale * y))) >= value - 1e-12


class TestRankSolver:
    def test_scaled_identity(self):
        s = build_scheme({"kind": "rank", "n_max": 8,
                          "space": {"carrier": "matrix", "side": 8, "norm": "hs"}})
        z = np.eye(8) / 8
        res = best_approx(s.space, z, s, 7)
        assert res.value == pytest.approx(1.0 / 8, abs=1e-15)

    def test_eckart_young_oracle(self, rng):
        s_hs = build_scheme({"kind": "rank", "n_max": 6,
                             "space": {"carrier": "matrix", "side": 6, "norm": "hs"}})
        s_op = build_scheme({"kind": "rank", "n_max": 6,
                             "space": {"carrier": "matrix", "side": 6, "norm": "operator"}})
        for _ in range(1000):
            m = rng.standard_normal((6, 6))
            sv = np.linalg.svd(m, compute_uv=False)
            k = int(rng.integers(0, 6))
            assert best_approx(s_hs.space, m, s_hs, k).value == pytest.approx(
                math.sqrt(float(np.sum(sv[k:] ** 2))), abs=1e-12)
            assert best_approx(s_op.space, m, s_op, k).value == pytest.approx(
                float(sv[k]), abs=1e-12)


class TestNTerm:
    def test_orthonormal_fast_path_matches_exhaustive(self, rng):
        s = build_scheme({"kind": "nterm", "n_max": 4,
                          "dictionary": {"family": "orthonormal"},
                          "space": {"carrier": "coords", "dim": 10, "norm": "lp", "p": 2.0}})
        x = rng.standard_normal(10)
        fast = best_approx(s.space, x, s, 3)
        value, _, status, _ = _nterm_exhaustive(s.space, s.dictionary.atoms, x, 3)
        assert fast.value == pytest.approx(value, abs=1e-12)
        assert fast.status == "exact"

    def test_greedy_never_beats_exhaustive(self, rng):
        from lethargy.solve import _nterm_greedy
        from lethargy.scheme import make_dictionary

        sp = Space.coords(12, 2.0)
        atoms = make_dictionary(sp, rng.standard_normal((12, 9)), "random")
        x = rng.standard_normal(12)
        exh, *_ = _nterm_exhaustive(sp, atoms.atoms, x, 2)
        greedy, _, status, _ = _nterm_greedy(sp, atoms.atoms, x, [2], seed=0)[2]
        assert status == "upper-bound"
        assert greedy >= exh - 1e-12

    def test_zero_level(self, rng):
        s = build_scheme("orthonormal-nterm")
        x = rng.standard_normal(64)
        assert best_approx(s.space, x, s, 0).value == pytest.approx(norm(s.space, x))


class TestSplineSolver:
    def test_piecewise_poly_is_recovered(self):
        s = build_scheme({"kind": "spline", "degree": 2, "n_max": 3,
                          "space": {"carrier": "grid", "domain": "interval",
                                    "nodes": 129, "norm": "lp", "p": 2.0}})
        t = s.space.grid.nodes
        x = np.where(t < 0.5, 1.0 + t, 3.0 - 2.0 * t)  # one breakpoint, degree < 2
        with_knot = best_approx(s.space, x, s, 1)
        without = best_approx(s.space, x, s, 0)
        assert with_knot.value <= 1e-9
        assert without.value > 1e-3
        assert with_knot.status == "exact"

    def test_sup_norm_spline(self):
        s = build_scheme({"kind": "spline", "degree": 1, "n_max": 2,
                          "space": {"carrier": "grid", "domain": "interval",
                                    "nodes": 65, "norm": "sup"}})
        t = s.space.grid.nodes
        x = np.where(t < 0.5, -1.0, 1.0)
        res = best_approx(s.space, x, s, 1)
        assert res.value <= 1e-12  # a single free knot splits the jump
        assert res.status == "exact"
        assert best_approx(s.space, x, s, 0).value == pytest.approx(1.0, abs=1e-12)

    def test_exchange_agrees_with_lp(self, rng):
        t = np.linspace(0, 1, 80)
        x = rng.standard_normal(80)
        cols = np.vander((t - t.mean()) / np.ptp(t), 3, increasing=True)
        val_ex, _, info = _sup_fit(cols, x)
        val_lp, _, _ = _sup_fit_lp(cols, x)
        assert info["solver"] == "exchange"
        assert val_ex == pytest.approx(val_lp, rel=1e-9, abs=1e-12)


class TestErrorProfile:
    def test_monotone_and_membership_zero(self, small_monomial_chain, rng):
        s = small_monomial_chain
        # an element of A_5 has zero error from level 5 on
        coef = rng.standard_normal(6)
        x = s.basis[:, :6] @ coef
        prof = error_profile(s.space, x, s, 8)
        vals = prof.values()
        assert np.all(np.diff(vals) <= 1e-9)
        assert all(v <= 1e-9 * max(1.0, norm(s.space, x)) for v in vals[5:])

    def test_solver_errors_recorded_not_raised(self):
        s = build_scheme({"kind": "chain", "family": "monomial", "n_max": 4,
                          "space": {"carrier": "grid", "domain": "interval",
                                    "nodes": 65, "norm": "lp", "p": 0.5}})
        prof = error_profile(s.space, np.ones(65), s, 3)
        assert all(e.status == "error" for e in prof.entries)

    def test_csv_and_plot_export(self, small_interleaved, tmp_path, rng):
        s = small_interleaved
        prof = error_profile(s.space, rng.standard_normal(s.cap), s, 6)
        csv_path = tmp_path / "p.csv"
        prof.dump_csv(csv_path)
        assert csv_path.read_text().startswith("n,value,status")
        plot_path = tmp_path / "p.dat"
        prof.dump_plot_data(plot_path)
        assert len(plot_path.read_text().strip().splitlines()) == 7
