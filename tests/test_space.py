import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lethargy.space import (
    Grid,
    Space,
    SpaceError,
    norm,
)


class TestGrid:
    def test_interval_weights_sum(self):
        g = Grid.interval(0, 1, 101)
        assert abs(g.weights.sum() - 1.0) < 1e-12

    def test_torus_weights_sum(self):
        g = Grid.torus(64)
        assert abs(g.weights.sum() - 2 * math.pi) < 1e-12

    def test_bad_weights_rejected(self):
        nodes = np.linspace(0, 1, 11)
        with pytest.raises(SpaceError):
            Grid(nodes, np.ones(11), "interval", 0.0, 1.0)

    def test_nonincreasing_nodes_rejected(self):
        with pytest.raises(SpaceError):
            Grid(np.array([0.0, 0.5, 0.5]), np.array([0.25, 0.5, 0.25]), "interval", 0.0, 1.0)


class TestNorms:
    def test_unit_constant_l2(self):
        g = Grid.interval(0, 1, 201)
        assert abs(norm(Space.lp_grid(g, 2.0), np.ones(201)) - 1.0) < 1e-12

    def test_pythagorean(self):
        assert norm(Space.coords(2, 2.0), np.array([3.0, 4.0])) == 5.0

    def test_matrix_norms_against_svd(self):
        x = np.eye(3)
        assert abs(norm(Space.matrix(3, "hs"), x) - math.sqrt(3)) < 1e-14
        assert abs(norm(Space.matrix(3, "operator"), x) - 1.0) < 1e-14
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.standard_normal((4, 4))
            sv = np.linalg.svd(m, compute_uv=False)
            assert abs(norm(Space.matrix(4, "operator"), m) - sv[0]) < 1e-12
            assert abs(norm(Space.matrix(4, "hs"), m) - np.sqrt((sv**2).sum())) < 1e-12

    def test_zero_iff_zero(self):
        sp = Space.coords(5, 2.0)
        assert norm(sp, np.zeros(5)) == 0.0
        assert norm(sp, 1e-13 * np.ones(5)) > 0.0

    def test_shape_mismatch(self):
        with pytest.raises(SpaceError):
            norm(Space.coords(3, 2.0), np.ones(4))

    def test_bad_exponent(self):
        with pytest.raises(SpaceError):
            Space.coords(3, -1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_homogeneity(self, seed):
        rng = np.random.default_rng(seed)
        lam = float(rng.standard_normal() * 10)
        for sp in (Space.coords(6, 2.0), Space.coords(6, 0.5), Space.sup_coords(6),
                   Space.matrix(3, "operator")):
            x = rng.standard_normal(sp.shape)
            assert norm(sp, lam * x) == pytest.approx(abs(lam) * norm(sp, x), rel=1e-12, abs=1e-300)


class TestCheck:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("space", [Space.sup_grid(Grid.torus(8)),
                                       Space.coords(8, 2.0), Space.matrix(2, "hs")],
                             ids=["grid", "coords", "matrix"])
    def test_non_finite_entries_rejected(self, space, bad):
        x = space.zero()
        x.flat[1] = bad
        with pytest.raises(SpaceError, match="non-finite"):
            space.check(x)


class TestQuasiTriangle:
    @pytest.mark.parametrize("p", [0.5, 0.75, 1.0, 2.0])
    def test_modulus_on_many_pairs(self, p):
        sp = Space.coords(8, p)
        c = 2.0 ** (1.0 / p - 1.0) if p < 1 else 1.0  # ||x + y|| <= c (||x|| + ||y||)
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            x = rng.standard_normal(8)
            y = rng.standard_normal(8)
            assert norm(sp, x + y) <= c * (norm(sp, x) + norm(sp, y)) * (1 + 1e-12)

    @pytest.mark.parametrize("p", [0.5, 0.8])
    def test_p_triangle_power_form(self, p):
        sp = Space.coords(6, p)
        rng = np.random.default_rng(3)
        for _ in range(2000):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            lhs = norm(sp, x + y) ** p
            rhs = norm(sp, x) ** p + norm(sp, y) ** p
            assert lhs <= rhs * (1 + 1e-12)


class TestGridRefinement:
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_smooth_function_consistency(self, p):
        f = lambda t: np.sin(3 * t) + t * t
        coarse = Grid.interval(0, 1, 1001)
        fine = Grid.interval(0, 1, 10001)
        a = norm(Space.lp_grid(coarse, p), f(coarse.nodes))
        b = norm(Space.lp_grid(fine, p), f(fine.nodes))
        assert abs(a - b) / b < 1e-3
