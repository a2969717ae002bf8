"""The discrete Chebyshev fit as a HiGHS linear program: the slow oracle of
the exchange fits, at HiGHS default tolerances (about 1e-7)."""

import numpy as np
from scipy.optimize import linprog


def sup_fit_lp(cols: np.ndarray, x: np.ndarray):
    """min_c max_i |x_i - (cols c)_i| as an LP in (c, t); returns (value, coef, approx)."""
    n, d = cols.shape
    if d == 0:
        return float(np.max(np.abs(x))), np.zeros(0), np.zeros_like(x, dtype=float)
    a_ub = np.block([[cols, -np.ones((n, 1))], [-cols, -np.ones((n, 1))]])
    b_ub = np.concatenate([x, -x])
    c = np.zeros(d + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * d + [(0.0, None)], method="highs")
    assert res.success, res.message
    coef = res.x[:d]
    approx = cols @ coef
    return float(np.max(np.abs(x - approx))), coef, approx
