"""Best-approximation error computation E(x, A_n) per scheme kind.

Each kind has one solve, `Scheme.solve`, which answers a list of levels:
`best_approx` asks it for one level and `error_profile` for the whole
window, so a kind that factors x (one QR for an L2 chain, one SVD for rank,
one cost table for an L_p spline, one coefficient sort, Gram matrix and
greedy pursuit for an n-term scheme) does so once for the list, and a
profile entry is the answer `best_approx` gives at that level.  An n-term
dictionary of indicator atoms declares their windows, and its Gram entries,
norms and the inner products of its screen and pursuit are then window sums
of one prefix sum (`_window_sums`), with no product with the atom matrix.

Every solver returns one record, `BestApprox`: an achieved distance `value`
with its minimizer, a proved lower bound `lower` on E(x, A_n) and the solver
tolerance `tol` = LP_TOL * max(1, ||x||_inf).  One rule decides exactness:
the status is "exact" when value - lower <= tol, else "upper-bound".  A value
is always achievable, so it is never below E by more than the tolerance.

- Closed forms pass lower = value: the L2 projection, the orthonormal top-n
  coefficients, the zero level, the L2 exhaustive n-term search, the L2
  spline DP, SVD truncation and the interleaved-c0 formula.
- Sup fits pass the bound of their discrete exchange, multi-point or
  single-point; a sup exhaustive n-term search the least over its subsets.
  The quantizer and the sup free-knot spline share one min-max segmentation
  solver (`_min_max_cells`), whose bracket closes exactly for the quantizer
  (over the sorted distinct values) and within LP_TOL for the spline.
- IRLS and greedy n-term selection prove nothing and pass lower = 0.

A caller that keeps the best of several candidates passes `best_approx` its
incumbent, the best value so far.  Only the sup fit uses it.  A screen
before the exchange takes the least-squares fit, then Lawson's reweighting
steps toward the Chebyshev fit; it gives up once a step leaves the value
unchanged (the zero approximant, of value ||x||_inf, counts as the one
before the least-squares fit) or after LAWSON_MAX_STEPS steps, and the
exchange goes on without the incumbent.  The first approximant of the
screen whose value is below the incumbent stops the fit with that value,
lower 0 and solver "least-squares": E(x, A_n) is then below the incumbent,
so the fit run to its end, if exact, could not beat it by more than its
tol.  A fit that would is solved as if it had no incumbent.  The
least-squares fit solves the normal equations of the columns' Gram matrix,
which a chain forms once per level, at the level's first screened fit, and
passes in (`Chain._screen_gram`); a caller that passes none has the screen
form it.

`best_approx` and `error_profile` are the one scaling boundary: every solve
runs on x scaled by a power of two so that max |x| lies in (1/2, 1], and
value, lower and tol scale back together, so the tolerances written with
max(1, ||x||_inf) are relative to the element.  The fits called directly
keep them absolute below ||x||_inf = 1: `Spline.certified_members` through
`_spline_on_cells`, and the witness fits through `_irls_fit`.
"""

from __future__ import annotations

import bisect
import csv
import functools
import math
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Callable, Optional

import numpy as np
from scipy import linalg
from scipy.optimize import linprog

from .space import (POWER_SUM_FLOOR, Space, SpaceError, _norm_unchecked, _unit_scaled,
                    column_norms, norm)

LP_TOL = 1e-10
EXCHANGE_MAX_ITER = 100
EXCHANGE_ROUNDING = 1e-13  # relative: an exchange bracket or a ratio-test pivot this small is rounding
EXCHANGE_MAX_COND = 1e12  # a reference system with ||A||_inf ||A^-1||_inf above this is singular
LAWSON_MAX_STEPS = 8  # reweighting steps of the incumbent screen, from their measured counts
LAWSON_BLOCK = 8192  # entries of a block of weighted columns in a reweighting step
IRLS_MAX_ITER = 500
IRLS_REL_TOL = 1e-10
IRLS_WEIGHT_FLOOR = 1e-12
EXHAUSTIVE_SUBSET_LIMIT = 100_000
GREEDY_RESTARTS = 8
SCREEN_CHUNK = 4096  # subsets per batched eigensolve of the L2 n-term screen
SPLINE_CELL_BLOCK = 1 << 13  # cells per block of the L2 spline cost table
NOT_FINITE = "the error is not finite (the element's scale overflows)"


class NoSolverError(NotImplementedError):
    """No solver is registered for this (kind, norm) pair."""


class SolverError(RuntimeError):
    """A solver failed to produce a usable answer."""


@dataclass(frozen=True)
class BestApprox:
    """E(x, A_n) bracketed: lower <= E <= value up to rounding, with the
    minimizer that achieves value (None from the closed forms that read E
    off one factorization of x: the L2 chain's QR and rank's SVD)."""

    value: float
    minimizer: Optional[np.ndarray]
    lower: float
    tol: float = LP_TOL
    info: dict = field(default_factory=dict, compare=False)

    @property
    def status(self) -> str:
        """The one place a solve's exactness is decided."""
        return "exact" if self.value - self.lower <= self.tol else "upper-bound"


# -- linear fits over an explicit column basis --------------------------------


def _weighted_l2_fit(space: Space, cols: np.ndarray, x: np.ndarray):
    """Exact least-squares fit in the space's L2 (or ell_2) inner product."""
    if cols.shape[1] == 0:
        return _norm_unchecked(space, x), np.zeros(0), np.zeros_like(x, dtype=float)
    w = np.sqrt(space.weights)
    coef, *_ = np.linalg.lstsq(cols * w[:, None], x * w, rcond=None)
    approx = cols @ coef
    return _norm_unchecked(space, x - approx), coef, approx


def _sup_fit(cols: np.ndarray, x: np.ndarray, incumbent: float = -math.inf,
             gram: Optional[Callable] = None):
    """Chebyshev fit over the columns by multi-point exchange, then single-point steps.

    The exchange (Remez; Stiefel's discrete form) solves the (d+1)x(d+1)
    system [cols[ref], s] (c, h) = x[ref] on a reference of d+1 indices with
    signs s = (+1, -1, ...).  The last row lam of the system's inverse has
    lam @ cols[ref] = 0 and lam @ s = 1, so for every c

        |h| = |lam @ (x - cols c)[ref]| <= ||lam||_1 max |x - cols c|,

    and lower = |h| / ||lam||_1 is a lower bound on the best error (de la
    Vallee Poussin); it equals |h| when the columns form a Haar system.  The
    bracket closes once the re-measured max |x - cols c| is within
    tol = LP_TOL * max(1, ||x||_inf) of the best lower bound seen; unless
    lower <= tol, the exchange goes on while it lowers the value, down to a
    gap of EXCHANGE_ROUNDING * max(1, ||x||_inf).  n <= d, a singular system,
    a stalled reference or the iteration cap before the bracket closes hand
    the fit to `_single_point_exchange`.  So does a closed bracket whose
    system, or the one behind `lower`, is singular to working precision
    (||system||_inf ||inv||_inf > EXCHANGE_MAX_COND; `inv` need not raise,
    e.g. on a repeated column), checked once per fit.  On the solve path
    ||x||_inf <= 1, so tol = LP_TOL is relative to x; a direct caller with a
    smaller x gets an absolute bracket.

    A positive `incumbent` is screened first (`_incumbent_screen`: the
    least-squares fit, then up to LAWSON_MAX_STEPS of Lawson's reweighting
    steps).  The first approximant of the screen whose value is below the
    incumbent ends the fit with that value and lower 0: it bounds the best
    error from above, so the fit run to its end (if exact, at most the best
    error plus tol) could not beat the incumbent by more than tol.  A fit
    that would beat it so is never stopped, and the exchange reads no
    incumbent, so that fit is solved as if it had none.  `gram` is passed on
    to the screen.

    Returns a BestApprox; its info holds solver and iterations, and the
    solver is "least-squares" for a fit the screen stopped.
    """
    n, d = cols.shape
    x_norm = float(np.max(np.abs(x)))
    scale = max(1.0, x_norm)
    tol = LP_TOL * scale
    lower, it, best, lower_system = 0.0, 0, None, None
    if n > d:
        if incumbent > 0.0:  # else no value can stop below it
            stopped = _incumbent_screen(cols, x, incumbent, x_norm, gram)
            if stopped is not None:
                return stopped
        system = np.empty((d + 1, d + 1))
        system[:, d] = (-1.0) ** np.arange(d + 1)
        ref = np.rint(np.arange(d + 1) * ((n - 1) / max(d, 1))).astype(int)  # evenly spaced
        for it in range(1, EXCHANGE_MAX_ITER + 1):
            system[:, :d] = cols[ref]
            try:
                inv = np.linalg.inv(system)
            except np.linalg.LinAlgError:
                break
            sol = inv @ x[ref]
            approx = cols @ sol[:d]
            resid = x - approx
            absr = np.abs(resid)
            peak = int(absr.argmax())
            value = float(absr[peak])
            current = ref, inv
            bound = abs(float(sol[d])) / float(np.abs(inv[d]).sum())
            if bound > lower:
                lower, lower_system = bound, current
            if best is not None and value >= best[0]:
                break
            if value - lower <= tol:
                best = value, approx, current
                if lower <= tol or value - lower <= EXCHANGE_ROUNDING * scale:
                    break
            new = _exchange_reference(ref, resid < 0, absr, peak)
            if new.tolist() == ref.tolist():  # stalled: not a Haar system on this reference
                break
            ref = new
        if best is not None and _reference_cond(cols, *best[2]) <= EXCHANGE_MAX_COND and (
                lower_system is None or lower_system is best[2]
                or _reference_cond(cols, *lower_system) <= EXCHANGE_MAX_COND):
            return BestApprox(best[0], best[1], lower, tol, {"solver": "exchange", "iterations": it})
    return _single_point_exchange(cols, x, scale, it, best and best[:2])


def _incumbent_screen(cols: np.ndarray, x: np.ndarray, incumbent: float, x_norm: float,
                      gram: Optional[Callable] = None):
    """The least-squares fit, then Lawson's reweighting steps toward the
    Chebyshev fit (Lawson, 1961; Rice and Usow, 1968): weights
    u <- u |x - cols c|, normalized, and c the u-weighted least-squares fit.
    Each approximant's max |x - cols c| is an achieved distance.  The first
    whose value is below `incumbent` is returned as a fit stopped below it:
    solver "least-squares", lower 0, and iterations the reweighting steps
    taken.  Returns None, for the exchange to go on, at the first
    approximant whose value is that of the one before within
    EXCHANGE_ROUNDING * scale (scale = max(1, x_norm), x_norm = ||x||_inf;
    the zero approximant, of value x_norm, comes before the least-squares
    fit, so an x that fit leaves as it is takes no step; a NaN value counts
    as unchanged), after LAWSON_MAX_STEPS steps, or on a singular Gram
    matrix (e.g. a repeated column).  A step sums its weighted normal
    equations over blocks of LAWSON_BLOCK entries of cols.T, so it
    allocates nothing as large as cols.

    The least-squares fit needs the unweighted Gram matrix cols.T @ cols,
    which depends on the columns alone: `gram()` returns it where the
    caller keeps it (a chain keeps one per level, `Chain._screen_gram`), and
    without `gram` the screen forms it."""
    rows, size = cols.T, max(1, LAWSON_BLOCK // max(1, cols.shape[1]))  # columns of rows per block
    # unweighted at step 0: the least-squares fit
    gram, rhs = (rows @ cols if gram is None else gram()), rows @ x
    scale, previous = max(1.0, x_norm), x_norm  # previous: the zero approximant's value
    for step in range(LAWSON_MAX_STEPS + 1):
        try:
            approx = np.linalg.solve(gram, rhs) @ rows
        except np.linalg.LinAlgError:
            return None
        absr = np.abs(x - approx)
        value = float(absr.max())
        if value < incumbent:
            return BestApprox(value, approx, 0.0, LP_TOL * scale,
                              {"solver": "least-squares", "iterations": step})
        if step == LAWSON_MAX_STEPS or not abs(value - previous) > EXCHANGE_ROUNDING * scale:
            return None
        previous = value
        weights = absr if step == 0 else weights * absr
        weights /= weights.sum()
        gram, rhs = np.zeros_like(gram), np.zeros_like(rhs)
        for a in range(0, x.size, size):
            part = rows[:, a:a + size] * weights[a:a + size]
            gram += part @ rows[:, a:a + size].T
            rhs += part @ x[a:a + size]


def _single_point_exchange(cols: np.ndarray, x: np.ndarray, scale: float, it: int, best=None):
    """Chebyshev fit by single-point exchange steps, which need no Haar
    condition: the simplex method on the dual LP (Barrodale and Phillips,
    1975), over an orthonormal basis of the span (directions of the columns
    below `matrix_rank`'s tolerance are rounding and drop out).  The
    reference starts at the basis's pivoted-QR rows, signed by their null
    vector.  Each step brings in the residual's peak and drops the point of
    the ratio test on lam = inv[r], ties to the lowest index; the cap ends a
    cycle.  Only a system within EXCHANGE_MAX_COND raises `lower`, and the
    least value seen, from `best` (value, approx) on, is returned."""
    tol = LP_TOL * scale
    rank = int(np.linalg.matrix_rank(cols))
    basis = linalg.qr(cols, mode="economic", pivoting=True)[0][:, :rank]  # spans the columns
    if rank == x.size:  # the columns span every x
        approx = basis @ (basis.T @ x)
        return BestApprox(float(np.max(np.abs(x - approx))), approx, 0.0, tol,
                          {"solver": "single-point-exchange", "iterations": it})
    ref = linalg.qr(basis.T, mode="r", pivoting=True)[1][:rank + 1]
    lam = linalg.null_space(basis[ref].T)[:, 0]
    sigma = np.where(lam * np.copysign(1.0, lam @ x[ref]) < 0, -1.0, 1.0)  # so that h >= 0
    lower = 0.0
    for step in range(1, EXCHANGE_MAX_ITER + 1):
        inv = np.linalg.inv(np.column_stack([basis[ref], sigma]))
        sol = inv @ x[ref]
        approx = basis @ sol[:rank]
        resid = x - approx
        absr = np.abs(resid)
        value = float(absr.max())
        if best is None or value < best[0]:
            best = value, approx
        level = abs(float(sol[rank]))
        if _reference_cond(basis, ref, inv) <= EXCHANGE_MAX_COND:
            lower = max(lower, level / float(np.abs(inv[rank]).sum()))
        gap = best[0] - lower
        if gap <= tol and (lower <= tol or gap <= EXCHANGE_ROUNDING * scale):
            break
        absr[ref] = 0.0  # a reference residual is +-h up to rounding
        enter = int(absr.argmax())
        sign = math.copysign(1.0, resid[enter])
        pivots = sign * sigma * (np.append(basis[enter], sign) @ inv)
        ok = pivots > EXCHANGE_ROUNDING * np.abs(pivots).max()
        if absr[enter] <= level + EXCHANGE_ROUNDING * scale or not ok.any():
            break
        ratio = np.where(ok, np.abs(inv[rank]) / np.where(ok, pivots, 1.0), math.inf)
        leave = np.lexsort((ref, ratio))[0]  # the least ratio, ties to the lowest index
        ref[leave], sigma[leave] = enter, sign
    return BestApprox(best[0], best[1], lower, tol, {"solver": "single-point-exchange",
                                                     "iterations": it + step})


def _reference_cond(cols: np.ndarray, ref: np.ndarray, inv: np.ndarray) -> float:
    """||[cols[ref], s]||_inf ||inv||_inf; the +-1 column s adds 1 to every row sum."""
    return (linalg.lapack.dlange("I", cols[ref]) + 1.0) * linalg.lapack.dlange("I", inv)


def _exchange_reference(ref: np.ndarray, neg: np.ndarray, absr: np.ndarray, peak: int) -> np.ndarray:
    """Move each reference index to the peak of its residual sign run, then
    insert the global peak so that the signs keep alternating.

    `neg` and `absr` are the residual's sign and size, `peak` its argmax.  Two
    reference indices in one run mean their signs were rounding noise (h near
    0, e.g. x vanishing on the reference); the global peak then replaces the
    reference index nearest to it.  A run's peak is its first index of
    largest size, so exact ties go to the lowest index.
    """
    n = neg.size
    change = np.empty(n + 1, dtype=bool)
    change[0] = change[n] = True
    np.not_equal(neg[1:], neg[:-1], out=change[1:n])
    bounds = np.flatnonzero(change)  # the run starts, then n
    runs = bounds.searchsorted(ref, side="right")  # run k is [bounds[k-1], bounds[k])
    ks = runs.tolist()
    if any(a == b for a, b in zip(ks, ks[1:])):
        new = ref.copy()
        new[int(np.abs(ref - peak).argmin())] = peak
        return new
    lo, hi = bounds[runs - 1].tolist(), bounds[runs].tolist()
    peaks = [a + int(absr[a:b].argmax()) for a, b in zip(lo, hi)]  # over plain ints, not numpy scalars
    new = np.array(peaks)
    if peak in peaks:
        return new
    pos = int(np.searchsorted(new, peak))
    if pos == 0:
        return np.concatenate(([peak], new[1:] if neg[new[0]] == neg[peak] else new[:-1]))
    if pos == new.size:
        return np.concatenate((new[:-1] if neg[new[-1]] == neg[peak] else new[1:], [peak]))
    new[pos - 1 if neg[new[pos - 1]] == neg[peak] else pos] = peak
    return new


def l1_fit_lp(cols: np.ndarray, x: np.ndarray, weights: np.ndarray):
    """Exact weighted-L1 fit min sum_i w_i |x_i - (cols c)_i| via a sparse LP."""
    from scipy import sparse

    n, d = cols.shape
    if d == 0:
        return float(np.sum(weights * np.abs(x))), np.zeros(0), np.zeros_like(x, dtype=float)
    eye = sparse.eye(n, format="csr")
    block = sparse.csr_matrix(cols)
    a_ub = sparse.vstack([sparse.hstack([block, -eye]), sparse.hstack([-block, -eye])], format="csr")
    b_ub = np.concatenate([x, -x])
    c = np.concatenate([np.zeros(d), weights])
    bounds = [(None, None)] * d + [(0.0, None)] * n
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise SolverError(f"L1 LP failed: {res.message}")
    coef = res.x[:d]
    approx = cols @ coef
    return float(np.sum(weights * np.abs(x - approx))), coef, approx


def _irls_fit(cols: np.ndarray, x: np.ndarray, quad: np.ndarray, p: float):
    """Iteratively reweighted least squares for 1 <= p < infinity in the norm
    (sum_i quad_i |r_i|^p)^(1/p), with quadrature weights `quad`.

    Residuals are floored at IRLS_WEIGHT_FLOOR * max(1, ||x||_inf) in the
    weights: relative on the solve path, where ||x||_inf <= 1, and absolute
    below ||x||_inf = 1 for the witness fits that call this directly.
    Returns an achieved (upper-bound) value with a convergence certificate.
    """
    def power_norm(resid: np.ndarray) -> float:
        return float(np.sum(quad * np.abs(resid) ** p)) ** (1.0 / p)

    if cols.shape[1] == 0:
        return power_norm(x), np.zeros(0), np.zeros_like(x, dtype=float), {"converged": True, "iterations": 0}
    u = np.sqrt(quad)
    coef, *_ = np.linalg.lstsq(cols * u[:, None], x * u, rcond=None)
    approx = cols @ coef
    resid = x - approx
    value = power_norm(resid)
    if p == 2.0:  # the weighted projection
        return value, coef, approx, {"converged": True, "iterations": 0}
    info = {"converged": False, "iterations": 0, "last_rel_change": math.inf}
    scale = max(float(np.max(np.abs(x))), 1.0)
    for it in range(1, IRLS_MAX_ITER + 1):
        r = np.maximum(np.abs(resid), IRLS_WEIGHT_FLOOR * scale)
        u = np.sqrt(quad * r ** (p - 2.0))
        coef, *_ = np.linalg.lstsq(cols * u[:, None], x * u, rcond=None)
        approx = cols @ coef
        resid = x - approx
        new_value = power_norm(resid)
        change = abs(new_value - value) / max(new_value, 1e-300)
        info.update(iterations=it, last_rel_change=change)
        value = new_value
        if change < IRLS_REL_TOL:
            info["converged"] = True
            break
    return value, coef, approx, info


def _is_l2(space: Space) -> bool:
    return space.norm_kind == "lp" and space.p == 2.0


def _fit_in_span(space: Space, cols: np.ndarray, x: np.ndarray, incumbent: float = -math.inf,
                 gram: Optional[Callable] = None):
    """Dispatch a linear best-approximation by the space's norm; only the sup
    fit stops below `incumbent`, and only its screen reads `gram`."""
    if space.norm_kind == "sup":
        return _sup_fit(cols, x, incumbent, gram)
    if space.norm_kind == "lp":
        if space.p == 2.0:
            value, _, approx = _weighted_l2_fit(space, cols, x)
            return BestApprox(value, approx, value, info={"solver": "projection"})
        if space.p < 1.0:
            raise NoSolverError(
                "best approximation from a linear span with p < 1 is non-convex; "
                "only quantizer, rank, and interleaved-c0 kinds support p < 1"
            )
        value, _, approx, info = _irls_fit(cols, x, space.weights, space.p)
        return BestApprox(value, approx, 0.0, info={**info, "solver": "irls"})
    raise NoSolverError(f"no linear-span solver for norm kind {space.norm_kind!r}")


# -- quantizer ----------------------------------------------------------------


def _min_max_cells(n: int, k: int, cell_end, cell_cost, tol: float):
    """Partition range(n) into at most k contiguous cells with the least largest cell cost.

    `cell_cost(s, e)` returns (upper, lower), an achieved value and a proved
    lower bound for the cost of the cell [s, e); the true cost never decreases
    when a cell grows.  `cell_end(s, t)` returns the largest e > s with
    upper(s, e) <= t.  "Can k cells reach t?" is then answered by greedy
    longest cells (parametric search: Megiddo 1983, Frederickson 1991):

    - a feasible check sets hi to the achieved largest cell cost;
    - an infeasible check leaves k + 1 greedy starts s_0 < ... < s_k < n, and
      any k-cell partition keeps one of the runs s_a .. s_{a+1} whole, so
      lo = min_a lower(s_a, s_{a+1} + 1) is a lower bound (pigeonhole).

    t bisects the bracket until hi - lo <= tol; the first probe, t = tol,
    settles members at once.  When the midpoint meets an end (adjacent
    floats), lo is probed once more if no earlier probe covered it, which
    closes the bracket for exactly measured costs.  The result is the greedy
    partition at t = hi, so it depends on the data only (the best partition
    seen, should rounding in the upper values make that pass infeasible).

    The callers pass tol 0 (the quantizer) or LP_TOL (the sup spline, whose
    x arrives scaled to ||x||_inf <= 1, so that tol is relative to it).
    Returns (lo, bounds, passes): bounds are the cell starts followed by n.
    """
    def greedy(t: float) -> list:
        starts = [0]
        while starts[-1] < n and len(starts) <= k:
            starts.append(cell_end(starts[-1], t))
        return starts

    lo, hi = 0.0, cell_cost(0, n)[0]
    bad, good, best = -math.inf, math.inf, [0, n]  # largest infeasible and smallest feasible probes
    t, passes = tol, 0
    while hi - lo > tol:
        passes += 1
        starts = greedy(t)
        if starts[-1] == n:
            good = t
            top = max(cell_cost(s, e)[0] for s, e in zip(starts, starts[1:]))
            if top < hi:
                hi, best = top, starts
        else:
            bad = t
            lo = max(lo, min(cell_cost(s, e + 1)[1] for s, e in zip(starts, starts[1:])))
        floor, ceil = max(lo, bad), min(hi, good)
        t = 0.5 * (floor + ceil)
        if t == floor or t == ceil:
            if not bad < lo < good:
                break
            t = lo
    passes += 1
    final = greedy(hi)
    return lo, final if final[-1] == n else best, passes


def best_m_value_sup(values: np.ndarray, m: int):
    """Optimal sup-distance of a sample vector to vectors with <= m distinct values.

    The cells are runs of the sorted distinct values, the cost of a cell is
    its half-range, and `_min_max_cells` closes the bracket exactly (tol 0).
    Equal values always share a cell, so the partition of the distinct
    values is that of all values.  The value is the largest half-range of
    the final greedy partition.  The minimizer takes each cell's midpoint
    u[i] + half, which is rounded, so it achieves the value only to within
    about one ulp of max|x|.
    """
    if m < 1:
        raise SolverError("value budget m must be >= 1")
    if not np.isfinite(values).all():
        raise SolverError("the quantizer needs finite values")
    if values.size == 0:
        return BestApprox(0.0, np.zeros(0), 0.0, info={"solver": "sorted-partition",
                                                       "iterations": 0})
    ul = np.unique(values).tolist()  # sorted; -0.0 and 0.0 are one value
    size = len(ul)

    def cell_end(s: int, t: float) -> int:
        base, reach = ul[s], 2.0 * t
        e = bisect.bisect_right(ul, base + reach, s + 1)
        # base + reach is rounded: restore the exact predicate ul[j] - base <= 2t
        while e < size and ul[e] - base <= reach:
            e += 1
        while ul[e - 1] - base > reach:
            e -= 1
        return e

    def cell_cost(s: int, e: int):
        half = (ul[e - 1] - ul[s]) / 2.0
        return half, half

    lower, bounds, passes = _min_max_cells(size, m, cell_end, cell_cost, 0.0)
    value, mids = 0.0, []
    for i, j in zip(bounds[:-1], bounds[1:]):
        half = (ul[j - 1] - ul[i]) / 2.0
        value = max(value, half)
        mids.append(ul[i] + half)
    starts = np.array([ul[i] for i in bounds[:-1]])
    minimizer = np.array(mids)[np.searchsorted(starts, values, side="right") - 1]
    return BestApprox(value, minimizer, lower, info={"solver": "sorted-partition",
                                                     "iterations": passes})


def quantizer_error(space: Space, x: np.ndarray, m: int) -> BestApprox:
    """Best sup-norm approximation by functions taking at most m values."""
    if space.norm_kind != "sup":
        raise NoSolverError("the quantizer solver is defined for sup-norm carriers")
    return best_m_value_sup(np.asarray(space.check(x), dtype=float), m)


def midpoint_quantizer(x: np.ndarray, m: int, radius: Optional[float] = None) -> np.ndarray:
    """m-level midpoint quantization of [-radius, radius]; error <= radius/m."""
    if radius is None:
        radius = float(np.max(np.abs(x)))
    if radius == 0.0:
        return np.zeros_like(x)
    cell = 2.0 * radius / m
    idx = np.clip(np.floor((x + radius) / cell), 0, m - 1)
    return -radius + (idx + 0.5) * cell


# -- interleaved c0 -----------------------------------------------------------


def _interleaved_error(cap: int, x: np.ndarray, level: int):
    ax = np.abs(x)
    if level <= 0:
        return float(np.max(ax)), np.zeros(cap)
    if level >= 2 * cap - 1:
        return 0.0, x.copy()
    if level % 2 == 1:  # span of the first k coordinates
        k = (level + 1) // 2
        value = float(np.max(ax[k:])) if k < cap else 0.0
        y = x.copy()
        y[k:] = 0.0
        return value, y
    # constrained set on m = k+1 coordinates, last coordinate bounded by
    # max of the leading ones over m
    m = level // 2 + 1
    tail = float(np.max(ax[m:])) if m < cap else 0.0
    lead = float(np.max(ax[: m - 1])) if m >= 2 else 0.0
    value = max(tail, (m * float(ax[m - 1]) - lead) / (m + 1.0), 0.0)
    y = np.zeros(cap)
    y[: m - 1] = x[: m - 1]
    if m >= 2 and lead + value > 0:
        j = int(np.argmax(ax[: m - 1]))
        y[j] = math.copysign(lead + value, x[j] if x[j] != 0 else 1.0)
    allowance = (lead + value) / m
    y[m - 1] = float(np.clip(x[m - 1], -allowance, allowance))
    return value, y


# -- n-term -------------------------------------------------------------------


def _window_sums(v: np.ndarray, start, stop) -> np.ndarray:
    """v[start:stop].sum(axis=0) for each pair of index arrays, from one prefix sum."""
    prefix = np.zeros((len(v) + 1, *v.shape[1:]))
    np.cumsum(v, axis=0, out=prefix[1:])
    return prefix[stop] - prefix[start]


def _inner_products(space: Space, cols: np.ndarray, x: np.ndarray,
                    windows: Optional[tuple] = None) -> np.ndarray:
    """<col, x> for every column; x is one element or a column per element.
    Indicator columns (`windows`, as `scheme.Dictionary` declares them) read
    h_j (P[stop_j] - P[start_j]) off the prefix sums P of W x."""
    wx = (space.weights * x.T).T
    if windows is not None:
        start, stop, height = windows
        return (_window_sums(wx, start, stop).T * height).T
    return cols.T @ wx


def _diag_gram(space: Space, atoms: np.ndarray, windows: Optional[tuple] = None) -> np.ndarray:
    """||a_j||^2 for every atom: h_j^2 W(window_j) for indicator atoms."""
    if windows is not None:
        start, stop, height = windows
        return height**2 * _window_sums(space.weights, start, stop)
    return np.einsum("ij,ij,i->j", atoms, atoms, space.weights)


def _gram(space: Space, atoms: np.ndarray, windows: Optional[tuple] = None) -> np.ndarray:
    """A^T W A, as B^T B for B = W^(1/2) A (one symmetric rank-k update); for
    indicator atoms h_i h_j W(window_i & window_j), exactly 0 where they are
    disjoint."""
    if windows is not None:
        start, stop, height = windows
        lo = np.maximum.outer(start, start)
        hi = np.maximum(np.minimum.outer(stop, stop), lo)
        return np.outer(height, height) * _window_sums(space.weights, lo, hi)
    atoms = atoms * np.sqrt(space.weights)[:, None]
    return atoms.T @ atoms


def _dictionary_is_orthonormal(space: Space, atoms: np.ndarray, gram: Callable) -> bool:
    """`gram()` returns the atoms' Gram matrix; it is called only for an L2
    dictionary of at most 256 atoms."""
    if atoms.shape[1] > 256 or not _is_l2(space):
        return False
    return bool(np.allclose(gram(), np.eye(atoms.shape[1]), atol=1e-10))


def _support_fits(space: Space, atoms: np.ndarray, xs: np.ndarray,
                  supports: list) -> np.ndarray:
    """The residual norm of each row of `xs` after a least-squares fit on the
    atoms of its nonempty support, all fitted together.

    The Gram matrix of the atoms the supports use and their inner products with
    every row are formed once.  Each support's block, padded to the largest
    support by an identity block that is decoupled from it, is solved by one
    batched `eigh`, which drops the eigenvalues at or below sqrt(eps) times the
    largest: the rounding-level ones of dependent atoms, such as a parent with
    both children.  The residuals x - A_S c of these explicit combinations of
    the support's atoms are formed by one product and measured in the space's
    norm, so each value is an achieved distance and a poor solve can only
    overstate it; an overflowing residual reads infinity.
    """
    used, at = np.unique(np.concatenate(supports), return_inverse=True)
    cols = atoms[:, used]
    sizes = np.array([len(support) for support in supports])
    width = int(sizes.max())
    real = np.arange(width) < sizes[:, None]
    rows = np.full(real.shape, used.size)  # padding points at a zero row and column
    rows[real] = at
    batch = np.arange(len(xs))[:, None]
    gram = np.zeros((used.size + 1, used.size + 1))
    gram[:-1, :-1] = _gram(space, cols)
    blocks = gram[rows[:, :, None], rows[:, None, :]]
    blocks[:, range(width), range(width)] += ~real
    rhs = np.zeros((used.size + 1, len(xs)))
    rhs[:-1] = _inner_products(space, cols, xs.T)
    lam, vec = np.linalg.eigh(blocks)
    proj = np.einsum("bij,bi->bj", vec, rhs[rows, batch])
    kept = lam > math.sqrt(np.finfo(float).eps) * lam[:, -1:]
    proj = np.where(kept, proj / np.where(kept, lam, 1.0), 0.0)
    coef = np.zeros_like(rhs)
    coef[rows, batch] = np.einsum("bij,bj->bi", vec, proj)
    resid = coef[:-1].T @ cols.T
    np.subtract(xs, resid, out=resid)
    finite = np.isfinite(resid).all(axis=1)
    resid[~finite] = 0.0
    return np.where(finite, column_norms(space, resid.T), math.inf)


def _nterm_l2_candidates(space: Space, atoms: np.ndarray, x: np.ndarray, n: int,
                         gram: Optional[Callable] = None, windows: Optional[tuple] = None) -> list:
    """The n-subsets, in `combinations` order, that may hold the least L2 error.

    Each subset S gets the estimate x^T W x - c_S^T G_SS^{-1} c_S of its squared
    error, from c = A^T W x and the Gram matrix G (only its diagonal when
    n = 1), through the diagonally normalized blocks D^-1/2 G_SS D^-1/2.  A
    2 x 2 block [[1, rho], [rho, 1]] has the eigenvalues 1 -+ |rho| and
    c^T G^-1 c = (u^2 + v^2 - 2 rho u v) / (1 - rho^2) for the normalized
    u, v; larger blocks go to batched eigensolves.  Their condition times
    max(D) / min(D) bounds the condition k of G_SS, and the estimate is taken
    to be off from the direct fit's squared error by at most
    err = max(sqrt(eps), n * N * eps * k) * x^T W x (rounding in the N-term
    Gram sums, the eigensolve and the fit).  A subset is kept when its
    estimate minus err does not exceed the least estimate plus its err, and
    always when its block is singular or k > 1/sqrt(eps).  The kept subsets
    are re-measured directly, so the first least value in `combinations`
    order is the same as fitting every subset.  `gram()` returns G (by
    default it is built here); `windows` are the atoms' indicator windows.
    """
    n_rows, n_atoms = atoms.shape
    eps = np.finfo(float).eps
    c = _inner_products(space, atoms, x, windows)
    xx = _norm_unchecked(space, x) ** 2
    diag = _diag_gram(space, atoms, windows)
    gram = (gram or functools.partial(_gram, space, atoms, windows))() if n > 1 else None
    count = math.comb(n_atoms, n)
    subsets = np.fromiter(chain.from_iterable(combinations(range(n_atoms), n)), dtype=np.intp,
                          count=count * n).reshape(count, n)
    est = np.full(len(subsets), np.nan)
    err = np.full(len(subsets), np.inf)
    for lo in range(0, len(subsets), SCREEN_CHUNK):
        rows = subsets[lo:lo + SCREEN_CHUNK]
        d = diag[rows]
        scale = 1.0 / np.sqrt(d)
        u = c[rows] * scale
        if n == 2:
            rho = gram[rows[:, 0], rows[:, 1]] * scale[:, 0] * scale[:, 1]
            lam = 1.0 + np.abs(rho)[:, None] * [-1.0, 1.0]
        else:
            block = d[:, :, None] if gram is None else gram[rows[:, :, None], rows[:, None, :]]
            try:
                lam, vec = np.linalg.eigh(block * scale[:, :, None] * scale[:, None, :])
            except np.linalg.LinAlgError:
                continue
        spread = d.max(axis=1) / d.min(axis=1)
        ok = (lam[:, 0] > 0) & (lam[:, 0] >= math.sqrt(eps) * lam[:, -1] * spread)
        lam, u, at = lam[ok], u[ok], lo + np.flatnonzero(ok)
        if n == 2:
            a, b = u.T
            quad = (a * a + b * b - 2.0 * rho[ok] * a * b) / (lam[:, 0] * lam[:, 1])
        else:
            quad = np.sum(np.einsum("kij,ki->kj", vec[ok], u) ** 2 / lam, axis=1)
        est[at] = xx - quad
        err[at] = np.maximum(math.sqrt(eps), n * n_rows * eps * lam[:, -1] / lam[:, 0] * spread[ok]) * xx
    trusted = np.isfinite(err)
    keep = ~trusted
    if trusted.any():
        keep |= est - err <= np.min((est + err)[trusted])
    return [tuple(row) for row in subsets[keep].tolist()]


def _nterm_exhaustive(space: Space, atoms: np.ndarray, x: np.ndarray, n: int,
                      gram: Optional[Callable] = None, windows: Optional[tuple] = None):
    """Best n-term fit over every n-subset of the atoms, the first least value in
    `combinations` order; its lower bound is the least over the subsets' fits.
    In L2 a batched screen picks the subsets to fit."""
    if n > 0 and _is_l2(space):
        subsets = _nterm_l2_candidates(space, atoms, x, n, gram, windows)
    else:
        subsets = combinations(range(atoms.shape[1]), n)
    best, lower = None, math.inf
    for subset in subsets:
        fit = _fit_in_span(space, atoms[:, list(subset)], x)
        lower = min(lower, fit.lower)
        if best is None or fit.value < best[0].value:
            best = fit, subset
    fit, subset = best
    return BestApprox(fit.value, fit.minimizer, lower, fit.tol,
                      {"solver": "exhaustive-subsets", "subset": list(subset)})


def _nterm_greedy(space: Space, atoms: np.ndarray, x: np.ndarray, levels: list, seed: int,
                  windows: Optional[tuple] = None) -> dict:
    """Orthogonal matching pursuit with GREEDY_RESTARTS restarts in lockstep,
    fitted at each of `levels`.

    Restart 0 starts from the atom best correlated with x, and restart r > 0
    from one of the 16 best, drawn from `seed` in restart order; every later
    pick is the best-correlated atom the restart has not chosen.  Step 0's
    correlations are shared, and each later step correlates all residuals in
    one product.  Each restart keeps a W-orthonormal basis of its picks,
    extended by classical Gram-Schmidt applied twice (CGS2), and updates its
    residual, the L2 projection error, in O(N k) with no least-squares solve
    (batch OMP: Rubinstein, Zibulevsky and Elad, 2008).  A pick whose new
    direction is below eps * max(N, k) of its norm adds no rank, as for
    `lstsq` with rcond=None, and leaves basis and residual as they are.  An
    L2 level's value is the measured norm of the residual; other norms fit
    the level's picks by `_fit_in_span`.

    A restart's picks do not depend on how far it runs, so level n's picks
    are its first n picks.  Returns {n: BestApprox}, the least value over
    restarts (the first restart on ties), with lower 0: a pursuit proves
    nothing.

    Correlations that tie in exact arithmetic are decided by rounding.  In a
    dyadic dictionary, once a parent is chosen its two children tie; either
    gives the same span and value.  Other ties, such as mirror-image atoms
    for a symmetric x, can lead to different values.
    """
    rng = np.random.default_rng(seed)
    n_rows, n_atoms = atoms.shape
    top = max(levels)
    l2 = _is_l2(space)
    runs = np.arange(GREEDY_RESTARTS)
    w = space.weights
    col_scale = np.sqrt(np.maximum(_diag_gram(space, atoms, windows), 1e-300))
    picks = np.zeros((GREEDY_RESTARTS, top), dtype=np.intp)
    basis = np.zeros((GREEDY_RESTARTS, top, n_rows))  # W-orthonormal rows, 0 where skipped
    resid = np.tile(x.astype(float), (GREEDY_RESTARTS, 1))
    best = {}
    for step in range(top):
        if step == 0:
            corr = np.abs(_inner_products(space, atoms, x, windows)) / col_scale
            first = np.argsort(corr)[-min(16, n_atoms):]
            picks[:, 0] = [np.argmax(corr), *(rng.choice(first) for _ in runs[1:])]
        else:
            corr = np.abs(_inner_products(space, atoms, resid.T, windows)) / col_scale[:, None]
            corr[picks[:, :step].T, runs] = -math.inf
            picks[:, step] = np.argmax(corr, axis=0)
        done, v = basis[:, :step], atoms[:, picks[:, step]].T[:, :, None]
        for _ in range(2):  # CGS2
            v = v - done.transpose(0, 2, 1) @ (done @ (w[:, None] * v))
        length = np.sqrt(np.sum(w[:, None] * v * v, axis=1))
        rank_tol = np.finfo(float).eps * max(n_rows, step + 1) * col_scale[picks[:, step]]
        grows = length[:, 0] > rank_tol
        basis[grows, step] = v[grows, :, 0] / length[grows]
        q = basis[:, step]
        resid -= q * np.sum(q * w * resid, axis=1)[:, None]
        n = step + 1
        if n not in levels:
            continue
        if l2:
            values = [_norm_unchecked(space, r) for r in resid]
        else:
            fits = [_fit_in_span(space, atoms[:, chosen], x) for chosen in picks[:, :n]]
            values = [fit.value for fit in fits]
        r = int(np.argmin(values))  # the first restart on ties
        best[n] = BestApprox(values[r], x - resid[r] if l2 else fits[r].minimizer, 0.0,
                             info={"subset": sorted(int(i) for i in picks[r, :n]),
                                   "solver": "greedy-omp", "restarts": GREEDY_RESTARTS})
    return best


def _nterm_levels(space: Space, atoms: np.ndarray, x: np.ndarray, levels: list, seed: int,
                  windows: Optional[tuple] = None) -> list:
    """Best n-term fits, one BestApprox for each of `levels`, in every norm.

    An orthonormal dictionary takes the top coefficients of one sort; other
    levels search every subset when they number at most
    EXHAUSTIVE_SUBSET_LIMIT, and the rest share one greedy pursuit
    (`_nterm_greedy`).  Its restarts run in lockstep on incremental CGS2
    bases that skip picks adding no rank, so an L2 level needs no
    least-squares solve; its values follow a per-restart `lstsq` pursuit to
    rounding, except where rounding decides a tie (a chosen parent's two
    children tie, with the same span and value).  The Gram matrix is built at
    most once, when the orthonormality test or an L2 exhaustive level above 1
    first needs it.  A dictionary of indicator atoms passes their `windows`:
    its Gram entries, norms and the screen's and pursuit's inner products are
    then window sums, and no product with the whole of `atoms` is formed
    unless the dictionary is orthonormal.
    """
    n_atoms = atoms.shape[1]
    out: dict = {}
    greedy = []
    order = None
    gram = functools.cache(functools.partial(_gram, space, atoms, windows))
    if max(levels) > 0 and _dictionary_is_orthonormal(space, atoms, gram):
        # dense even for indicator atoms: an orthonormal one (in the two
        # families, a single atom) keeps the dense path's values bit for bit
        b = _inner_products(space, atoms, x)
        order = np.argsort(-np.abs(b))
    for level in levels:
        n = min(level, n_atoms)
        if n <= 0:
            value = _norm_unchecked(space, x)
            out[level] = BestApprox(value, np.zeros_like(x, dtype=float), value,
                                    info={"solver": "zero-level"})
        elif order is not None:
            top = order[:n]
            approx = atoms[:, top] @ b[top]
            value = _norm_unchecked(space, x - approx)
            out[level] = BestApprox(value, approx, value, info={
                "solver": "orthonormal-top-coefficients", "subset": sorted(int(i) for i in top)})
        elif math.comb(n_atoms, n) <= EXHAUSTIVE_SUBSET_LIMIT:
            out[level] = _nterm_exhaustive(space, atoms, x, n, gram, windows)
        else:
            greedy.append(level)  # level < n_atoms here, since comb(n_atoms, n_atoms) = 1
    if greedy:
        out.update(_nterm_greedy(space, atoms, x, greedy, seed, windows))
    return [out[level] for level in levels]


# -- free-knot splines ----------------------------------------------------------


def _hankel_quad(mom: np.ndarray, rhs: np.ndarray):
    """b^T A^-1 b and the least pivot of A = L D L^T for stacked d x d Hankel
    systems A[a, c] = mom[a + c] with right-hand sides b = rhs, by an LDL^T
    without pivoting, unrolled over a and c and vectorized over the stack."""
    d = len(rhs)
    ld, low, z = {}, {}, []  # ld[i, k] = L[i, k] * D[k]
    for j in range(d):
        for i in range(j, d):
            e = mom[i + j]
            for k in range(j):
                e = e - ld[i, k] * low[j, k]
            ld[i, j] = e
            if i > j:
                low[i, j] = e / ld[j, j]
        zj = rhs[j]
        for k in range(j):
            zj = zj - low[j, k] * z[k]
        z.append(zj)
    pivots = [ld[j, j] for j in range(d)]
    return sum(zj * zj / pj for zj, pj in zip(z, pivots)), np.minimum.reduce(pivots)


def _spline_cost_table_l2(space: Space, x: np.ndarray, degree: int) -> np.ndarray:
    """cost[i, j] = squared L2 error of the best degree-<degree> fit on nodes [i, j).

    Cells of at most `degree` nodes are interpolated (cost 0).  Row i solves
    the normal equations in the powers of (t - t_i) / (t_N - t_i), its own
    shift and scale: in raw powers the short cells' Hankel moment matrices
    are singular to working precision.  A block of about SPLINE_CELL_BLOCK
    cells [i, j), j - 1 from its first row on (earlier columns weigh 0),
    takes one cumsum and one `_hankel_quad` for x^T W x - b^T A^-1 b, so the
    working set stays near 2 MB at degree 4.  A cell whose least pivot is
    not positive, or whose error is not finite, is re-solved by
    `_spline_cost_entry`: no NaN reaches the table.  The table is built for
    x scaled by a power of two (`_unit_scaled`) and scaled back, so the
    squares z_j^2 of `_hankel_quad` do not underflow on a tiny x.
    """
    x, e = _unit_scaled(x)  # by 2^0 on the solve path; kept for direct callers of the table
    t, w = space.grid.nodes, space.grid.weights
    npts, d = t.size, degree  # d coefficients, moments of the powers 0 .. 2d-2
    cost = np.full((npts + 1, npts + 1), math.inf)
    for size in range(1, d + 1):  # interpolated cells
        cost[np.arange(npts + 1 - size), np.arange(size, npts + 1)] = 0.0
    i0 = 0
    while i0 < npts - d:
        rows = min(max(1, SPLINE_CELL_BLOCK // (npts - i0)), npts - d - i0)
        start = np.arange(i0, i0 + rows)[:, None]
        ahead = np.arange(i0, npts) - start  # cell [i, j) sits at ahead = j - 1 - i
        dt = (t[i0:] - t[start]) / (t[-1] - t[start])
        sums = np.empty((3 * d, rows, npts - i0))
        sums[0] = np.where(ahead >= 0, w[i0:], 0.0)
        power = dt
        for a in range(1, 2 * d - 1):
            np.multiply(sums[0], power, out=sums[a])
            power = power * dt
        np.multiply(sums[:d], x[i0:], out=sums[2 * d - 1:-1])
        sums[-1] = np.where(ahead >= 0, w[i0:] * x[i0:] ** 2, 0.0)
        np.cumsum(sums, axis=2, out=sums)
        with np.errstate(all="ignore"):  # cells of at most d nodes are singular
            quad, pivot = _hankel_quad(sums[:2 * d - 1], sums[2 * d - 1:-1])
            sq = sums[-1] - quad
        fit = ahead >= d
        np.copyto(cost[i0:i0 + rows, i0 + 1:], np.maximum(sq, 0.0), where=fit)
        for r, c in zip(*np.nonzero(fit & ~((pivot > 0) & np.isfinite(sq)))):
            i, j = i0 + int(r), i0 + int(c) + 1
            cost[i, j] = _spline_cost_entry(space, x, degree, i, j)[0]
        i0 += rows
    return np.ldexp(cost, 2 * e, out=cost)


def _spline_cost_entry(space: Space, x: np.ndarray, degree: int, i: int, j: int):
    """p-power error and fit of the best degree-<degree> L_p fit on nodes [i, j)."""
    quad = space.grid.weights[i:j]
    approx = _irls_fit(_spline_columns(space.grid.nodes[i:j], degree), x[i:j], quad, space.p)[2]
    return float(np.sum(quad * np.abs(x[i:j] - approx) ** space.p)), approx


def _spline_columns(t: np.ndarray, degree: int) -> np.ndarray:
    return np.vander((t - t.mean()) / max(float(np.ptp(t)), 1e-300), degree, increasing=True)


def _spline_on_cells(space: Space, x: np.ndarray, degree: int, cuts) -> np.ndarray:
    """The spline fitted on the cells [cuts[k], cuts[k + 1]) of the grid nodes,
    each cell by its best degree-<degree> fit: `_sup_fit` in sup, else
    `_spline_cost_entry`.  Empty cells are skipped."""
    nodes = space.grid.nodes
    approx = np.empty(nodes.size)
    for i, j in zip(cuts[:-1], cuts[1:]):
        if j <= i:
            continue
        if space.norm_kind == "sup":
            approx[i:j] = _sup_fit(_spline_columns(nodes[i:j], degree), x[i:j]).minimizer
        else:
            approx[i:j] = _spline_cost_entry(space, x, degree, i, j)[1]
    return approx


def _spline_sup(space: Space, x: np.ndarray, degree: int, pieces: int):
    """Sup-norm free-knot spline by greedy segmentation (`_min_max_cells`).

    A cell's cost is the minimax error of its degree-<degree> fit (`_sup_fit`,
    which brackets it), and it never grows when the cell shrinks, so each
    greedy cell end is found by galloping then bisecting over fits.  The
    segmentation bracket closes within LP_TOL, relative to x: it is reached
    only through `best_approx`, so ||x||_inf <= 1.
    """
    nodes = space.grid.nodes
    npts = nodes.size
    tol = LP_TOL
    costs: dict = {}

    def cell_cost(s: int, e: int):
        if (s, e) not in costs:
            fit = _sup_fit(_spline_columns(nodes[s:e], degree), x[s:e])
            costs[s, e] = (fit.value, fit.lower)
        return costs[s, e]

    def cell_end(s: int, t: float) -> int:
        # cells of at most `degree` nodes are interpolated; gallop, then bisect,
        # keeping upper(s, good) <= t < upper(s, bad)
        good, bad, step = min(s + degree, npts), npts + 1, 1
        while bad - good > 1:
            probe = min(good + step, (good + bad) // 2)
            if cell_cost(s, probe)[0] <= t:
                good, step = probe, 2 * step
            else:
                bad = probe
        return good

    lower, bounds, passes = _min_max_cells(npts, pieces, cell_end, cell_cost, tol)
    approx = _spline_on_cells(space, x, degree, bounds)
    return BestApprox(_norm_unchecked(space, x - approx), approx, lower, tol, {
        "solver": "greedy-segmentation", "iterations": passes, "knot_nodes": bounds[1:-1]})


def _spline_lp(space: Space, x: np.ndarray, degree: int, knots: list) -> list:
    """L_p free-knot splines by a dynamic program over grid-node breakpoints,
    one BestApprox per knot count in `knots`: exact in L2, lower 0 (IRLS
    cells) otherwise.

    The cost table and the DP rows do not depend on the largest knot count,
    so one table and one DP to min(max(knots) + 1, npts) cells serve every count.
    Only the DP's choice of cuts reads the table: the chosen cells are refitted
    by `_spline_on_cells`, and the value is re-measured on x - approx.
    """
    g = space.grid
    npts = g.size
    if npts > 2049:
        raise NoSolverError("free-knot spline solver is limited to grids of <= 2049 nodes")
    if space.p < 1.0:
        raise NoSolverError("spline solver does not support p < 1 (non-convex regime)")
    if space.p == 2.0:
        cost = _spline_cost_table_l2(space, x, degree)
    else:
        cost = np.full((npts + 1, npts + 1), math.inf)
        for i in range(npts):
            for j in range(i + 1, npts + 1):
                cost[i, j] = _spline_cost_entry(space, x, degree, i, j)[0]

    top = min(max(knots) + 1, npts)
    dp = np.full((top + 1, npts + 1), math.inf)
    arg = np.zeros((top + 1, npts + 1), dtype=int)
    dp[0, 0] = 0.0
    for k in range(1, top + 1):
        total = dp[k - 1][:, None] + cost
        arg[k] = np.argmin(total, axis=0)
        dp[k] = np.take_along_axis(total, arg[k][None], axis=0)[0]
    fits = []
    for count in knots:
        cuts = [npts]
        for k in range(min(count + 1, top), 0, -1):
            cuts.append(int(arg[k, cuts[-1]]))
        cuts = cuts[::-1]
        approx = _spline_on_cells(space, x, degree, cuts)
        value = _norm_unchecked(space, x - approx)
        fits.append(BestApprox(value, approx, value if space.p == 2.0 else 0.0,
                               info={"solver": "breakpoint-dp", "knot_nodes": cuts[1:-1]}))
    return fits


# -- rank -----------------------------------------------------------------------


def _rank_value(space: Space, sv: np.ndarray, n: int) -> float:
    """Eckart-Young: the error of the best rank-n approximation, from the
    singular values; an HS sum of squares outside [POWER_SUM_FLOOR, inf) is
    formed again on sv scaled by a power of two."""
    if n >= sv.size:
        return 0.0
    if space.norm_kind != "hs":
        return float(sv[n])
    total = np.sum(sv[n:] ** 2)
    if POWER_SUM_FLOOR <= total < math.inf:
        return float(np.sqrt(total))
    # the tail can underflow even on a unit-scaled matrix: rescale the tail itself
    scaled, e = _unit_scaled(sv[n:])
    return float(np.ldexp(np.sqrt(np.sum(scaled**2)), e))


# -- L2 chains ------------------------------------------------------------------


def _chain_l2_values(space: Space, basis: np.ndarray, dims: list, x: np.ndarray) -> list:
    """E(x, A) of a chain in L2 (or ell_2) for each A the span of the first d
    columns of `basis`, d in `dims`, from one QR of [a | b].

    a is the weighted basis up to the largest of `dims` and b the weighted
    element, factored in place (neither Q nor a copy of [a | b] is formed).
    R[i, -1] is b's coordinate on the i-th orthonormal column of a,
    so the residual at dimension d is sqrt(sum_{i >= d} |R[i, -1]|^2), a sum
    of non-negative terms (no cancellation for members).
    """
    top = max(dims)
    ab = np.empty((x.size, top + 1), dtype=np.result_type(basis, x), order="F")
    ab[:, :top] = basis[:, :top]
    ab[:, top] = x
    ab *= np.sqrt(space.weights)[:, None]
    _, r = linalg.qr(ab, overwrite_a=True, mode="raw", check_finite=False)
    roots = np.sqrt(np.cumsum((np.abs(r[:, -1]) ** 2)[::-1])[::-1])
    return [float(roots[d]) if d < roots.size else 0.0 for d in dims]


# -- entry point --------------------------------------------------------------------


def best_approx(space: Space, x: np.ndarray, s, n: int, seed: int = 0,
                incumbent: float = -math.inf) -> BestApprox:
    """E(x, A_n) as the BestApprox of the scheme's `s.solve` of the one level
    n: value, minimizer and proved lower bound, whose status follows the one
    rule; a value that is not finite raises SolverError.

    `incumbent` is the best value a caller searching for the largest E has
    so far.  The solver may stop once an achieved value proves E(x, A_n)
    below it, and return that value with lower 0; an x whose exact fit run
    to its end would beat the incumbent by more than its tol is solved as
    without one.  The solver runs on x / 2^e with max |x / 2^e| in (1/2, 1],
    which is exact as A_n is homogeneous; value, minimizer (where the solver
    gives one), lower (at most value) and tol scale back by 2^e together,
    `incumbent` by 2^-e."""
    x, e = _unit_scaled(space.check(x))
    if n < 0:
        raise SolverError("level n must be >= 0")
    res = s.solve(space, x, [n], seed, _ldexp(incumbent, -e))[0]
    if e or res.lower > res.value:  # rounding can put a closed bracket's lower above value
        minimizer = None if res.minimizer is None else np.ldexp(res.minimizer, e)
        res = BestApprox(_ldexp(res.value, e), minimizer, _ldexp(min(res.lower, res.value), e),
                         _ldexp(res.tol, e), res.info)
    if not math.isfinite(res.value):
        raise SolverError(NOT_FINITE)
    return res


def _ldexp(value: float, e: int) -> float:
    """value * 2^e, infinite where that overflows."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.copysign(math.inf, value)


# -- profiles -----------------------------------------------------------------


@dataclass(frozen=True)
class ProfileEntry:
    n: int
    value: float
    status: str  # "exact" | "upper-bound" | "error"
    note: str = ""


@dataclass
class ErrorProfile:
    entries: list
    scheme_label: str
    element_norm: float

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries if e.status != "error"])

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme_label,
            "element_norm": self.element_norm,
            "entries": [
                {"n": e.n, "value": e.value, "status": e.status, "note": e.note}
                for e in self.entries
            ],
        }

    def dump_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "value", "status"])
            for e in self.entries:
                w.writerow([e.n, repr(e.value), e.status])

    def dump_plot_data(self, path) -> None:
        with open(path, "w") as fh:
            for e in self.entries:
                if e.status != "error":
                    fh.write(f"{e.n} {e.value!r}\n")


def error_profile(space: Space, x: np.ndarray, s, n_max: int, seed: int = 0) -> ErrorProfile:
    """Tabulate E(x, A_n), n = 0..n_max; solver errors become entries, not raises.

    One `s.solve` answers every level, so a kind that factors x does so
    once.  A documented error there has each level solved alone, and the
    error becomes an entry at the levels that raise it.  A value that is not
    finite becomes an error entry.  The solves run on x scaled by a power of
    two, as in `best_approx`.
    """
    x = space.check(x)
    if n_max > s.n_max:
        raise SolverError(f"n_max {n_max} beyond the scheme window {s.n_max}")
    documented = (NoSolverError, SolverError, SpaceError)
    scaled, k = _unit_scaled(x)

    def entries(levels: list) -> Optional[list]:
        """An entry per level from one `s.solve`, or None after a documented
        error at more than one level; one level's error is its entry."""
        try:
            fits = s.solve(space, scaled, levels, seed, -math.inf)
        except documented as exc:
            return None if len(levels) > 1 else [ProfileEntry(levels[0], math.nan, "error", str(exc))]
        values = [_ldexp(res.value, k) for res in fits]
        return [ProfileEntry(n, value, res.status) if math.isfinite(value)
                else ProfileEntry(n, math.nan, "error", NOT_FINITE)
                for n, value, res in zip(levels, values, fits)]

    levels = list(range(n_max + 1))
    solved = entries(levels) if levels else []
    if solved is None:  # each level alone, so an error stays at the levels that raise it
        solved = [entries([n])[0] for n in levels]
    # nesting makes any achieved value at level n feasible at n+1, so an
    # upper-bound entry may be tightened by its predecessors
    best_so_far = math.inf
    out = []
    for e in solved:
        if e.status == "error":
            out.append(e)
            continue
        if e.status == "upper-bound" and e.value > best_so_far:
            e = ProfileEntry(e.n, best_so_far, e.status, "tightened by level monotonicity")
        best_so_far = min(best_so_far, e.value)
        out.append(e)
    # the operator norm is the top singular value, which a rank profile's
    # level 0, ||x - 0||, has already computed bit for bit
    operator = space.norm_kind == "operator" and out and out[0].status != "error"
    return ErrorProfile(out, s.label, out[0].value if operator else norm(space, x))
