"""Best-approximation error computation E(x, A_n) per scheme kind.

Every solver reports an exactness status.  "exact" means exact on the grid
up to the documented solver tolerance: sup-norm fits close a proved bracket
value - lower <= LP_TOL * max(1, ||x||_inf) by discrete exchange, and the
rare LP fallback runs at HiGHS default tolerances (about 1e-7); SVD is exact
to machine precision, closed forms to rounding.  "upper-bound" means the value
is an achieved distance that may exceed the infimum (IRLS, greedy n-term
selection).  A value is always achievable, so it is never below the true
error by more than the solver tolerance.  Sup fits record in their info the
solver ("exchange" or "lp"), its iterations and the lower bound.

The quantizer and the sup-norm free-knot spline share one min-max
segmentation solver (`_min_max_cells`), which also brackets its value: the
quantizer's bracket closes exactly, and a sup spline is "exact" only when its
bracket closes within LP_TOL * max(1, ||x||_inf).  Their info records the
solver, the number of greedy passes ("iterations") and the lower bound.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Optional

import numpy as np
from scipy import linalg
from scipy.optimize import linprog

from .space import POWER_SUM_FLOOR, Space, SpaceError, _norm_unchecked, _unit_scaled, norm

LP_TOL = 1e-10
EXCHANGE_MAX_ITER = 100
EXCHANGE_ROUNDING = 1e-13  # a closed exchange bracket this narrow (relative) is rounding
EXCHANGE_MAX_COND = 1e12  # a reference system with ||A||_inf ||A^-1||_inf above this is singular
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
    value: float
    minimizer: Optional[np.ndarray]
    status: str  # "exact" | "upper-bound"
    info: dict = field(default_factory=dict, compare=False)


# -- linear fits over an explicit column basis --------------------------------


def _weighted_l2_fit(space: Space, cols: np.ndarray, x: np.ndarray):
    """Exact least-squares fit in the space's L2 (or ell_2) inner product."""
    if cols.shape[1] == 0:
        return _norm_unchecked(space, x), np.zeros(0), np.zeros_like(x, dtype=float)
    if space.carrier == "grid":
        w = np.sqrt(space.grid.weights)
        a = cols * w[:, None]
        b = x * w
    else:
        a = cols
        b = x
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    approx = cols @ coef
    return _norm_unchecked(space, x - approx), coef, approx


def _sup_fit_lp(cols: np.ndarray, x: np.ndarray):
    """Chebyshev fit by linear programming; exact to LP tolerance."""
    n, d = cols.shape
    if d == 0:
        return float(np.max(np.abs(x))), np.zeros(0), np.zeros_like(x, dtype=float)
    a_ub = np.block([[cols, -np.ones((n, 1))], [-cols, -np.ones((n, 1))]])
    b_ub = np.concatenate([x, -x])
    c = np.zeros(d + 1)
    c[-1] = 1.0
    bounds = [(None, None)] * d + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise SolverError(f"minimax LP failed: {res.message}")
    coef = res.x[:d]
    approx = cols @ coef
    return float(np.max(np.abs(x - approx))), coef, approx


def _sup_fit(cols: np.ndarray, x: np.ndarray):
    """Chebyshev fit over the columns by discrete exchange, LP when its bracket stays open.

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
    gap of EXCHANGE_ROUNDING * max(1, ||x||_inf).  A singular system, a
    stalled reference or the iteration cap before the bracket closes sends
    the fit to the LP, which runs at HiGHS default tolerances.  So does a
    closed bracket whose system, or the one behind `lower`, is singular to
    working precision (||system||_inf ||inv||_inf > EXCHANGE_MAX_COND; `inv`
    need not raise, e.g. on a repeated column), checked once per fit.

    Returns (value, approx, info); info holds solver, iterations and lower.
    """
    n, d = cols.shape
    scale = max(1.0, float(np.max(np.abs(x))))
    tol = LP_TOL * scale
    lower, it, best, lower_system = 0.0, 0, None, None
    if n <= d:  # no reference of d+1 points: interpolate, bracket [0, value]
        coef, *_ = np.linalg.lstsq(cols, x, rcond=None)
        approx = cols @ coef
        value = float(np.max(np.abs(x - approx)))
        if value <= tol:
            return value, approx, {"solver": "exchange", "iterations": 0, "lower": 0.0, "tol": LP_TOL}
    else:
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
            if np.array_equal(new, ref):  # stalled: not a Haar system on this reference
                break
            ref = new
        if best is not None and _reference_cond(cols, *best[2]) <= EXCHANGE_MAX_COND and (
                lower_system is None or lower_system is best[2]
                or _reference_cond(cols, *lower_system) <= EXCHANGE_MAX_COND):
            return *best[:2], {"solver": "exchange", "iterations": it, "lower": lower, "tol": LP_TOL}
    value, _, approx = _sup_fit_lp(cols, x)
    return value, approx, {"solver": "lp", "iterations": it, "lower": lower, "tol": LP_TOL}


def _reference_cond(cols: np.ndarray, ref: np.ndarray, inv: np.ndarray) -> float:
    """||[cols[ref], s]||_inf ||inv||_inf; the +-1 column s adds 1 to every row sum."""
    return (linalg.lapack.dlange("I", cols[ref]) + 1.0) * linalg.lapack.dlange("I", inv)


def _exchange_reference(ref: np.ndarray, neg: np.ndarray, absr: np.ndarray, peak: int) -> np.ndarray:
    """Move each reference index to the peak of its residual sign run, then
    insert the global peak so that the signs keep alternating.

    `neg` and `absr` are the residual's sign and size, `peak` its argmax.  Two
    reference indices in one run mean their signs were rounding noise (h near
    0, e.g. x vanishing on the reference); the global peak then replaces the
    reference index nearest to it.
    """
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


def _fit_in_span(space: Space, cols: np.ndarray, x: np.ndarray):
    """Dispatch a linear best-approximation by the space's norm."""
    if space.norm_kind == "sup":
        value, approx, info = _sup_fit(cols, x)
        return value, approx, "exact", info
    if space.norm_kind == "lp":
        if space.p == 2.0:
            value, _, approx = _weighted_l2_fit(space, cols, x)
            return value, approx, "exact", {"solver": "projection"}
        if space.p < 1.0:
            raise NoSolverError(
                "best approximation from a linear span with p < 1 is non-convex; "
                "only quantizer, rank, and interleaved-c0 kinds support p < 1"
            )
        quad = space.grid.weights if space.carrier == "grid" else np.ones(x.size)
        value, _, approx, info = _irls_fit(cols, x, quad, space.p)
        info["solver"] = "irls"
        status = "upper-bound"
        return value, approx, status, info
    raise NoSolverError(f"no linear-span solver for norm kind {space.norm_kind!r}")


# -- quantizer ----------------------------------------------------------------


@dataclass(frozen=True)
class QuantizerResult:
    value: float
    minimizer: np.ndarray
    labels: np.ndarray
    info: dict = field(default_factory=dict, compare=False)


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

    The cells are runs of the sorted values, the cost of a cell is its
    half-range, and `_min_max_cells` closes the bracket exactly (tol 0).  The
    value is the largest half-range of the final greedy partition.  The
    minimizer takes each cell's midpoint vl[i] + half, which is rounded, so it
    achieves the value only to within about one ulp of max|x|.  Returns
    (value, minimizer, labels, info).
    """
    if m < 1:
        raise SolverError("value budget m must be >= 1")
    if not np.isfinite(values).all():
        raise SolverError("the quantizer needs finite values")
    order = np.argsort(values, kind="stable")
    v = values[order]
    if v.size == 0:
        return 0.0, np.zeros(0), np.zeros(0, dtype=int), {"solver": "sorted-partition",
                                                          "iterations": 0, "lower": 0.0}
    vl = v.tolist()
    size = len(vl)

    def cell_end(s: int, t: float) -> int:
        base, reach = vl[s], 2.0 * t
        e = bisect.bisect_right(vl, base + reach, s + 1)
        # base + reach is rounded: restore the exact predicate vl[j] - base <= 2t
        while e < size and vl[e] - base <= reach:
            e = bisect.bisect_right(vl, vl[e], e)
        while vl[e - 1] - base > reach:
            e = bisect.bisect_left(vl, vl[e - 1], s + 1, e)
        return e

    def cell_cost(s: int, e: int):
        half = (vl[e - 1] - vl[s]) / 2.0
        return half, half

    lower, bounds, passes = _min_max_cells(size, m, cell_end, cell_cost, 0.0)
    value = 0.0
    levels = np.empty(len(bounds) - 1)
    labels_sorted = np.empty(v.size, dtype=int)
    for g, (i, j) in enumerate(zip(bounds[:-1], bounds[1:])):
        half = (vl[j - 1] - vl[i]) / 2.0
        value = max(value, half)
        levels[g] = vl[i] + half
        labels_sorted[i:j] = g
    minimizer = np.empty_like(values, dtype=float)
    labels = np.empty_like(labels_sorted)
    minimizer[order] = levels[labels_sorted]
    labels[order] = labels_sorted
    return value, minimizer, labels, {"solver": "sorted-partition", "iterations": passes,
                                      "lower": lower}


def quantizer_error(space: Space, x: np.ndarray, m: int) -> QuantizerResult:
    """Best sup-norm approximation by functions taking at most m values."""
    if space.norm_kind != "sup":
        raise NoSolverError("the quantizer solver is defined for sup-norm carriers")
    if m < 1:
        raise SolverError("value budget m must be >= 1")
    x = space.check(x)
    return QuantizerResult(*best_m_value_sup(np.asarray(x, dtype=float), m))


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


def _inner_products(space: Space, cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    if space.carrier == "grid":
        return cols.T @ (space.grid.weights * x)
    return cols.T @ x


def _diag_gram(space: Space, atoms: np.ndarray) -> np.ndarray:
    if space.carrier == "grid":
        return np.einsum("ij,ij,i->j", atoms, atoms, space.grid.weights)
    return np.einsum("ij,ij->j", atoms, atoms)


def _gram(space: Space, atoms: np.ndarray) -> np.ndarray:
    if space.carrier == "grid":
        return atoms.T @ (atoms * space.grid.weights[:, None])
    return atoms.T @ atoms


def _dictionary_is_orthonormal(space: Space, atoms: np.ndarray) -> bool:
    if atoms.shape[1] > 256 or not _is_l2(space):
        return False
    return bool(np.allclose(_gram(space, atoms), np.eye(atoms.shape[1]), atol=1e-10))


def _nterm_l2_candidates(space: Space, atoms: np.ndarray, x: np.ndarray, n: int) -> list:
    """The n-subsets, in `combinations` order, that may hold the least L2 error.

    Each subset S gets the estimate x^T W x - c_S^T G_SS^{-1} c_S of its squared
    error, from c = A^T W x and the Gram matrix G (only its diagonal when
    n = 1), by batched eigensolves of the diagonally normalized blocks
    D^-1/2 G_SS D^-1/2.  Their condition times max(D) / min(D) bounds the
    condition k of G_SS, and the estimate is taken to be off from the direct
    fit's squared error by at most err = max(sqrt(eps), n * N * eps * k) * x^T W x
    (rounding in the N-term Gram sums, the eigensolve and the fit).  A subset
    is kept when its estimate minus err does not exceed the least estimate
    plus its err, and always when its block is singular or k > 1/sqrt(eps).
    The kept subsets are re-measured directly, so the first least value in
    `combinations` order is the same as fitting every subset.
    """
    n_rows, n_atoms = atoms.shape
    eps = np.finfo(float).eps
    c = _inner_products(space, atoms, x)
    xx = _norm_unchecked(space, x) ** 2
    diag = _diag_gram(space, atoms)
    gram = _gram(space, atoms) if n > 1 else None
    count = math.comb(n_atoms, n)
    subsets = np.fromiter(chain.from_iterable(combinations(range(n_atoms), n)), dtype=np.intp,
                          count=count * n).reshape(count, n)
    est = np.full(len(subsets), np.nan)
    err = np.full(len(subsets), np.inf)
    for lo in range(0, len(subsets), SCREEN_CHUNK):
        rows = subsets[lo:lo + SCREEN_CHUNK]
        d = diag[rows]
        scale = 1.0 / np.sqrt(d)
        block = d[:, :, None] if gram is None else gram[rows[:, :, None], rows[:, None, :]]
        try:
            lam, vec = np.linalg.eigh(block * scale[:, :, None] * scale[:, None, :])
        except np.linalg.LinAlgError:
            continue
        proj = np.einsum("kij,ki->kj", vec, c[rows] * scale)
        spread = d.max(axis=1) / d.min(axis=1)
        ok = (lam[:, 0] > 0) & (lam[:, 0] >= math.sqrt(eps) * lam[:, -1] * spread)
        lam, proj, at = lam[ok], proj[ok], lo + np.flatnonzero(ok)
        est[at] = xx - np.sum(np.abs(proj) ** 2 / lam, axis=1)
        err[at] = np.maximum(math.sqrt(eps), n * n_rows * eps * lam[:, -1] / lam[:, 0] * spread[ok]) * xx
    trusted = np.isfinite(err)
    keep = ~trusted
    if trusted.any():
        keep |= est - err <= np.min((est + err)[trusted])
    return [tuple(row) for row in subsets[keep].tolist()]


def _nterm_exhaustive(space: Space, atoms: np.ndarray, x: np.ndarray, n: int):
    """Best n-term fit over every n-subset of the atoms, the first least value in
    `combinations` order.  In L2 a batched screen picks the subsets to fit."""
    if n > 0 and _is_l2(space):
        subsets = _nterm_l2_candidates(space, atoms, x, n)
    else:
        subsets = combinations(range(atoms.shape[1]), n)
    best = (math.inf, None, "exact", {})
    statuses = set()
    for subset in subsets:
        value, approx, status, _ = _fit_in_span(space, atoms[:, list(subset)], x)
        statuses.add(status)
        if value < best[0]:
            best = (value, approx, status, {"subset": list(subset)})
    value, approx, status, info = best
    status = "exact" if statuses == {"exact"} else "upper-bound"
    info.update(solver="exhaustive-subsets")
    return value, approx, status, info


def _nterm_greedy(space: Space, atoms: np.ndarray, x: np.ndarray, levels: list, seed: int) -> dict:
    """Orthogonal matching pursuit with restarts, fitted at each of `levels`.

    A restart's picks do not depend on how far it runs, so level n's picks
    are the first n picks of one run to max(levels).  Returns
    {n: (value, approx, "upper-bound", info)}, the least value over restarts.
    """
    rng = np.random.default_rng(seed)
    n_atoms = atoms.shape[1]
    top = max(levels)
    l2 = _is_l2(space)
    col_scale = np.sqrt(np.maximum(_diag_gram(space, atoms), 1e-300))
    best = {n: (math.inf, None, {}) for n in levels}
    for restart in range(GREEDY_RESTARTS):
        chosen: list = []
        resid = x.astype(float)
        for step in range(top):
            corr = np.abs(_inner_products(space, atoms, resid)) / col_scale
            corr[chosen] = -math.inf
            if restart > 0 and step == 0:
                pick = int(rng.choice(np.argsort(corr)[-min(16, n_atoms):]))
            else:
                pick = int(np.argmax(corr))
            chosen.append(pick)
            cols = atoms[:, chosen]
            fit = _fit_in_span(space, cols, x) if step + 1 in best else None
            if fit is not None and fit[0] < best[step + 1][0]:
                best[step + 1] = (fit[0], fit[1], {"subset": sorted(chosen)})
            if step + 1 < top:
                # in L2 the level's fit is the pursuit's own projection
                approx = fit[1] if fit is not None and l2 else _weighted_l2_fit(space, cols, x)[2]
                resid = x - approx
    return {n: (value, approx, "upper-bound", {**info, "solver": "greedy-omp",
                                               "restarts": GREEDY_RESTARTS})
            for n, (value, approx, info) in best.items()}


def _nterm_levels(space: Space, atoms: np.ndarray, x: np.ndarray, levels: list, seed: int) -> dict:
    """Best n-term fits {n: (value, approx, status, info)} for each of `levels`.

    An orthonormal dictionary takes the top coefficients of one sort; other
    levels search every subset when they number at most
    EXHAUSTIVE_SUBSET_LIMIT, and the rest share one greedy run.  The search
    runs on x scaled by a power of two (`_unit_scaled`), so no Gram sum
    overflows and the fits scale exactly with x.
    """
    x, e = _unit_scaled(x)
    n_atoms = atoms.shape[1]
    out: dict = {}
    greedy = []
    order = None
    if max(levels) > 0 and _dictionary_is_orthonormal(space, atoms):
        b = _inner_products(space, atoms, x)
        order = np.argsort(-np.abs(b))
    for level in levels:
        n = min(level, n_atoms)
        if n <= 0:
            out[level] = (_norm_unchecked(space, x), np.zeros_like(x, dtype=float), "exact",
                          {"solver": "zero-level"})
        elif order is not None:
            top = order[:n]
            approx = atoms[:, top] @ b[top]
            out[level] = (_norm_unchecked(space, x - approx), approx, "exact",
                          {"solver": "orthonormal-top-coefficients",
                           "subset": sorted(int(i) for i in top)})
        elif math.comb(n_atoms, n) <= EXHAUSTIVE_SUBSET_LIMIT:
            out[level] = _nterm_exhaustive(space, atoms, x, n)
        else:
            greedy.append(level)  # level < n_atoms here, since comb(n_atoms, n_atoms) = 1
    if greedy:
        out.update(_nterm_greedy(space, atoms, x, greedy, seed))
    return {n: (float(np.ldexp(value, e)), np.ldexp(approx, e), status, info)
            for n, (value, approx, status, info) in out.items()}


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
    `_spline_cost_entry`: no NaN reaches the table.
    """
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
    return cost


def _spline_cost_entry(space: Space, x: np.ndarray, degree: int, i: int, j: int):
    """p-power error, fit and status of the best degree-<degree> L_p fit on nodes [i, j)."""
    quad = space.grid.weights[i:j]
    approx = _irls_fit(_spline_columns(space.grid.nodes[i:j], degree), x[i:j], quad, space.p)[2]
    status = "exact" if space.p == 2.0 else "upper-bound"
    return float(np.sum(quad * np.abs(x[i:j] - approx) ** space.p)), approx, status


def _spline_columns(t: np.ndarray, degree: int) -> np.ndarray:
    return np.vander((t - t.mean()) / max(float(np.ptp(t)), 1e-300), degree, increasing=True)


def _spline_sup(space: Space, x: np.ndarray, degree: int, pieces: int):
    """Sup-norm free-knot spline by greedy segmentation (`_min_max_cells`).

    A cell's cost is the minimax error of its degree-<degree> fit (`_sup_fit`,
    which brackets it), and it never grows when the cell shrinks, so each
    greedy cell end is found by galloping then bisecting over fits.  The
    status is exact only when the segmentation bracket closed.
    """
    nodes = space.grid.nodes
    npts = nodes.size
    tol = LP_TOL * max(1.0, float(np.max(np.abs(x))))
    costs: dict = {}

    def cell_cost(s: int, e: int):
        if (s, e) not in costs:
            value, _, info = _sup_fit(_spline_columns(nodes[s:e], degree), x[s:e])
            costs[s, e] = (value, info["lower"])
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
    approx = np.empty(npts)
    for i, j in zip(bounds[:-1], bounds[1:]):
        approx[i:j] = _sup_fit(_spline_columns(nodes[i:j], degree), x[i:j])[1]
    value = _norm_unchecked(space, x - approx)
    status = "exact" if value - lower <= tol else "upper-bound"
    return value, approx, status, {"solver": "greedy-segmentation", "iterations": passes,
                                   "lower": lower, "knot_nodes": bounds[1:-1]}


def _spline_lp(space: Space, x: np.ndarray, degree: int, knots: list) -> list:
    """L_p free-knot splines by a dynamic program over grid-node breakpoints,
    one fit (value, approx, status, info) per knot count in `knots`.

    The cost table and the DP rows do not depend on the largest knot count,
    so one table and one DP to max(knots) + 1 pieces serve every count.
    Only the DP's choice of cuts reads the table: each chosen cell is refitted
    by `_spline_cost_entry`, and the value is re-measured on x - approx.  All
    of it runs on x scaled by a power of two (`_unit_scaled`), so the table
    neither overflows nor underflows and the fits scale exactly with x.
    """
    x, e = _unit_scaled(x)
    g = space.grid
    npts = g.size
    if npts > 2049:
        raise NoSolverError("free-knot spline solver is limited to grids of <= 2049 nodes")
    if space.p < 1.0:
        raise NoSolverError("spline solver does not support p < 1 (non-convex regime)")
    if space.p == 2.0:
        cost = _spline_cost_table_l2(space, x, degree)
        status = "exact"
    else:
        cost = np.full((npts + 1, npts + 1), math.inf)
        status = "upper-bound"
        for i in range(npts):
            for j in range(i + 1, npts + 1):
                cost[i, j] = _spline_cost_entry(space, x, degree, i, j)[0]

    top = max(knots) + 1
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
        for k in range(count + 1, 0, -1):
            cuts.append(int(arg[k, cuts[-1]]))
        cuts = cuts[::-1]
        approx = np.empty(npts)
        for i, j in zip(cuts[:-1], cuts[1:]):
            if j <= i:
                continue
            approx[i:j] = _spline_cost_entry(space, x, degree, i, j)[1]
        fits.append((float(np.ldexp(_norm_unchecked(space, x - approx), e)), np.ldexp(approx, e),
                     status, {"solver": "breakpoint-dp", "knot_nodes": cuts[1:-1]}))
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
    scaled, e = _unit_scaled(sv[n:])
    return float(np.ldexp(np.sqrt(np.sum(scaled**2)), e))


def _rank_error(space: Space, x: np.ndarray, n: int):
    u, sv, vt = np.linalg.svd(x)
    n = max(n, 0)
    if n >= sv.size:
        return 0.0, x.copy(), "exact", {"solver": "svd-truncation"}
    trunc = (u[:, :n] * sv[:n]) @ vt[:n] if n > 0 else np.zeros_like(x)
    return _rank_value(space, sv, n), trunc, "exact", {"solver": "svd-truncation"}


# -- L2 chains ------------------------------------------------------------------


def _chain_l2_values(space: Space, basis: np.ndarray, dims: list, x: np.ndarray) -> list:
    """E(x, A_n) of a chain in L2 (or ell_2), A_n the span of the first dims[n]
    columns of `basis`, from one QR of [a | b].

    a is the weighted basis up to the top level's dimension and b the weighted
    element, factored in place (neither Q nor a copy of [a | b] is formed).
    R[i, -1] is b's coordinate on the i-th orthonormal column of a,
    so the residual at dimension d is sqrt(sum_{i >= d} |R[i, -1]|^2), a sum
    of non-negative terms (no cancellation for members).  When the whole sum
    lies outside [POWER_SUM_FLOOR, inf), the sums are formed again on R[:, -1]
    scaled by a power of two.
    """
    top = dims[-1]
    ab = np.empty((x.size, top + 1), dtype=np.result_type(basis, x), order="F")
    ab[:, :top] = basis[:, :top]
    ab[:, top] = x
    if space.carrier == "grid":
        ab *= np.sqrt(space.grid.weights)[:, None]
    _, r = linalg.qr(ab, overwrite_a=True, mode="raw", check_finite=False)
    coords, e = np.abs(r[:, -1]), 0
    tails = np.cumsum((coords**2)[::-1])[::-1]
    if not POWER_SUM_FLOOR <= tails[0] < math.inf:
        coords, e = _unit_scaled(coords)
        tails = np.cumsum((coords**2)[::-1])[::-1]
    roots = np.ldexp(np.sqrt(tails), e)
    return [float(roots[d]) if d < roots.size else 0.0 for d in dims]


# -- entry point --------------------------------------------------------------------


def best_approx(space: Space, x: np.ndarray, s, n: int, seed: int = 0) -> BestApprox:
    """E(x, A_n) with minimizer and exactness status from the solver of the
    scheme `s`; a value that is not finite raises SolverError."""
    x = space.check(x)
    if n < 0:
        raise SolverError("level n must be >= 0")
    res = s.solve(space, x, n, seed)
    if not math.isfinite(res.value):
        raise SolverError(NOT_FINITE)
    return res


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

    A kind with a whole-profile solve (`s.profile`) factors x once, and an
    error there becomes an entry at every level; the other kinds are solved
    level by level.  A value that is not finite becomes an error entry.
    """
    x = space.check(x)
    if n_max > s.n_max:
        raise SolverError(f"n_max {n_max} beyond the scheme window {s.n_max}")
    documented = (NoSolverError, SolverError, SpaceError)
    levels = list(range(n_max + 1))

    def one(n: int) -> ProfileEntry:
        try:
            r = best_approx(space, x, s, n, seed=seed)
            return ProfileEntry(n, r.value, r.status)
        except documented as exc:
            return ProfileEntry(n, math.nan, "error", str(exc))

    element_norm = None
    try:
        whole = s.profile(space, x, n_max, seed) if levels else ([], None)
    except documented as exc:
        entries = [ProfileEntry(n, math.nan, "error", str(exc)) for n in levels]
    else:
        if whole is None:
            entries = [one(n) for n in levels]
        else:
            fits, element_norm = whole
            entries = [ProfileEntry(n, value, status) if math.isfinite(value)
                       else ProfileEntry(n, math.nan, "error", NOT_FINITE)
                       for n, (value, status) in enumerate(fits)]

    # nesting makes any achieved value at level n feasible at n+1, so an
    # upper-bound entry may be tightened by its predecessors
    best_so_far = math.inf
    out = []
    for e in entries:
        if e.status == "error":
            out.append(e)
            continue
        if e.status == "upper-bound" and e.value > best_so_far:
            e = ProfileEntry(e.n, best_so_far, e.status, "tightened by level monotonicity")
        best_so_far = min(best_so_far, e.value)
        out.append(e)
    return ErrorProfile(out, s.label, norm(space, x) if element_norm is None else element_norm)
