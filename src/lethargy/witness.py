"""Constructive witnesses: elements with machine-checkable lower bounds on
their best-approximation errors, plus the greedy slow-decay constructor.

Each witness records claimed bounds and how they are checked: "solver" when
the approximating family is a scheme with an exact solver, "attempts" when
the family is nonlinear (ridge exponentials, deep dictionaries) and the
evidence is an attempted-falsification log of seeded optimization starts,
none of which may beat the claimed bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import solve
from .analyze import farthest
from .scheme import Scheme, build_scheme, gap_candidates, haar_scaling_atoms
from .seq import NullSequence
from .space import Grid, Space, norm
from .solve import best_approx, l1_fit_lp

COORD_WITNESS_TOL = 1e-9
# step cap of the ridge coefficient fit `_complex_l1_fit`.  At n = 3 about a
# third of the fits stop at the cap, where a rounding-level difference has grown
# about 3x per step, so any change to the step's arithmetic moves the recorded
# attempt values (by up to 3e-6 relative).  With a 200-step cap, a Gram-solve
# step and the `lstsq` step agree to 4e-12.
COMPLEX_L1_ITERS = 40


class WitnessError(ValueError):
    """A witness construction cannot proceed on the given discretization."""


@dataclass(frozen=True)
class ClaimedBound:
    level: int
    lower: float
    provenance: str
    upper: Optional[float] = None

    def to_json(self) -> dict:
        d = {"level": self.level, "lower": self.lower, "provenance": self.provenance}
        if self.upper is not None:
            d["upper"] = self.upper
        return d


@dataclass(frozen=True)
class Attempt:
    label: str
    seed: int
    value: float

    def to_json(self) -> dict:
        return {"label": self.label, "seed": self.seed, "value": self.value}


@dataclass(frozen=True)
class Verification:
    level: int
    observed: float
    mode: str  # "solver" | "attempts"
    status: str
    passed: bool
    tol: float
    note: str = ""

    def to_json(self) -> dict:
        return {"level": self.level, "observed": self.observed, "mode": self.mode,
                "status": self.status, "passed": self.passed, "tol": self.tol,
                "note": self.note}


@dataclass
class Witness:
    element: np.ndarray
    space: Space
    claims: list
    element_norm: float
    label: str
    scheme: Optional[Scheme] = None
    family: str = ""
    tol: float = COORD_WITNESS_TOL
    attempts: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    verifications: list = field(default_factory=list)
    seed: int = 0

    @property
    def verified(self) -> bool:
        return bool(self.verifications) and all(v.passed for v in self.verifications)

    def to_json(self) -> dict:
        elem = np.asarray(self.element)
        payload = {
            "label": self.label,
            "element": np.real(elem).astype(float).ravel().tolist(),
            "element_shape": list(elem.shape),
            "element_norm": self.element_norm,
            "space": self.space.to_json(),
            "claims": [c.to_json() for c in self.claims],
            "family": self.family,
            "tol": self.tol,
            "seed": self.seed,
            "meta": _jsonable(self.meta),
            "attempts": [a.to_json() for a in self.attempts],
            "verifications": [v.to_json() for v in self.verifications],
        }
        if np.iscomplexobj(elem):
            payload["element_imag"] = np.imag(elem).astype(float).ravel().tolist()
        if self.scheme is not None:
            payload["scheme"] = self.scheme.to_json()
        return payload


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def verify_witness(w: Witness, seed: int = 0) -> bool:
    """Check every claimed bound with the solver or the attempts log.  The
    solver's bracket decides: a claim's lower side against the proved lower
    bound, its upper side against the achieved value."""
    records = []
    for claim in w.claims:
        scale = max(w.element_norm, 1.0)
        if w.scheme is not None:
            res = best_approx(w.space, w.element, w.scheme, claim.level, seed=seed)
            ok_lower = res.lower >= claim.lower - w.tol * scale
            ok_upper = claim.upper is None or res.value <= claim.upper + w.tol * scale
            records.append(Verification(claim.level, res.value, "solver", res.status,
                                        ok_lower and ok_upper, w.tol))
        else:
            pool = [a.value for a in w.attempts if not math.isnan(a.value)]
            if not pool:
                records.append(Verification(claim.level, math.nan, "attempts", "empty",
                                            False, w.tol, "no attempts recorded"))
                continue
            observed = min(pool)
            passed = observed >= claim.lower - w.tol * scale
            records.append(Verification(claim.level, observed, "attempts",
                                        f"{len(pool)} attempts", passed, w.tol))
    w.verifications = records
    return w.verified


# -- interleaved-c0 exact-equality witness ------------------------------------


def witness_c0(eps: NullSequence, cap: Optional[int] = None) -> Witness:
    """Sequence witness whose odd-level errors reproduce eps exactly."""
    vals = eps.values
    if cap is None:
        cap = max(len(vals), 2)
    if len(vals) > cap:
        raise WitnessError(f"eps window {len(vals)} exceeds the dimension cap {cap}")
    s = build_scheme({"kind": "interleaved-c0", "cap": cap, "n_max": 2 * cap - 2,
                      "label": "interleaved-c0"})
    x = np.zeros(cap)
    x[: len(vals)] = vals
    claims = [ClaimedBound(0, float(vals[0]), "sup of the full tail", float(vals[0]))]
    for n in range(1, len(vals)):  # 2n - 1 < 2 * cap - 2 = n_max
        claims.append(ClaimedBound(2 * n - 1, float(vals[n]),
                                   "coordinate tail sup at an odd level", float(vals[n])))
    return Witness(x, s.space, claims, float(vals[0]), "c0-tail-witness", scheme=s, tol=1e-12)


# -- quantizer ramp witness -----------------------------------------------------


def witness_quantizer(m: int) -> Witness:
    """The odd ramp 2t-1: its m-value quantization error is pinched at 1/m."""
    if m < 1:
        raise WitnessError("value budget m must be >= 1")
    grid = Grid.interval(0.0, 1.0, 2049)
    s = build_scheme({"kind": "quantizer", "m": [m],
                      "space": {"carrier": "grid", "domain": "interval",
                                "a": grid.a, "b": grid.b, "nodes": grid.size, "norm": "sup"},
                      "label": f"quantizer-m{m}"})
    x = 2.0 * (grid.nodes - grid.a) / (grid.b - grid.a) - 1.0
    gap = 2.0 / (grid.size - 1)
    claims = [ClaimedBound(0, 1.0 / m - gap, "sorted-partition pinch on the ramp", 1.0 / m)]
    mid = solve.midpoint_quantizer(x, m, radius=1.0)
    w = Witness(x, s.space, claims, 1.0, f"quantizer-ramp-m{m}", scheme=s, tol=1e-12)
    w.meta = {
        "budget": m,
        "continuum_bound": 1.0 / m,
        "grid_gap": gap,
        "midpoint_error": float(np.max(np.abs(x - mid))),
    }
    return w


# -- alternating-bump witness for sign-change-limited families -------------------


@dataclass(frozen=True)
class HaarLikeFamily:
    """A family whose level-n members have a bounded number of sign changes."""

    name: str  # "poly" | "trig"

    def zero_bound(self, n: int) -> int:
        if self.name == "poly":
            return n  # degree < n: at most n-1 zeros
        if self.name == "trig":
            return 2 * n + 1  # dimension 2n+1: at most 2n zeros
        raise WitnessError(f"unknown family {self.name!r}")

    def columns(self, grid: Grid, n: int) -> np.ndarray:
        from .scheme import _chebyshev_columns, _trig_columns

        if self.name == "poly":
            return _chebyshev_columns(grid, n)  # span of degrees < n
        cols = _trig_columns(grid, n)
        return cols

    def default_grid(self) -> Grid:
        return Grid.interval(0.0, 1.0, 2049) if self.name == "poly" else Grid.torus(4096)


def _bump_profile(grid: Grid, lo: float, hi: float) -> np.ndarray:
    """Continuous trapezoid in [0,1], supported on (lo, hi), plateau 1, with
    ramps of a tenth of the width."""
    t = grid.nodes
    width = hi - lo
    ramp = 0.1 * width
    up = np.clip((t - lo) / ramp, 0.0, 1.0)
    down = np.clip((hi - t) / ramp, 0.0, 1.0)
    prof = np.minimum(up, down)
    prof[(t <= lo) | (t >= hi)] = 0.0
    return prof


def witness_haar_bumps(n: int, p: float, family: str = "poly", n_attempts: int = 100,
                       seed: int = 0) -> Witness:
    """Alternating bumps that no sign-change-limited member can track.

    The claimed bound is on the normalized p-power error: for every family
    member g at level n, int |h-g|^p dmu > 1/5 with mu the normalized grid
    measure, on the family's default grid.  Verified by the exact projection
    (p = 2) / exact L1 LP (p = 1) plus seeded perturbation attempts.
    """
    fam = HaarLikeFamily(family)
    grid = fam.default_grid()
    big_n = fam.zero_bound(n) + 1
    cells = 4 * big_n
    nodes_per_cell = grid.size / cells
    if nodes_per_cell < 8:
        raise WitnessError(
            f"grid too coarse: {grid.size} nodes cannot host {cells} bump cells")
    mu = grid.weights / float(np.sum(grid.weights))
    edges = grid.a + (grid.b - grid.a) * np.arange(cells + 1) / cells
    h = np.zeros(grid.size)
    min_mass = math.inf
    for j in range(cells):
        prof = _bump_profile(grid, edges[j], edges[j + 1])
        mass = float(np.sum(mu * prof))
        min_mass = min(min_mass, mass)
        h += ((-1.0) ** (j + 1)) * prof ** (1.0 / p)
    if min_mass <= 1.0 / (5.0 * big_n):
        raise WitnessError(
            f"grid too coarse: bump mass {min_mass:.3e} short of 1/(5N) = {1.0 / (5 * big_n):.3e}")

    cols = fam.columns(grid, n) if n > 0 else np.zeros((grid.size, 0))
    rng = np.random.default_rng(seed)
    attempts = []

    def record(label, seed_val, g):
        err = float(np.sum(mu * np.abs(h - g) ** p))
        attempts.append(Attempt(label, seed_val, err))
        return err

    record("zero-member", 0, np.zeros(grid.size))
    coef0 = np.zeros(cols.shape[1])
    if cols.shape[1]:
        # exact best approximations in the weighted L2 / L1 senses
        _, coef0, approx2, _ = solve._irls_fit(cols, h, mu, 2.0)
        record("exact-l2-projection", 0, approx2)
        if p == 1.0:
            _, coef1, approx1 = l1_fit_lp(cols, h, mu)
            record("exact-l1-lp", 0, approx1)
            coef0 = coef1
        elif p != 2.0:
            value, coefp, approxp, info = solve._irls_fit(cols, h, grid.weights, p)
            record("irls-local-minimum", 0, approxp)
            coef0 = coefp
        scale = max(float(np.max(np.abs(coef0))), 1.0)
        for k in range(n_attempts):
            coef = coef0 + rng.standard_normal(cols.shape[1]) * scale * 10.0 ** rng.uniform(-3, 0.5)
            record("perturbed-coefficients", k, cols @ coef)
    else:
        for k in range(n_attempts):
            record("zero-family", k, np.zeros(grid.size))

    bound = 1.0 / 5.0
    h_norm = float(np.sum(mu * np.abs(h) ** p) ** (1.0 / p))
    w = Witness(h, Space.lp_grid(grid, p), [ClaimedBound(n, bound, "alternating-bump mass count")],
                h_norm, f"haar-bump-{family}-n{n}-p{p}", scheme=None,
                family=f"{family} members at level {n} (sign-change bound {fam.zero_bound(n) - 1})",
                tol=0.0, attempts=attempts, seed=seed)
    w.meta = {
        "p": p, "cells": cells, "min_bump_mass": min_mass,
        "bound_is_p_power": True,
        "scaled_variant": {"norm_cap": 1.0,
                           "error_bound": (0.2 / max(h_norm, 1e-300) ** p) ** (1.0 / p)},
    }
    return w


# -- bounded-variation witness ----------------------------------------------------


def witness_bv(n: int, n_attempts: int = 100, seed: int = 0) -> Witness:
    """Oscillation profile with unit total variation, on the 2048-node
    torus, that n-term smooth combinations cannot track in the variation norm."""
    psi = max(n, 1)
    big_n = 6 * psi
    grid = Grid.torus(2048)
    dt = grid.spacing
    if big_n**2 * dt**2 / 8.0 > 5e-4:
        raise WitnessError(f"grid under-resolves frequency {big_n}")
    t = grid.nodes
    f = (1.0 - np.cos(big_n * t)) / (4.0 * big_n)
    f_var = grid.total_variation(np.append(f, f[0]))  # periodic closure

    # dictionary atoms vanishing at t = 0, unit variation: the powers 1..6
    atoms = np.column_stack([(t / (2 * math.pi)) ** k for k in range(1, 7)])
    atom_var = np.array([grid.total_variation(atoms[:, j]) for j in range(atoms.shape[1])])
    atoms = atoms / atom_var

    rng = np.random.default_rng(seed)
    attempts = []
    df = np.diff(np.append(f, f[0]))
    datoms = np.diff(np.vstack([atoms, atoms[:1]]), axis=0)

    def record(label, seed_val, coef, cols_idx):
        g_diff = datoms[:, cols_idx] @ coef if len(cols_idx) else np.zeros_like(df)
        attempts.append(Attempt(label, seed_val, float(np.sum(np.abs(df - g_diff)))))

    record("zero-member", 0, np.zeros(0), [])
    from itertools import combinations

    subset_pool = list(combinations(range(atoms.shape[1]), min(n, atoms.shape[1]))) if n else []
    for idx, subset in enumerate(subset_pool):
        cols_idx = list(subset)
        _, coef, _ = l1_fit_lp(datoms[:, cols_idx], df, np.ones(df.size))
        record("exact-variation-lp", idx, coef, cols_idx)
        for k in range(max(1, n_attempts // max(len(subset_pool), 1))):
            pert = coef + rng.standard_normal(len(cols_idx)) * 10.0 ** rng.uniform(-3, 1)
            record("perturbed-coefficients", k, pert, cols_idx)

    w = Witness(f, Space.sup_grid(grid), [ClaimedBound(n, 1.0 / 3.0, "sign-change interval count")],
                f_var, f"bv-oscillation-n{n}", scheme=None,
                family=f"{n}-term combinations of smooth unit-variation atoms",
                tol=0.0, attempts=attempts, seed=seed)
    w.meta = {"frequency": big_n, "variation": f_var, "variation_defect": abs(f_var - 1.0)}
    if abs(f_var - 1.0) > 1e-3:
        raise WitnessError(f"grid variation {f_var!r} misses 1 by more than 1e-3")
    return w


# -- ridge (imaginary exponential) witness ----------------------------------------


def _l1_torus(mu: np.ndarray, values: np.ndarray) -> float:
    return float(np.sum(mu * np.abs(values)))


def _exp_cols(t: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    return np.exp(1j * np.outer(t, freqs))


def _complex_l1_fit(mu: np.ndarray, cols: np.ndarray, x: np.ndarray) -> float:
    """min over coef of sum mu |x - cols coef|, by an L2 seed plus complex
    IRLS (weights mu / max(|resid|, 1e-12), at most COMPLEX_L1_ITERS steps,
    stop at a relative change under 1e-12); returns the smallest value seen.

    One exponential column c has |c| = 1, so a step has the closed form
    coef = c^H (w x) / sum w, and |x - c coef| = |conj(c) x - coef|: one
    real product w @ [Re, Im, 1] of conj(c) x per step.  More columns take
    one `lstsq` on the weighted columns per step.
    """
    if cols.shape[1] == 1:
        y = cols[:, 0].conj() * x
        parts = np.column_stack([y.real, y.imag, np.ones(y.size)])

        def resid(w):
            re, im, total = w @ parts
            return y - complex(re, im) / total
    else:
        def resid(w):
            u = np.sqrt(w)
            return x - cols @ np.linalg.lstsq(cols * u[:, None], x * u, rcond=None)[0]

    a = np.abs(resid(mu))
    best = float(mu @ a)
    for _ in range(COMPLEX_L1_ITERS):
        a = np.abs(resid(mu / np.maximum(a, 1e-12)))  # |resid| feeds the value and the next weights
        val = float(mu @ a)
        if abs(val - best) < 1e-12 * max(best, 1e-300):
            best = min(best, val)
            break
        best = min(best, val)
    return best


def witness_ridge(n: int, n_starts: int = 100, seed: int = 0) -> Witness:
    """Alternating exponential sum that fewer than n exponentials cannot
    approximate below 1/n^2 in L1 of the normalized 1024-node torus measure.

    Each start draws n - 1 frequencies and runs Nelder-Mead over them; the
    objective is the coefficient fit `_complex_l1_fit` (closed-form IRLS
    steps for one exponential, one weighted `lstsq` per step for more).
    Nelder-Mead evaluates the start in its initial simplex and never returns
    a worse vertex, so the logged value already covers it.
    """
    if n < 1:
        raise WitnessError("level n must be >= 1")
    grid = Grid.torus(1024)
    if grid.size < 8 * n * n:
        raise WitnessError(f"grid under-resolves frequency {n * n}")
    t = grid.nodes
    mu = grid.weights / float(np.sum(grid.weights))
    ks = np.arange(1, n * n + 1)
    x = (((-1.0) ** ks)[None, :] * np.exp(1j * np.outer(t, ks))).sum(axis=1) / (n * n)

    coeffs = np.array([float(np.sum(mu * x * np.exp(-1j * k * t)).real) for k in ks])
    bound = 1.0 / (n * n)
    rng = np.random.default_rng(seed)
    attempts = [Attempt("zero-member", 0, _l1_torus(mu, x))]
    m = n - 1
    if m > 0:
        from scipy.optimize import minimize

        def objective(freqs):
            return _complex_l1_fit(mu, _exp_cols(t, np.asarray(freqs)), x)

        for start in range(n_starts):
            freqs0 = rng.uniform(0.25, n * n + 2.0, size=m)
            res = minimize(objective, freqs0, method="Nelder-Mead",
                           options={"maxfev": 80, "xatol": 1e-3, "fatol": 1e-9})
            attempts.append(Attempt("multi-start-frequency-search", start, float(res.fun)))
    space = Space.lp_grid(grid, 1.0)
    w = Witness(x, space, [ClaimedBound(m, bound, "alternating coefficient pinning")],
                _l1_torus(mu, x), f"ridge-exponential-n{n}", scheme=None,
                family=f"sums of {m} exponentials with arbitrary real frequencies",
                tol=0.0, attempts=attempts, seed=seed)
    w.meta = {"coefficients": coeffs, "coefficient_magnitude": bound,
              "normalized_measure": True}
    return w


# -- orthonormal n-term witness ----------------------------------------------------


def witness_orthonormal_nterm(n: int, dim: int) -> Witness:
    """Flat n-vector: dropping any coordinate leaves error exactly 1/n."""
    if dim < n:
        raise WitnessError(f"dimension {dim} below level {n}")
    if n < 1:
        raise WitnessError("level n must be >= 1")
    s = build_scheme({"kind": "nterm", "n_max": max(n, 1),
                      "dictionary": {"family": "orthonormal"},
                      "space": {"carrier": "coords", "dim": dim, "norm": "lp", "p": 2.0},
                      "label": f"orthonormal-nterm-{dim}"})
    y = np.zeros(dim)
    y[:n] = 1.0 / n
    value = 1.0 / n
    claims = [ClaimedBound(n - 1, value, "coordinate drop count", value)]
    w = Witness(y, s.space, claims, float(np.sqrt(n) / n), f"orthonormal-flat-n{n}",
                scheme=s, tol=1e-12)
    w.meta = {"coarse_bound": 1.0 / (2.0 * n)}
    return w


# -- Haar-wavelet witness ------------------------------------------------------------


def _haar_wavelet_vector(cells: int, k: int) -> np.ndarray:
    """Unit Haar wavelet at scale k, position 0, on a 2^J cell grid."""
    out = np.zeros(cells)
    width = cells >> k
    half = width // 2
    out[:half] = 2.0 ** (k / 2.0)
    out[half:width] = -(2.0 ** (k / 2.0))
    return out


def _dyadic_inner(x: np.ndarray, prefix: np.ndarray, cells: int, k: int, j: int) -> float:
    """<x, scaling atom (k, j)> on the unit interval with cell measure."""
    width = cells >> k
    seg = prefix[(j + 1) * width] - prefix[j * width]
    return float(2.0 ** (k / 2.0) * seg / cells)


def _scaling_gram(k1: int, j1: int, k2: int, j2: int) -> float:
    if k1 > k2:
        k1, j1, k2, j2 = k2, j2, k1, j1
    # nested iff the finer support sits inside the coarser one
    if (j2 >> (k2 - k1)) == j1:
        return 2.0 ** (-(k2 - k1) / 2.0)
    return 0.0


def pick_separation_level(n: int, target: float) -> tuple:
    """Smallest scale offset N, up to 24, with coarse-projection leakage <= target:
    by Cauchy-Schwarz, n unit scaling atoms at scales >= N leak at most the
    envelope sqrt(n 2^-N) through the level-0 averaging projection, which an
    aligned same-sign stack attains.  Returns N and the envelope."""
    for big_n in range(1, 25):
        envelope = math.sqrt(n) * 2.0 ** (-big_n / 2.0)
        if envelope <= target:
            return big_n, envelope
    raise WitnessError("no separation level reaches the target leakage")


WAVELET_DICT_ATOMS = 1024


def witness_wavelet(n: int, seed: int = 0, n_attempts: int = 100) -> Witness:
    """Stacked Haar wavelets at well-separated scales; no n scaling atoms
    capture more than a 1 - c^2 share of the energy.  The searched dictionary
    is the first WAVELET_DICT_ATOMS scaling atoms, coarsest first."""
    if n < 0:
        raise WitnessError("level n must be >= 0")
    c = 1.0 / (8.0 * math.sqrt(n + 1))
    big_n, measured = pick_separation_level(max(n, 1), c)
    depth = n * big_n + 1
    if depth > 20:
        raise WitnessError(f"dyadic depth {depth} overflows the 2^20 cell budget")
    cells = 2**depth
    x = np.zeros(cells)
    for s_idx in range(n + 1):
        x += _haar_wavelet_vector(cells, s_idx * big_n)
    x /= math.sqrt(n + 1)

    grid = Grid.interval_cells(0.0, 1.0, cells)
    space = Space.lp_grid(grid, 2.0)
    x_norm = norm(space, x)

    prefix = np.concatenate([[0.0], np.cumsum(x)])
    atom_idx = haar_scaling_atoms(cells, depth, WAVELET_DICT_ATOMS)
    inner = np.array([_dyadic_inner(x, prefix, cells, k, j) for k, j in atom_idx])

    attempts = [Attempt("zero-member", 0, x_norm)]
    if n >= 1:
        best_sq = float(np.max(inner**2))
        attempts.append(Attempt("exhaustive-1-term", 0,
                                math.sqrt(max(x_norm**2 - best_sq, 0.0))))
    if n >= 2:
        order = np.argsort(-np.abs(inner))
        top = order[:64]
        rng = np.random.default_rng(seed)
        pairs = [(int(a), int(b)) for ai, a in enumerate(top) for b in top[ai + 1:]]
        for _ in range(n_attempts):
            a, b = rng.choice(len(atom_idx), size=2, replace=False)
            pairs.append((int(a), int(b)))
        best_pair = 0.0
        for a, b in pairs:
            g12 = _scaling_gram(*atom_idx[a], *atom_idx[b])
            gram = np.array([[1.0, g12], [g12, 1.0]])
            rhs = np.array([inner[a], inner[b]])
            # distinct atoms: |g12| <= 2^-1/2, so det(gram) >= 1/2
            best_pair = max(best_pair, float(rhs @ np.linalg.solve(gram, rhs)))
        attempts.append(Attempt("pair-search", 0,
                                math.sqrt(max(x_norm**2 - best_pair, 0.0))))
        # greedy extension for n > 2 would only lower the captured share bound
    w = Witness(x, space, [ClaimedBound(n, c, "separated-scale leakage bound")],
                x_norm, f"haar-stack-n{n}", scheme=None,
                family=f"{n}-term combinations of dyadic scaling atoms",
                tol=0.0, attempts=attempts, seed=seed)
    w.meta = {"separation": big_n, "measured_leakage": measured, "depth": depth,
              "target": c, "dict_atoms": len(atom_idx)}
    return w


# -- compactly supported translates witness ---------------------------------------


def witness_translates(n: int, m: int, p: float, n_trials: int = 1000,
                       seed: int = 0) -> Witness:
    """Spread unit blocks; n translates of a short atom must miss m - n of them."""
    if m <= n:
        raise WitnessError("block count m must exceed the level n")
    support = 1.0  # mother atom chi_[0, 1]
    a = support + 2.0
    length = a * m + 2.0
    cells = int(round(length * 64))  # 64 cells per unit length
    grid = Grid.interval_cells(0.0, length, cells)
    space = Space.lp_grid(grid, p)
    t = grid.nodes
    f = np.zeros(cells)
    starts = [a * (i + 1) for i in range(m)]
    for s0 in starts:
        f += ((t >= s0) & (t < s0 + 1.0)).astype(float)
    f *= m ** (-1.0 / p)
    bound = ((m - n) / m) ** (1.0 / p)

    rng = np.random.default_rng(seed)
    attempts = [Attempt("zero-member", 0, norm(space, f))]
    min_untouched = m
    for trial in range(n_trials):
        if n == 0:
            attempts.append(Attempt("random-translates", trial, norm(space, f)))
            continue
        shifts = rng.uniform(0.0, length - support, size=n)
        cols = np.column_stack([((t >= c0) & (t < c0 + support)).astype(float)
                                for c0 in shifts])
        untouched = sum(
            1 for s0 in starts
            if all(c0 + support <= s0 or c0 >= s0 + 1.0 for c0 in shifts)
        )
        min_untouched = min(min_untouched, untouched)
        # an L2 coefficient fit is an attempt for every p; translate supports
        # barely overlap, so it is near-optimal there as well
        _, _, g, _ = solve._irls_fit(cols, f, grid.weights, 2.0)
        attempts.append(Attempt("random-translates", trial, norm(space, f - g)))

    w = Witness(f, space, [ClaimedBound(n, bound, "untouched block mass")],
                norm(space, f), f"translate-blocks-m{m}-n{n}", scheme=None,
                family=f"{n} translates of a support-1 atom", tol=1e-9,
                attempts=attempts, seed=seed)
    w.meta = {"blocks": m, "spacing": a, "min_untouched_blocks": min_untouched,
              "untouched_floor": m - n}
    return w


# -- tensor / rank witness ----------------------------------------------------------


def witness_tensor(n: int, norm_kind: str = "hs") -> Witness:
    """Normalized identity matrix: rank-k truncation errors are exact."""
    if n < 1:
        raise WitnessError("dimension n must be >= 1")
    s = build_scheme({"kind": "rank", "n_max": n,
                      "space": {"carrier": "matrix", "side": n, "norm": norm_kind},
                      "label": f"rank-{n}-{norm_kind}"})
    z = np.eye(n) / n
    claims = []
    for k in range(n):
        if norm_kind == "hs":
            exact = math.sqrt(n - k) / n
        else:
            exact = 1.0 / n
        claims.append(ClaimedBound(k, exact, "singular-value tail", exact))
    w = Witness(z, s.space, claims, norm(s.space, z), f"identity-over-n-{norm_kind}",
                scheme=s, tol=1e-12)
    w.meta = {"coarse_bound": 1.0 / (n * n),
              "hs_values": [math.sqrt(n - k) / n for k in range(n)],
              "operator_values": [1.0 / n] * n}
    return w


# -- slow-decay constructor ------------------------------------------------------------


def _ladder_direction(s: Scheme, level: int, rng: np.random.Generator):
    """The `farthest` gap candidate from A_level, searched source by source
    up the window until one is farther than 0.2: (unit element of A_source,
    source, its exact distance), or None; a member of A_level certifies none."""
    best = source = None
    for src in range(level + 1, s.n_max + 1):
        found, _ = farthest(s, level, gap_candidates(s, src - 1, rng, count=2), best=best)
        if found is not best:
            best, source = found, src
        if best is not None and best[0].value > 0.2:
            break
    return None if best is None else (best[1], source, best[0].value)


def construct_slow_decay(s: Scheme, eps: NullSequence, i_max: int, rng_seed: int = 0) -> Witness:
    """Greedy fast-decay construction: an element whose errors stay positive
    but below the prescribed envelope on the verified range.

    The ladder record carries every level, step size, and direction quality;
    verification re-solves every level up to i_max.
    """
    rng = np.random.default_rng(rng_seed)
    ladder: list = []
    halted = ""

    levels = [0]
    deltas = [0.0]
    qualities = [1.0]
    x = s.space.zero()

    j = 0
    while True:
        # positivity at level l needs a later rung whose base is >= l, so the
        # ladder runs until a rung is built on a base at or beyond i_max
        if len(levels) >= 2 and levels[-2] >= i_max:
            break
        j += 1
        prev = levels[-1]
        k_prev = s.K(prev)
        if k_prev is None or k_prev > s.n_max:
            halted = f"gap map leaves the window at level {prev}"
            break
        found = _ladder_direction(s, k_prev, rng)
        if found is None:
            halted = f"no certified direction for level {k_prev}"
            break
        y, source, quality = found
        new_level = s.K(source)
        if new_level is None or new_level <= prev:
            halted = f"ladder cannot advance past level {prev}"
            break
        if new_level >= len(eps):
            halted = f"eps window ends before level {new_level}"
            break
        delta = eps[new_level] / 2.0
        if j >= 2:
            delta = min(delta, deltas[-1] * qualities[-2] / 4.0)
        if delta <= 0.0:
            halted = f"step size vanished at rung {j}"
            break
        x = x + delta * y
        ladder.append({"j": j, "level": new_level, "delta": delta,
                       "direction_quality": quality, "source_level": source})
        levels.append(new_level)
        deltas.append(delta)
        qualities.append(quality)

    claims = []
    for ell in range(min(i_max, (levels[-1] - 1) if len(levels) > 1 else -1) + 1):
        later = [step for step, lvl in enumerate(levels[:-1]) if lvl >= ell]
        lower = 0.0
        if later:
            jj = later[0] + 1  # first rung whose base level is >= ell
            if jj <= len(ladder):
                lower = deltas[jj] * qualities[jj] / 3.0
        claims.append(ClaimedBound(ell, lower, "ladder remainder bound", eps[ell]))

    w = Witness(x, s.space, claims, norm(s.space, x), "slow-decay-ladder",
                scheme=s, tol=1e-9, seed=rng_seed)
    w.meta = {"ladder": ladder,
              "halted": halted, "target_range": i_max,
              "positivity_required": True}
    return w


def verify_slow_decay(w: Witness, seed: int = 0) -> bool:
    """Solver check of 0 < E(x, A_i) <= eps_i over the claimed range:
    positivity on the proved lower bound, the envelope on the achieved value."""
    records = []
    for claim in w.claims:
        res = best_approx(w.space, w.element, w.scheme, claim.level, seed=seed)
        positive = res.lower > max(claim.lower - w.tol, 1e-13)
        below = res.value <= claim.upper + w.tol
        records.append(Verification(claim.level, res.value, "solver", res.status,
                                    positive and below, w.tol, f"envelope {claim.upper!r}"))
    w.verifications = records
    return w.verified

