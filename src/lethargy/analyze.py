"""Scheme diagnostics: density certificates, Shapiro/weak-gap verdicts,
submultiplicativity checks, and Jackson/Bernstein/Dolzhenko audits.

Certificates are honest about solver status: a unit element with an exactly
solved distance is a rigorous density lower bound; probe maxima are only
empirical estimates and are flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .scheme import (Scheme, _pick, declared_keys, density_candidates, gap_candidates,
                     probe_elements, sample_element)
from .solve import NoSolverError, best_approx
from .space import Grid, Space, norm


class AnalyzeError(ValueError):
    pass


REPORT_SCHEMA = "1"


# -- density certificates ------------------------------------------------------


@dataclass(frozen=True)
class DensityCertificate:
    level: int
    bound: float
    element: Optional[np.ndarray]
    solver_value: float
    direction: str  # "lower" | "upper"
    status: str     # "exact" | "empirical" | "certified"
    note: str = ""

    def to_json(self, with_element: bool = False) -> dict:
        d = {"level": self.level, "bound": self.bound, "solver_value": self.solver_value,
             "direction": self.direction, "status": self.status, "note": self.note}
        if with_element and self.element is not None:
            d["element"] = [float(v) for v in np.asarray(self.element).ravel()]
        return d


def farthest(s: Scheme, n: int, candidates, seed: int = 0, best=None):
    """The candidate provably farthest from A_n: the one search behind density
    certificates, the gap estimate and the slow-decay ladder.

    Each candidate is solved with the best value so far as its incumbent.  A
    candidate counts only when its solve is exact with a positive lower
    bound, and it replaces `best` only when farther by more than its solve's
    tol, so that rounding decides no tie.  So a solve stopped below the
    incumbent (lower 0) loses, as its full solve would have, and one that
    would win is solved as without an incumbent.  Returns `best`, a
    (BestApprox, candidate) pair or None, and every solved pair in order."""
    solved = []
    for cand in candidates:
        res = best_approx(s.space, cand, s, n, seed=seed,
                          incumbent=-math.inf if best is None else best[0].value)
        solved.append((res, cand))
        if res.status == "exact" and res.lower > 0.0 and (
                best is None or res.value > best[0].value + res.tol):
            best = (res, cand)
    return best, solved


def density_lower_bound(s: Scheme, n: int, rng_seed: int = 0) -> DensityCertificate:
    """Best found unit element far from A_n, with the lower end of its
    solve's bracket as the bound.

    The pool is `density_candidates`: the kind's extremal candidates and six
    Gaussian draws, all of unit norm; a level outside the window is refused.
    The certificate is the `farthest` candidate; with none it is the first.
    It is exact when rigorous, or when every solve was exact (each candidate
    is then a member of A_n, and 0 the proved bound); else it is empirical,
    and its note counts the candidate solves that are upper-bound only.
    """
    rng = np.random.default_rng(rng_seed)
    try:
        best, solved = farthest(s, n, density_candidates(s, n, rng), seed=rng_seed)
    except NoSolverError:
        raise AnalyzeError(f"no candidate could be solved at level {n}") from None
    upper = sum(res.status != "exact" for res, _ in solved)
    res, element = best or solved[0]
    status = "exact" if best or not upper else "empirical"
    note = "" if status == "exact" else (f"no solve proved a positive distance; {upper} of "
                                         f"{len(solved)} candidate solves are upper-bound only")
    return DensityCertificate(n, res.lower, element, res.value, "lower", status, note)


def density_upper_estimate(s: Scheme, n: int, rng_seed: int = 0) -> DensityCertificate:
    """Probe-sweep max of E/||.||; certified where the kind proves an envelope
    (the quantizer's midpoint quantization)."""
    envelope = s.envelope([n])
    if envelope is not None:
        return DensityCertificate(n, envelope[0], None, envelope[0], "upper", "certified",
                                  "midpoint quantization of the value range")
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for x in probe_elements(s, rng, count=12):
        res = best_approx(s.space, x, s, n, seed=rng_seed)
        worst = max(worst, res.value)
    return DensityCertificate(n, worst, None, worst, "upper", "empirical",
                              "probe max; not a certified bound")


def monotone_envelope(bounds: list) -> list:
    """Non-increasing post-processing of per-level density lower bounds.

    A certificate at level n is valid at every smaller level, so each entry
    may be raised to the best bound seen at or beyond it.
    """
    arr = np.asarray(bounds, dtype=float)
    return list(np.maximum.accumulate(arr[::-1])[::-1])


# -- gap and verdicts -----------------------------------------------------------


def brudnyi_gap(s: Scheme, rng_seed: int = 0) -> dict:
    """min over n < n_max of the best found E(a, A_n) over unit a in A_{n+1}:
    per level the `farthest` of the kind's gap candidates with four draws (the
    next direction alone on a chain whose level adds one column; it, or the
    extremal element, and four draws on a trig chain, an n-term scheme and
    interleaved-c0; four draws on the other kinds), or 0.0 where none counts."""
    rng = np.random.default_rng(rng_seed)
    per = []
    for n in range(s.n_max):
        best, _ = farthest(s, n, gap_candidates(s, n, rng, count=4), seed=rng_seed)
        per.append(best[0].value if best else 0.0)
    gamma = min(per) if per else 0.0
    return {"gamma": gamma, "per_level": per, "levels": list(range(s.n_max))}


@dataclass
class ShapiroVerdict:
    verdict: str  # "consistent-with-Shapiro" | "Shapiro-fails" | "inconclusive"
    constant: float
    certificates: list
    gamma: float
    envelope: Optional[dict] = None
    probes_checked: int = 0

    def to_json(self) -> dict:
        d = {"schema": REPORT_SCHEMA, "verdict": self.verdict,
             "weak_gap_constant": self.constant,
             "gamma": self.gamma, "probes_checked": self.probes_checked,
             "certificates": [c.to_json() for c in self.certificates]}
        if self.envelope is not None:
            d["envelope"] = self.envelope
        return d


WEAK_GAP_THRESHOLD = 0.9


def shapiro_check(s: Scheme, probe_budget: int = 16, rng_seed: int = 0,
                  levels: Optional[list] = None) -> ShapiroVerdict:
    """Dichotomy verdict from density certificates and proof-backed envelopes.

    consistent-with-Shapiro: every probed level has a rigorous unit-sphere
    certificate of at least WEAK_GAP_THRESHOLD (discretization forbids exactly 1).
    Shapiro-fails: the kind carries a proof-backed decaying envelope (the
    quantizer's reciprocal value budget) and every probe obeys it.
    """
    if levels is None:
        levels = list(range(s.n_max + 1))
    rng = np.random.default_rng(rng_seed)
    certs = [density_lower_bound(s, n, rng_seed=rng_seed + 17 * n) for n in levels]
    constant = min((c.bound for c in certs), default=0.0)
    gamma = brudnyi_gap(s, rng_seed=rng_seed)["gamma"]

    if all(c.status == "exact" for c in certs) and constant >= WEAK_GAP_THRESHOLD:
        return ShapiroVerdict("consistent-with-Shapiro", constant, certs, gamma,
                              probes_checked=0)

    env = s.envelope(levels)
    if env is not None:
        checked = 0
        ok = True
        for x in probe_elements(s, rng, count=probe_budget):
            nx = norm(s.space, x)
            for n, cap in zip(levels, env):
                value = best_approx(s.space, x, s, n).value
                checked += 1
                if value > cap * nx + 1e-9:
                    ok = False
        if ok:
            envelope = {"levels": levels, "values": env,
                        "description": "reciprocal value budget"}
            return ShapiroVerdict("Shapiro-fails", constant, certs, gamma,
                                  envelope=envelope, probes_checked=checked)
    return ShapiroVerdict("inconclusive", constant, certs, gamma)


# -- submultiplicativity -----------------------------------------------------------


PROFILE_CHECK_TOL = 1e-3


def density_profile_check(s: Scheme, rng_seed: int = 0) -> dict:
    """Flag (m, n) pairs of levels 0..n_max whose certified lower bound at the
    paired level exceeds the product of upper estimates; entries flag
    estimate inconsistencies, never a refutation.

    Empirical upper estimates are merged with the certified lower bounds
    (the sup is at least any certified value), and the tolerance absorbs
    grid discretization.
    """
    lowers = {}
    uppers = {}
    upper_status = {}
    for n in range(s.n_max + 1):
        lowers[n] = density_lower_bound(s, n, rng_seed=rng_seed + n)
        est = density_upper_estimate(s, n, rng_seed=rng_seed + n)
        if est.status == "certified":
            uppers[n] = est.bound
        else:
            uppers[n] = max(est.bound, lowers[n].bound)
        upper_status[n] = est.status
    flagged = []
    checked = 0
    for m in range(s.n_max + 1):
        for n in range(m, s.n_max + 1):
            ell = s.pairing(m, n)
            if ell is None or ell > s.n_max:
                continue
            checked += 1
            lhs = lowers[ell].bound
            rhs = uppers[m] * uppers[n]
            if lhs > rhs + PROFILE_CHECK_TOL:
                flagged.append({"m": m, "n": n, "paired_level": ell,
                                "certified_lower": lhs, "upper_product": rhs,
                                "upper_status": [upper_status[m], upper_status[n]]})
    return {"scheme": s.label, "checked_pairs": checked, "flagged": flagged,
            "tolerance": PROFILE_CHECK_TOL, "passed": not flagged}


# -- Jackson / Bernstein audits ------------------------------------------------------


def _spectral_derivative(grid: Grid, x: np.ndarray) -> np.ndarray:
    # exact for trigonometric polynomials sampled on the uniform torus grid
    freqs = np.fft.fftfreq(grid.size, d=(grid.b - grid.a) / (2 * math.pi * grid.size))
    return np.real(np.fft.ifft(1j * freqs * np.fft.fft(x)))


def _slope(space: Space, x: np.ndarray) -> float:
    return float(np.max(np.abs(np.diff(x) / np.diff(space.grid.nodes))))


# seminorm kind -> its value at x; keyword-only parameters are the kind's keys
SEMINORMS = {
    "lipschitz": _slope,
    "bv": lambda space, x: float(np.sum(np.abs(np.diff(
        np.append(x, x[0]) if space.grid.domain == "torus" else x)))),
    "deriv-sup": lambda space, x: _slope(space, x) if space.grid.domain != "torus" else float(
        np.max(np.abs(_spectral_derivative(space.grid, x)))),
    "coord-weighted": lambda space, x, *, weights: float(np.max(
        np.asarray(weights, dtype=float) * np.abs(x))),
    "same-norm": norm,
}
SEMINORM_KEYS = {kind: declared_keys(value) for kind, value in SEMINORMS.items()}


def seminorm(space: Space, desc: dict, x: np.ndarray) -> float:
    kind, keys = _pick("seminorm", SEMINORM_KEYS, desc, "kind", error=AnalyzeError)
    if kind in ("lipschitz", "bv", "deriv-sup") and space.grid is None:
        raise AnalyzeError(f"{kind} seminorm needs a grid space, not {space.carrier}")
    if "weights" in keys and len(keys["weights"]) != math.prod(space.shape):
        raise AnalyzeError(f"{kind} seminorm: {len(keys['weights'])} weights for a space of "
                           f"dimension {math.prod(space.shape)}")
    return SEMINORMS[kind](space, x, **keys)


def jackson_audit(s: Scheme, y_desc: dict, samples: Optional[list] = None,
                  n_list: Optional[list] = None, rng_seed: int = 0) -> dict:
    """Descriptive fit of the largest direct-estimate constants c_n consistent
    with the sample set; c_n -> infinity on the window signals a genuine
    smoothness gain."""
    rng = np.random.default_rng(rng_seed)
    if samples is None:
        samples = probe_elements(s, rng, count=8)
    if n_list is None:
        n_list = list(range(s.n_max + 1))
    fitted = []
    for n in n_list:
        best = math.inf
        for x in samples:
            e = best_approx(s.space, x, s, n, seed=rng_seed).value
            ynorm = seminorm(s.space, y_desc, x)
            if e <= 1e-14 * max(1.0, ynorm):
                continue  # ratio is infinite; no constraint on c_n
            best = min(best, ynorm / e)
        fitted.append(best)
    finite = [c for c in fitted if math.isfinite(c)]
    growing = len(finite) >= 2 and finite[-1] > 4.0 * finite[0]
    return {"scheme": s.label, "seminorm": y_desc, "levels": n_list,
            "c_n": fitted, "samples": len(samples), "growing": growing,
            "rng_seed": rng_seed}


def bernstein_audit(s: Scheme, y_desc: dict, budget: int = 200, rng_seed: int = 0) -> dict:
    """Fitted inverse-estimate constants b_n = max ||a||_Y / ||a||_X over
    sampled members of A_n, n = 1..n_max; degenerate samples are skipped and counted."""
    rng = np.random.default_rng(rng_seed)
    n_list = list(range(1, s.n_max + 1))
    fitted = []
    skipped = 0
    for n in n_list:
        worst = 0.0
        for _ in range(budget):
            a = sample_element(s, n, rng)
            ax = norm(s.space, a)
            if ax < 1e-12:
                skipped += 1
                continue
            worst = max(worst, seminorm(s.space, y_desc, a) / ax)
        fitted.append(worst)
    return {"scheme": s.label, "seminorm": y_desc, "levels": n_list, "b_n": fitted,
            "budget": budget, "skipped_degenerate": skipped, "rng_seed": rng_seed}


def sample_rational(rng: np.random.Generator, grid: Grid, max_degree: int):
    """Random p/q with q bounded away from zero on the grid."""
    deg_p = int(rng.integers(0, max_degree + 1))
    target_q = int(rng.integers(0, max_degree + 1))
    p = rng.standard_normal(deg_p + 1)
    q = np.array([1.0])
    margin = 0.25
    while len(q) - 1 < target_q:
        room = target_q - (len(q) - 1)
        if room >= 2 and rng.random() < 0.5:
            re = rng.uniform(grid.a - 1.0, grid.b + 1.0)
            im = rng.uniform(margin, 2.0)
            q = np.polymul(q, [1.0, -2.0 * re, re * re + im * im])
        else:
            root = rng.uniform(grid.a - 3.0, grid.a - margin) if rng.random() < 0.5 \
                else rng.uniform(grid.b + margin, grid.b + 3.0)
            q = np.polymul(q, [1.0, -root])
    f = np.polyval(p, grid.nodes) / np.polyval(q, grid.nodes)
    return f, max(deg_p, len(q) - 1)


DOLZHENKO_TOL = 1e-3  # the discretization allowance of the grid variation


def dolzhenko_variation_audit(n_samples: int = 1000, max_degree: int = 5,
                              rng_seed: int = 0) -> dict:
    """Grid total variation of sampled rational functions against twice the
    degree times their sup, with a discretization allowance (DOLZHENKO_TOL)."""
    grid = Grid.interval(0.0, 1.0, 2049)
    rng = np.random.default_rng(rng_seed)
    violations = []
    worst_margin = -math.inf
    for i in range(n_samples):
        f, deg = sample_rational(rng, grid, max_degree)
        deg = max(deg, 1)
        sup = float(np.max(np.abs(f)))
        if sup < 1e-12:
            continue
        f = f / sup
        tv = grid.total_variation(f)
        margin = tv - 2.0 * deg
        worst_margin = max(worst_margin, margin)
        if margin > DOLZHENKO_TOL:
            violations.append({"sample": i, "degree": deg, "variation": tv})
    return {"samples": n_samples, "max_degree": max_degree, "tolerance": DOLZHENKO_TOL,
            "violations": violations, "worst_margin": worst_margin,
            "rng_seed": rng_seed, "passed": not violations}

