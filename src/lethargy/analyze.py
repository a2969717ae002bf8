"""Scheme diagnostics: density certificates, Shapiro/weak-gap verdicts,
Jackson/Bernstein audits, and approximation-space norms.

Certificates are honest about solver status: a unit element with an exactly
solved distance is a rigorous density lower bound; probe maxima are only
empirical estimates and are flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .scheme import Scheme, density_candidates, gap_candidates, probe_elements, sample_element
from .seq import NullSequence, TailModel
from .solve import ErrorProfile, NoSolverError, best_approx
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


def density_lower_bound(s: Scheme, n: int, candidates: Optional[Iterable] = None,
                        rng_seed: int = 0, extra_random: int = 6) -> DensityCertificate:
    """Best found unit element far from A_n; rigorous iff the solver is exact.

    An explicit candidate pool is used as given; by default, kind-aware
    extremal candidates plus `extra_random` normalized samples are searched.
    """
    rng = np.random.default_rng(rng_seed)
    if candidates is not None:
        pool = list(candidates)
    else:
        pool = density_candidates(s, min(n, s.n_max), rng, count=extra_random)
    if not pool:
        raise AnalyzeError("empty candidate pool")
    best = None
    for cand in pool:
        nx = norm(s.space, cand)
        if nx < 1e-12:
            continue
        cand = cand / nx
        try:
            res = best_approx(s.space, cand, s, n, seed=rng_seed)
        except NoSolverError:
            continue
        rigorous = res.status == "exact"
        score = res.value if rigorous else -math.inf
        if best is None or score > best[0]:
            best = (score, cand, res)
    if best is None or best[2] is None:
        raise AnalyzeError(f"no candidate could be solved at level {n}")
    _, element, res = best
    status = "exact" if res.status == "exact" else "empirical"
    bound = res.value if status == "exact" else 0.0
    return DensityCertificate(n, bound, element, res.value, "lower", status,
                              "" if status == "exact" else "solver is upper-bound only")


def density_upper_estimate(s: Scheme, n: int, rng_seed: int = 0,
                           probes: int = 12) -> DensityCertificate:
    """Probe-sweep max of E/||.||; certified where the kind proves an envelope
    (the quantizer's midpoint quantization)."""
    envelope = s.envelope([n])
    if envelope is not None:
        return DensityCertificate(n, envelope[0], None, envelope[0], "upper", "certified",
                                  "midpoint quantization of the value range")
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for x in probe_elements(s, rng, count=probes):
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


def brudnyi_gap(s: Scheme, n_max: Optional[int] = None, rng_seed: int = 0,
                per_level: int = 4) -> dict:
    """min over n of the best found E(a, A_n) over unit a in A_{n+1}."""
    if n_max is None:
        n_max = s.n_max - 1
    n_max = min(n_max, s.n_max - 1)
    rng = np.random.default_rng(rng_seed)
    per = []
    for n in range(n_max + 1):
        best = 0.0
        for cand in gap_candidates(s, n, rng, count=per_level):
            res = best_approx(s.space, cand, s, n, seed=rng_seed)
            if res.status == "exact":
                best = max(best, res.value)
        per.append(best)
    gamma = min(per) if per else 0.0
    return {"gamma": gamma, "per_level": per, "levels": list(range(n_max + 1))}


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
                  levels: Optional[list] = None,
                  threshold: float = WEAK_GAP_THRESHOLD) -> ShapiroVerdict:
    """Dichotomy verdict from density certificates and proof-backed envelopes.

    consistent-with-Shapiro: every probed level has a rigorous unit-sphere
    certificate of at least `threshold` (discretization forbids exactly 1).
    Shapiro-fails: the kind carries a proof-backed decaying envelope (the
    quantizer's reciprocal value budget) and every probe obeys it.
    """
    if levels is None:
        levels = list(range(s.n_max + 1))
    rng = np.random.default_rng(rng_seed)
    certs = [density_lower_bound(s, n, rng_seed=rng_seed + 17 * n) for n in levels]
    constant = min((c.bound for c in certs), default=0.0)
    gamma = brudnyi_gap(s, rng_seed=rng_seed)["gamma"]

    if all(c.status == "exact" for c in certs) and constant >= threshold:
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


def property_P_check(s: Scheme, a: float, b: float, n_list: Iterable[int],
                     rng_seed: int = 0) -> dict:
    """Per level: is there a unit certificate with E >= 1/(a n^b)?"""
    if a <= 0 or b <= 0:
        raise AnalyzeError("constants a, b must be positive")
    entries = []
    for n in n_list:
        if n <= 0:
            continue
        target = 1.0 / (a * n**b)
        cert = density_lower_bound(s, n, rng_seed=rng_seed + n)
        entries.append({"n": n, "target": target, "bound": cert.bound,
                        "status": cert.status,
                        "passed": cert.status == "exact" and cert.bound >= target})
    return {"a": a, "b": b, "entries": entries,
            "passed": all(e["passed"] for e in entries)}


# -- submultiplicativity -----------------------------------------------------------


def density_profile_check(s: Scheme, n_max: Optional[int] = None,
                          pairing: Optional[Callable] = None,
                          rng_seed: int = 0, tol: float = 1e-3) -> dict:
    """Flag (m, n) pairs whose certified lower bound at the paired level
    exceeds the product of upper estimates; entries flag estimate
    inconsistencies, never a refutation.

    Empirical upper estimates are merged with the certified lower bounds
    (the sup is at least any certified value), and the tolerance absorbs
    grid discretization.
    """
    if n_max is None:
        n_max = s.n_max
    n_max = min(n_max, s.n_max)
    pair = pairing or s.pairing
    lowers = {}
    uppers = {}
    upper_status = {}
    for n in range(n_max + 1):
        lowers[n] = density_lower_bound(s, n, rng_seed=rng_seed + n)
        est = density_upper_estimate(s, n, rng_seed=rng_seed + n)
        if est.status == "certified":
            uppers[n] = est.bound
        else:
            uppers[n] = max(est.bound, lowers[n].bound)
        upper_status[n] = est.status
    flagged = []
    checked = 0
    for m in range(n_max + 1):
        for n in range(m, n_max + 1):
            ell = pair(m, n)
            if ell is None or ell > n_max:
                continue
            checked += 1
            lhs = lowers[ell].bound
            rhs = uppers[m] * uppers[n]
            if lhs > rhs + tol:
                flagged.append({"m": m, "n": n, "paired_level": ell,
                                "certified_lower": lhs, "upper_product": rhs,
                                "upper_status": [upper_status[m], upper_status[n]]})
    decay = []
    if s.power_decay:
        for m in range(1, n_max + 1):
            um = uppers[m]
            if um < 1.0 - tol:
                k = 2
                while k * m <= n_max:
                    decay.append({"m": m, "k": k,
                                  "certified_lower": lowers[k * m].bound,
                                  "power_bound": um**k,
                                  "consistent": lowers[k * m].bound <= um**k + tol})
                    k += 1
    return {"scheme": s.label, "checked_pairs": checked, "flagged": flagged,
            "exponential_decay": decay, "tolerance": tol,
            "upper_status": upper_status,
            "passed": not flagged}


# -- Jackson / Bernstein audits ------------------------------------------------------


def _spectral_derivative(grid: Grid, x: np.ndarray) -> np.ndarray:
    # exact for trigonometric polynomials sampled on the uniform torus grid
    freqs = np.fft.fftfreq(grid.size, d=(grid.b - grid.a) / (2 * math.pi * grid.size))
    return np.real(np.fft.ifft(1j * freqs * np.fft.fft(x)))


def seminorm(space: Space, desc: dict, x: np.ndarray) -> float:
    kind = desc["kind"]
    if kind == "lipschitz":
        g = space.grid
        return float(np.max(np.abs(np.diff(x) / np.diff(g.nodes))))
    if kind == "bv":
        g = space.grid
        closed = np.append(x, x[0]) if g.domain == "torus" else x
        return float(np.sum(np.abs(np.diff(closed))))
    if kind == "deriv-sup":
        g = space.grid
        if g.domain == "torus":
            return float(np.max(np.abs(_spectral_derivative(g, x))))
        return float(np.max(np.abs(np.diff(x) / np.diff(g.nodes))))
    if kind == "coord-weighted":
        wts = np.asarray(desc["weights"], dtype=float)
        return float(np.max(wts * np.abs(x)))
    if kind == "same-norm":
        return norm(space, x)
    raise AnalyzeError(f"unsupported seminorm {kind!r}")


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


def bernstein_audit(s: Scheme, y_desc: dict, n_list: Optional[list] = None,
                    budget: int = 200, rng_seed: int = 0) -> dict:
    """Fitted inverse-estimate constants b_n = max ||a||_Y / ||a||_X over
    sampled members of A_n; degenerate samples are skipped and counted."""
    rng = np.random.default_rng(rng_seed)
    if n_list is None:
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


def dolzhenko_variation_audit(n_samples: int = 1000, max_degree: int = 5,
                              grid: Optional[Grid] = None, rng_seed: int = 0,
                              tol: float = 1e-3) -> dict:
    """Grid total variation of sampled rational functions against twice the
    degree times their sup, with a discretization allowance."""
    if grid is None:
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
        if margin > tol:
            violations.append({"sample": i, "degree": deg, "variation": tv})
    return {"samples": n_samples, "max_degree": max_degree, "tolerance": tol,
            "violations": violations, "worst_margin": worst_margin,
            "rng_seed": rng_seed, "passed": not violations}


# -- approximation-space norms ---------------------------------------------------------


@dataclass(frozen=True)
class AqrValue:
    value: float
    tail_contribution: float
    flagged_divergent: bool

    def to_json(self) -> dict:
        return {"value": self.value, "tail_contribution": self.tail_contribution,
                "flagged_divergent": self.flagged_divergent}


def _profile_values(profile) -> np.ndarray:
    if isinstance(profile, ErrorProfile):
        bad = [e for e in profile.entries if e.status == "error"]
        if bad:
            raise AnalyzeError(f"profile has {len(bad)} error entries")
        return np.array([e.value for e in profile.entries], dtype=float)
    if isinstance(profile, NullSequence):
        return profile.values
    return np.asarray(profile, dtype=float)


def aqr_norm(profile, x_norm: float, r: float, q: float,
             tail: TailModel = TailModel()) -> AqrValue:
    """Weighted ell_q norm of (n+1)^(r - 1/q) E(x, A_n).

    The window part is exact; a geometric tail is summed term by term until
    the increments fall below machine relevance (the polynomial weight is
    eventually dominated).  The divergence flag is a dyadic-block growth
    heuristic and is advisory only.
    """
    if q <= 0:
        raise AnalyzeError("q must be positive")
    if r <= 0:
        raise AnalyzeError("r must be positive")
    values = _profile_values(profile)
    n_win = values.size
    idx = np.arange(n_win, dtype=float)
    if math.isinf(q):
        weights = (idx + 1.0) ** r
        window = float(np.max(weights * values)) if n_win else 0.0
        tail_val = 0.0
        if tail.kind == "geometric" and n_win:
            v = values[-1]
            n = n_win
            while v > 0:
                v *= tail.ratio
                term = (n + 1.0) ** r * v
                tail_val = max(tail_val, term)
                # weights grow polynomially, the tail decays geometrically
                if term < 1e-18 * max(window, tail_val, 1e-300):
                    break
                n += 1
        return AqrValue(max(window, tail_val), tail_val, False)

    weights = (idx + 1.0) ** (r - 1.0 / q)
    terms = (weights * values) ** q
    total = float(np.sum(terms))
    tail_sum = 0.0
    if tail.kind == "geometric" and n_win:
        v = float(values[-1])
        ratio_q = tail.ratio**q
        n = n_win
        while v > 0:
            v *= tail.ratio
            term = ((n + 1.0) ** (r - 1.0 / q) * v) ** q
            tail_sum += term
            if term < 1e-18 * max(total + tail_sum, 1e-300) and n > 2 * n_win + 16:
                break
            n += 1
            if n > n_win + 10_000_000:
                raise AnalyzeError("geometric tail failed to converge")
    total += tail_sum

    flagged = False
    if n_win >= 8:
        j_top = int(math.floor(math.log2(n_win - 1)))
        lo, hi = 2**j_top, n_win
        block = float(np.sum(terms[lo:hi]))
        cumulative = float(np.sum(terms[:hi]))
        if cumulative > 0 and block > 0.01 * cumulative and tail.kind == "zero":
            flagged = True
    return AqrValue(total ** (1.0 / q), tail_sum ** (1.0 / q) if tail_sum > 0 else 0.0,
                    flagged)


def weighted_sup_norm(profile, eps: NullSequence, m: int = 0) -> float:
    """sup over n >= m of E(x, A_n) / eps_n on the window."""
    values = _profile_values(profile)
    n_win = min(values.size, len(eps))
    if m >= n_win:
        raise AnalyzeError("start level beyond the window")
    ratios = []
    for n in range(m, n_win):
        e = eps[n]
        if e <= 0.0:
            raise AnalyzeError(f"eps vanishes at {n} inside the window")
        ratios.append(values[n] / e)
    return float(max(ratios))
