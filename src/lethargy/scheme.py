"""Approximation schemes: indexed families A_n with a gap map K.

A scheme couples an ambient space with a kind-specific description of the
sets A_n (subspace chain, n-term dictionary, quantizer, interleaved-c0,
free-knot splines, matrix rank, truncated Haar dictionary).  Schemes are
immutable after build; membership tests and samplers are re-entrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .space import Grid, Space, norm

MEMBERSHIP_TOL = 1e-9
RANK_SV_CUTOFF = 1e-10
VALUE_MERGE_TOL = 1e-12

KINDS = ("chain", "nterm", "quantizer", "interleaved-c0", "spline", "rank", "wavelet-haar")


class SchemeError(ValueError):
    """Invalid scheme descriptor; the message names the violated axiom."""


@dataclass(frozen=True)
class Dictionary:
    """Finite atom set; columns of `atoms` in the carrier representation."""

    atoms: np.ndarray  # shape (carrier_size, n_atoms)
    label: str
    normalized: bool = True

    def __post_init__(self) -> None:
        a = np.ascontiguousarray(np.asarray(self.atoms, dtype=float))
        if a.ndim != 2 or a.shape[1] == 0:
            raise SchemeError("dictionary must have at least one atom column")
        col_sup = np.max(np.abs(a), axis=0)
        if np.any(col_sup == 0):
            raise SchemeError("dictionary contains a zero atom (homogeneity axiom degenerates)")
        a.setflags(write=False)
        object.__setattr__(self, "atoms", a)

    @property
    def size(self) -> int:
        return int(self.atoms.shape[1])


def make_dictionary(space: Space, atoms: np.ndarray, label: str, normalize: bool = True) -> Dictionary:
    a = np.asarray(atoms, dtype=float)
    if normalize:
        cols = []
        for j in range(a.shape[1]):
            nj = norm(space, a[:, j])
            if nj == 0:
                raise SchemeError(f"atom {j} of {label!r} has zero norm")
            cols.append(a[:, j] / nj)
        a = np.column_stack(cols)
    return Dictionary(a, label, normalized=normalize)


@dataclass(frozen=True)
class Scheme:
    kind: str
    space: Space
    n_max: int
    label: str
    descriptor: dict = field(compare=False)
    basis: Optional[np.ndarray] = None           # chain
    level_dims: Optional[np.ndarray] = None      # chain: dim of A_n
    dictionary: Optional[Dictionary] = None      # nterm
    value_budget: Optional[np.ndarray] = None    # quantizer m(n)
    cap: int = 0                                 # interleaved-c0 dimension cap
    degree: int = 0                              # spline polynomial degree bound
    gap: Optional[np.ndarray] = None             # K(n), -1 = beyond window

    def K(self, n: int) -> Optional[int]:
        """Gap map value, or None when it falls beyond the window (quantizer)."""
        k = int(self.gap[n])
        return None if k < 0 else k

    def gap_values(self) -> list:
        return [self.K(n) for n in range(self.n_max + 1)]

    def chain_dim(self, n: int) -> int:
        return int(self.level_dims[n])

    def m_of(self, n: int) -> int:
        return int(self.value_budget[n])

    def to_json(self) -> dict:
        return dict(self.descriptor)


# -- basis families ----------------------------------------------------------


def _chebyshev_columns(grid: Grid, count: int) -> np.ndarray:
    """Degree-graded polynomial basis, Chebyshev-of-the-domain for conditioning."""
    a, b = grid.a, grid.b
    u = (2.0 * grid.nodes - (a + b)) / (b - a)
    cols = np.empty((grid.size, count))
    if count > 0:
        cols[:, 0] = 1.0
    if count > 1:
        cols[:, 1] = u
    for k in range(2, count):
        cols[:, k] = 2.0 * u * cols[:, k - 1] - cols[:, k - 2]
    return cols

def _trig_columns(grid: Grid, n_levels: int) -> np.ndarray:
    cols = [np.ones(grid.size)]
    for k in range(1, n_levels + 1):
        cols.append(np.cos(k * grid.nodes))
        cols.append(np.sin(k * grid.nodes))
    return np.column_stack(cols)


def haar_scaling_atoms(level_cells: int, max_level: int, budget: Optional[int] = None):
    """Index list [(k, j)] of dyadic scaling atoms on [0, 1), coarse to fine."""
    idx = []
    for k in range(max_level + 1):
        if 2**k > level_cells:
            break
        for j in range(2**k):
            idx.append((k, j))
            if budget is not None and len(idx) >= budget:
                return idx
    return idx


def haar_atom_column(level_cells: int, k: int, j: int) -> np.ndarray:
    col = np.zeros(level_cells)
    width = level_cells >> k
    col[j * width:(j + 1) * width] = 2.0 ** (k / 2.0)
    return col


# -- space / scheme descriptors ---------------------------------------------


def build_space(desc: dict) -> Space:
    carrier = desc.get("carrier", "grid")
    if carrier == "grid":
        domain = desc.get("domain", "interval")
        n = int(desc.get("nodes", 2049 if domain == "interval" else 4096))
        if domain == "interval":
            g = Grid.interval(float(desc.get("a", 0.0)), float(desc.get("b", 1.0)), n)
        elif domain == "interval-cells":
            g = Grid.interval_cells(float(desc.get("a", 0.0)), float(desc.get("b", 1.0)), n)
        else:
            g = Grid.torus(n)
        if desc.get("norm", "sup") == "sup":
            return Space.sup_grid(g, complex_ok=bool(desc.get("complex", False)))
        return Space.lp_grid(g, float(desc["p"]), complex_ok=bool(desc.get("complex", False)))
    if carrier == "coords":
        if desc.get("norm", "sup") == "sup":
            return Space.sup_coords(int(desc["dim"]))
        return Space.coords(int(desc["dim"]), float(desc["p"]))
    if carrier == "matrix":
        return Space.matrix(int(desc["side"]), desc.get("norm", "hs"))
    raise SchemeError(f"unknown carrier {carrier!r}")


def _build_dictionary(desc: dict, space: Space) -> Dictionary:
    family = desc["family"]
    if family == "orthonormal":
        d = space.dim
        return Dictionary(np.eye(d), "orthonormal-basis")
    if family == "char-binary-intervals":
        depth = int(desc.get("depth", 6))
        g = space.grid
        atoms = []
        for k in range(depth + 1):
            for j in range(2**k):
                lo = g.a + (g.b - g.a) * j / 2**k
                hi = g.a + (g.b - g.a) * (j + 1) / 2**k
                atoms.append(((g.nodes >= lo) & (g.nodes < hi)).astype(float))
        return make_dictionary(space, np.column_stack(atoms), "char-binary-intervals")
    if family == "trig":
        n_levels = int(desc.get("levels", 8))
        return make_dictionary(space, _trig_columns(space.grid, n_levels), "trig-atoms")
    if family == "monomial":
        count = int(desc.get("count", 9))
        return make_dictionary(space, _chebyshev_columns(space.grid, count), "poly-atoms")
    if family == "haar-scaling":
        cells = space.grid.size
        idx = haar_scaling_atoms(cells, int(desc.get("max_level", 8)), desc.get("budget"))
        cols = np.column_stack([haar_atom_column(cells, k, j) for k, j in idx])
        # columns are unit in L2 of [0,1) by construction
        return Dictionary(cols, "haar-scaling")
    if family == "explicit":
        return make_dictionary(space, np.asarray(desc["atoms"], dtype=float), desc.get("label", "explicit"))
    raise SchemeError(f"unknown dictionary family {family!r}")


def build_scheme(descriptor) -> Scheme:
    """Materialize a scheme from a declarative descriptor (dict or registry name)."""
    if isinstance(descriptor, str):
        descriptor = registry_descriptor(descriptor)
    desc = dict(descriptor)
    kind = desc.get("kind")
    if kind not in KINDS:
        raise SchemeError(f"unknown scheme kind {kind!r}")
    label = desc.get("label", kind)

    if kind == "chain":
        space = build_space(desc["space"])
        n_max = int(desc["n_max"])
        family = desc.get("family", "monomial")
        if family == "monomial":
            level_dims = np.arange(1, n_max + 2)
            basis = _chebyshev_columns(space.grid, n_max + 1)
        elif family == "trig":
            if space.grid is None or space.grid.domain != "torus":
                raise SchemeError("trig chain needs a torus grid")
            level_dims = 2 * np.arange(n_max + 1) + 1
            basis = _trig_columns(space.grid, n_max)
        elif family == "coordinate":
            level_dims = np.arange(1, n_max + 2)
            if space.carrier != "coords" or space.dim < n_max + 1:
                raise SchemeError("coordinate chain needs a coords space of dimension > n_max")
            basis = np.eye(space.dim)[:, : n_max + 1]
        else:
            raise SchemeError(f"unknown chain family {family!r}")
        gap = np.arange(n_max + 1)
        return Scheme(kind, space, n_max, label, desc, basis=basis,
                      level_dims=level_dims, gap=gap)

    if kind == "nterm":
        space = build_space(desc["space"])
        dictionary = _build_dictionary(desc["dictionary"], space)
        n_max = int(desc.get("n_max", dictionary.size))
        if n_max < 1:
            raise SchemeError("n-term scheme needs n_max >= 1 (strict inclusion axiom)")
        gap = 2 * np.arange(n_max + 1)
        return Scheme(kind, space, n_max, label, desc, dictionary=dictionary, gap=gap)

    if kind == "quantizer":
        space = build_space(desc.get("space", {"carrier": "grid", "norm": "sup"}))
        if space.norm_kind != "sup":
            raise SchemeError("quantizer scheme is defined over a sup-norm carrier")
        m = np.asarray(desc["m"], dtype=np.int64)
        n_max = m.size - 1
        if np.any(m < 1):
            raise SchemeError("value budget must be >= 1 (non-empty A_n)")
        if np.any(np.diff(m) < 0):
            raise SchemeError("value budget must be non-decreasing (nesting axiom)")
        # K(n) = first level whose budget covers m(n)^2 (sum of two m-valued
        # functions takes at most m^2 values); -1 when beyond the window.
        gap = np.full(n_max + 1, -1, dtype=np.int64)
        for n in range(n_max + 1):
            need = int(m[n]) ** 2
            hits = np.nonzero(m >= need)[0]
            hits = hits[hits >= n]
            if hits.size:
                gap[n] = int(hits[0])
        return Scheme(kind, space, n_max, label, desc, value_budget=m, gap=gap)

    if kind == "interleaved-c0":
        cap = int(desc["cap"])
        if cap < 2:
            raise SchemeError("interleaved-c0 needs dimension cap >= 2 (strict inclusions)")
        n_max = int(desc.get("n_max", 2 * cap - 2))
        if n_max > 2 * cap - 1:
            raise SchemeError("levels beyond 2*cap-1 coincide with the whole space")
        space = Space.sup_coords(cap)
        gap = np.arange(n_max + 1) + 1
        return Scheme(kind, space, n_max, label, desc, cap=cap, gap=gap)

    if kind == "spline":
        space = build_space(desc["space"])
        degree = int(desc.get("degree", 2))
        if not 1 <= degree <= 4:
            raise SchemeError("spline degree bound must lie in 1..4")
        n_max = int(desc["n_max"])
        gap = np.minimum(2 * np.arange(n_max + 1), space.grid.size - 2)
        return Scheme(kind, space, n_max, label, desc, degree=degree, gap=gap)

    if kind == "rank":
        space = build_space(desc["space"])
        if space.carrier != "matrix":
            raise SchemeError("rank scheme needs a matrix space")
        n_max = int(desc.get("n_max", space.dim))
        gap = np.minimum(2 * np.arange(n_max + 1), space.dim)
        return Scheme(kind, space, n_max, label, desc, gap=gap)

    if kind == "wavelet-haar":
        level = int(desc.get("level", 8))
        cells = 2**level
        g = Grid.interval_cells(0.0, 1.0, cells)
        space = Space.lp_grid(g, 2.0)
        dict_desc = {"family": "haar-scaling", "max_level": int(desc.get("max_level", level)),
                     "budget": desc.get("budget")}
        dictionary = _build_dictionary(dict_desc, space)
        n_max = int(desc.get("n_max", 8))
        gap = 2 * np.arange(n_max + 1)
        # the wavelet descriptor builds an n-term scheme over the Haar scaling atoms
        return Scheme("nterm", space, n_max, label, desc, dictionary=dictionary, gap=gap)

    raise SchemeError(f"unhandled kind {kind!r}")


# -- membership --------------------------------------------------------------


def distinct_value_count(x: np.ndarray, tol: float = VALUE_MERGE_TOL) -> int:
    v = np.sort(np.asarray(x, dtype=float).ravel())
    if v.size == 0:
        return 0
    scale = max(1.0, float(np.max(np.abs(v))))
    return 1 + int(np.sum(np.diff(v) > tol * scale))


def membership(s: Scheme, x: np.ndarray, n: int, tol: float = MEMBERSHIP_TOL) -> bool:
    """x in A_n, decided exactly for rank/quantizer and by distance elsewhere."""
    x = s.space.check(x)
    if s.kind == "rank":
        sv = np.linalg.svd(x, compute_uv=False)
        cutoff = RANK_SV_CUTOFF * (sv[0] if sv.size and sv[0] > 0 else 1.0)
        return int(np.sum(sv > cutoff)) <= n
    if s.kind == "quantizer":
        return distinct_value_count(x) <= s.m_of(n)
    from . import solve  # deferred: solve depends on scheme structure

    return solve.best_approx(s.space, x, s, n).value <= tol * max(1.0, norm(s.space, x))


# -- samplers and extremal candidates ----------------------------------------


def sample_element(s: Scheme, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a generic member of A_n."""
    if s.kind == "chain":
        d = s.chain_dim(n)
        return s.basis[:, :d] @ rng.standard_normal(d)
    if s.kind == "nterm":
        if n == 0:
            return s.space.zero()
        k = min(n, s.dictionary.size)
        cols = rng.choice(s.dictionary.size, size=k, replace=False)
        return s.dictionary.atoms[:, cols] @ rng.standard_normal(k)
    if s.kind == "quantizer":
        m = s.m_of(n)
        vals = rng.standard_normal(m)
        labels = rng.integers(0, m, s.space.shape[0])
        return vals[labels]
    if s.kind == "interleaved-c0":
        x = np.zeros(s.cap)
        if n == 0:
            return x
        if n % 2 == 1:  # span of the first (n+1)/2 coordinates
            k = (n + 1) // 2
            x[:k] = rng.standard_normal(k)
            return x
        k = n // 2  # constrained set on k+1 coordinates
        x[:k] = rng.standard_normal(k)
        bound = np.max(np.abs(x[:k])) / (k + 1) if k else 0.0
        x[k] = rng.uniform(-bound, bound)
        return x
    if s.kind == "spline":
        g = s.space.grid
        if n == 0:
            breaks = []
        else:
            breaks = np.sort(rng.choice(np.arange(1, g.size - 1), size=min(n, g.size - 2), replace=False))
        edges = [0, *[int(b) for b in breaks], g.size]
        out = np.empty(g.size)
        for lo, hi in zip(edges[:-1], edges[1:]):
            t = g.nodes[lo:hi]
            tc = (t - t.mean()) if hi - lo > 1 else t * 0.0
            coeffs = rng.standard_normal(s.degree)
            out[lo:hi] = sum(c * tc**k for k, c in enumerate(coeffs))
        return out
    if s.kind == "rank":
        d = s.space.dim
        if n == 0:
            return np.zeros((d, d))
        k = min(n, d)
        return rng.standard_normal((d, k)) @ rng.standard_normal((k, d))
    raise SchemeError(f"no sampler for kind {s.kind!r}")


def _orthonormal_tail_column(s: Scheme, d: int, col: np.ndarray) -> np.ndarray:
    """`col` orthonormalized against the first d basis columns (L2 grids)."""
    w = np.sqrt(s.space.grid.weights)
    q, _ = np.linalg.qr(np.column_stack([s.basis[:, :d], col]) * w[:, None])
    col = q[:, d] / w
    return col / norm(s.space, col)


def gap_candidates(s: Scheme, n: int, rng: np.random.Generator, count: int = 4) -> list:
    """Unit elements of A_{n+1} expected to be far from A_n."""
    out = []
    if s.kind == "chain":
        d = s.chain_dim(n)
        d_next = s.chain_dim(n + 1)
        if s.space.norm_kind == "sup" and s.descriptor.get("family") == "monomial":
            out.append(s.basis[:, d])  # Chebyshev column of the next degree
        elif s.space.norm_kind == "sup" and s.descriptor.get("family") == "trig":
            out.append(np.cos((n + 1) * s.space.grid.nodes))
        elif s.space.norm_kind == "lp" and s.space.p == 2.0 and s.space.carrier == "grid":
            out.append(_orthonormal_tail_column(s, d, s.basis[:, d]))
        for _ in range(count):
            c = rng.standard_normal(d_next - d)
            out.append(s.basis[:, d:d_next] @ c)
    elif s.kind == "interleaved-c0":
        if n % 2 == 1:  # A_{n+1} is a constrained set on k+1 coordinates
            k = (n + 1) // 2
            x = np.zeros(s.cap)
            x[:k] = 1.0
            x[k] = 1.0 / (k + 1)
            out.append(x)
        else:  # A_{n+1} is the span of the first k+1 coordinates
            k = n // 2
            x = np.zeros(s.cap)
            x[k] = 1.0
            out.append(x)
        for _ in range(count):
            out.append(sample_element(s, n + 1, rng))
    else:
        if s.kind == "nterm" and s.dictionary is not None:
            out.append(np.array(s.dictionary.atoms[:, rng.integers(s.dictionary.size)]))
        for _ in range(count):
            out.append(sample_element(s, n + 1, rng))
    cands = []
    for x in out:
        nx = norm(s.space, x)
        if nx > 1e-12:
            cands.append(x / nx)
    return cands


def density_candidates(s: Scheme, n: int, rng: np.random.Generator, count: int = 6) -> list:
    """Unit elements of the ambient space expected to be far from A_n."""
    out = []
    if s.kind == "chain":
        family = s.descriptor.get("family")
        if family == "monomial" and s.space.carrier == "grid":
            deg = s.chain_dim(n)
            out.append(_chebyshev_columns(s.space.grid, deg + 1)[:, deg])
        elif family == "trig":
            out.append(np.cos((n + 1) * s.space.grid.nodes))
        elif family == "coordinate":
            e = np.zeros(s.space.dim)
            e[min(s.chain_dim(n), s.space.dim - 1)] = 1.0
            out.append(e)
        if s.space.norm_kind == "lp" and s.space.p == 2.0 and s.space.carrier == "grid":
            # the family candidate above, so the top level needs no column past the basis
            out.append(_orthonormal_tail_column(s, s.chain_dim(n), out[-1]))
    elif s.kind == "interleaved-c0":
        used = (n + 1) // 2 if n % 2 == 1 else n // 2 + 1
        e = np.zeros(s.cap)
        e[min(used, s.cap - 1)] = 1.0
        out.append(e)
    elif s.kind == "quantizer":
        g = s.space.grid
        ramp = 2.0 * (g.nodes - g.a) / (g.b - g.a) - 1.0
        out.append(ramp)
    elif s.kind == "rank":
        out.append(np.eye(s.space.dim))
    elif s.kind == "nterm":
        dim = s.space.shape[0]
        out.append(np.ones(dim))
        alt = np.ones(dim)
        alt[1::2] = -1.0
        out.append(alt)
    for _ in range(count):
        shape = s.space.shape
        out.append(rng.standard_normal(shape))
    cands = []
    for x in out:
        nx = norm(s.space, x)
        if nx > 1e-12:
            cands.append(x / nx)
    return cands


def named_probes(space: Space) -> dict:
    """The carrier's named ambient probes, unnormalized, in probe order."""
    if space.carrier == "grid":
        g = space.grid
        t = (g.nodes - g.a) / (g.b - g.a)
        return {"smooth-mix": np.sin(3.0 * t) + t * t,
                "runge": 1.0 / (1.0 + 25.0 * (2.0 * t - 1.0) ** 2),
                "abs-kink": np.abs(t - 0.5)}
    if space.carrier == "coords":
        return {"flat": np.ones(space.dim), "decay": 1.0 / (np.arange(space.dim) + 1.0)}
    return {"identity": np.eye(space.dim) / space.dim}


def probe_elements(s: Scheme, rng: np.random.Generator, count: int = 4) -> list:
    """Generic ambient probes for density-proxy and envelope checks."""
    out = list(named_probes(s.space).values())
    for _ in range(count):
        out.append(rng.standard_normal(s.space.shape))
    return [x / max(norm(s.space, x), 1e-30) for x in out]


# -- axiom validation ---------------------------------------------------------


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    trials: int
    failures: int
    note: str = ""

    def to_json(self) -> dict:
        return {"axiom": self.name, "passed": self.passed, "trials": self.trials,
                "failures": self.failures, "note": self.note}


@dataclass
class ValidationReport:
    scheme: str
    checks: list
    gap_values: list
    passed: bool

    def to_json(self) -> dict:
        return {"scheme": self.scheme, "passed": self.passed,
                "gap_map": self.gap_values,
                "checks": [c.to_json() for c in self.checks]}


def validate_scheme(s: Scheme, trials: int = 1000, rng_seed: int = 0,
                    density_threshold: Optional[float] = None,
                    levels: Optional[list] = None) -> ValidationReport:
    """Sampled audit of the scheme axioms; failures are report entries, not errors."""
    rng = np.random.default_rng(rng_seed)
    if levels is None:
        levels = sorted({0, 1, s.n_max // 2, max(s.n_max - 1, 0)})
    levels = [n for n in levels if 0 <= n <= s.n_max]
    per_level = max(1, trials // max(1, len(levels)))
    checks = []

    def _certified_member(x, level, support) -> bool:
        """Membership with an optional exhibited atom support (dictionary kinds)."""
        if support is None or s.dictionary is None:
            return membership(s, x, level)
        if len(support) > min(level, s.dictionary.size):
            return membership(s, x, level)
        if len(support) == 0:
            return bool(norm(s.space, x) <= MEMBERSHIP_TOL)
        from . import solve

        value, *_ = solve._weighted_l2_fit(s.space, s.dictionary.atoms[:, list(support)], x)
        return value <= MEMBERSHIP_TOL * max(1.0, norm(s.space, x))

    def _draw(n):
        if s.kind == "nterm":
            k = min(n, s.dictionary.size)
            idx = rng.choice(s.dictionary.size, size=k, replace=False) if k else np.array([], dtype=int)
            x = s.dictionary.atoms[:, idx] @ rng.standard_normal(k) if k else s.space.zero()
            return x, idx
        return sample_element(s, n, rng), None

    fails = 0
    done = 0
    for n in levels:
        for _ in range(per_level):
            a, support = _draw(n)
            lam = float(rng.standard_normal() * 3.0)
            if not _certified_member(lam * a, n, support):
                fails += 1
            done += 1
    checks.append(AxiomCheck("homogeneity", fails == 0, done, fails))

    fails = 0
    done = 0
    saturated = 0
    for n in levels:
        kn = s.K(n)
        for _ in range(per_level):
            done += 1
            if s.kind == "quantizer":
                a = sample_element(s, n, rng)
                b = sample_element(s, n, rng)
                # the m(n)^2 value-count bound is checkable even when K(n)
                # falls beyond the window
                ok = distinct_value_count(a + b) <= s.m_of(n) ** 2
                if kn is not None:
                    ok = ok and membership(s, a + b, kn)
                else:
                    saturated += 1
                if not ok:
                    fails += 1
            elif s.kind == "nterm":
                # membership of a sum is certified on the union of the two
                # drawn atom subsets, which exhibits a concrete A_K(n) member
                a, idx_a = _draw(n)
                b, idx_b = _draw(n)
                union = np.union1d(idx_a, idx_b)
                if union.size > kn or not _certified_member(a + b, kn, union):
                    fails += 1
            else:
                a = sample_element(s, n, rng)
                b = sample_element(s, n, rng)
                if not membership(s, a + b, kn):
                    fails += 1
    note = f"{saturated} additions checked by value count only (K beyond window)" if saturated else ""
    checks.append(AxiomCheck("additivity", fails == 0, done, fails, note))

    fails = 0
    done = 0
    for n in levels:
        if n + 1 > s.n_max:
            continue
        for _ in range(max(1, per_level // 2)):
            a, support = _draw(n)
            done += 1
            if not _certified_member(a, n + 1, support):
                fails += 1
    checks.append(AxiomCheck("nesting", fails == 0, done, fails))

    from . import solve

    if density_threshold is None:
        density_threshold = _default_density_threshold(s)
    worst = 0.0
    for x in _proxy_probes(s, rng):
        try:
            worst = max(worst, solve.best_approx(s.space, x, s, s.n_max).value)
        except solve.NoSolverError:
            worst = math.inf
            break
    checks.append(AxiomCheck("density-proxy", worst < density_threshold, 1, 0,
                             f"max probe error {worst:.3e} vs threshold {density_threshold:.3e}"))

    return ValidationReport(s.label, checks, s.gap_values(), all(c.passed for c in checks))


def _proxy_probes(s: Scheme, rng: np.random.Generator) -> list:
    """Well-approximable unit probes for the density axiom proxy."""
    out = []
    if s.space.carrier == "grid":
        g = s.space.grid
        t = (g.nodes - g.a) / (g.b - g.a)
        if g.domain == "torus":  # a periodic family needs periodic probes
            theta = 2.0 * np.pi * t
            out.append(np.exp(np.cos(theta)))
            out.append(np.sin(3.0 * theta) + np.cos(theta) ** 2)
        else:
            out.append(np.sin(3.0 * t) + t * t)
            out.append(np.exp(t) * np.cos(2.0 * t))
        if s.kind in ("quantizer", "spline", "nterm"):
            out.append(np.abs(t - 0.5))
    elif s.space.carrier == "coords":
        out.append(2.0 ** (-np.arange(s.space.dim, dtype=float)))
    else:
        d = s.space.dim
        k = min(s.n_max, d)
        out.append(rng.standard_normal((d, k)) @ rng.standard_normal((k, d)))
    return [x / max(norm(s.space, x), 1e-30) for x in out]


def _default_density_threshold(s: Scheme) -> float:
    if s.kind == "quantizer":
        return 1.2 / s.m_of(s.n_max)
    if s.kind == "interleaved-c0":
        return 1e-9 if s.n_max >= 2 * s.cap - 1 else 1.5
    if s.kind in ("rank",):
        return 1e-9 if s.n_max >= s.space.dim else 1.5
    if s.kind == "chain" and s.descriptor.get("family") == "monomial" and s.n_max >= 10:
        return 1e-3
    if s.kind == "spline":
        return 0.2
    return 0.5


# -- registry -----------------------------------------------------------------

_REGISTRY = {
    "monomial-chain": {
        "kind": "chain", "family": "monomial", "n_max": 12, "label": "monomial-chain",
        "space": {"carrier": "grid", "domain": "interval", "a": 0.0, "b": 1.0,
                  "nodes": 2049, "norm": "sup"},
    },
    "monomial-chain-l2": {
        "kind": "chain", "family": "monomial", "n_max": 12, "label": "monomial-chain-l2",
        "space": {"carrier": "grid", "domain": "interval", "a": 0.0, "b": 1.0,
                  "nodes": 2049, "norm": "lp", "p": 2.0},
    },
    "trig-chain": {
        "kind": "chain", "family": "trig", "n_max": 10, "label": "trig-chain",
        "space": {"carrier": "grid", "domain": "torus", "nodes": 4096, "norm": "sup"},
    },
    "interleaved-c0": {
        "kind": "interleaved-c0", "cap": 20, "label": "interleaved-c0",
    },
    "quantizer-linear": {
        "kind": "quantizer", "m": [max(n, 1) for n in range(13)], "label": "quantizer-linear",
        "space": {"carrier": "grid", "domain": "interval", "a": 0.0, "b": 1.0,
                  "nodes": 2049, "norm": "sup"},
    },
    "quantizer-geometric": {
        "kind": "quantizer", "m": [2**n for n in range(9)], "label": "quantizer-geometric",
        "space": {"carrier": "grid", "domain": "interval", "a": 0.0, "b": 1.0,
                  "nodes": 2049, "norm": "sup"},
    },
    "orthonormal-nterm": {
        "kind": "nterm", "n_max": 10, "label": "orthonormal-nterm",
        "dictionary": {"family": "orthonormal"},
        "space": {"carrier": "coords", "dim": 64, "norm": "lp", "p": 2.0},
    },
    "char-binary-intervals": {
        "kind": "nterm", "n_max": 8, "label": "char-binary-intervals",
        "dictionary": {"family": "char-binary-intervals", "depth": 6},
        "space": {"carrier": "grid", "domain": "interval-cells", "a": 0.0, "b": 1.0,
                  "nodes": 1024, "norm": "lp", "p": 2.0},
    },
    "rank-8-hs": {
        "kind": "rank", "label": "rank-8-hs",
        "space": {"carrier": "matrix", "side": 8, "norm": "hs"},
    },
    "rank-8-operator": {
        "kind": "rank", "label": "rank-8-operator",
        "space": {"carrier": "matrix", "side": 8, "norm": "operator"},
    },
    "free-knot-spline": {
        "kind": "spline", "degree": 2, "n_max": 6, "label": "free-knot-spline",
        "space": {"carrier": "grid", "domain": "interval", "a": 0.0, "b": 1.0,
                  "nodes": 257, "norm": "lp", "p": 2.0},
    },
    "haar-wavelet-nterm": {
        "kind": "wavelet-haar", "level": 9, "max_level": 9, "n_max": 6,
        "label": "haar-wavelet-nterm",
    },
}


def list_schemes() -> list:
    return sorted(_REGISTRY)


def registry_descriptor(name: str) -> dict:
    try:
        return dict(_REGISTRY[name])
    except KeyError:
        raise SchemeError(f"unknown scheme name {name!r}; known: {', '.join(list_schemes())}")
