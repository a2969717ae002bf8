"""Approximation schemes: indexed families A_n with a gap map K.

A scheme couples an ambient space with one kind of sets A_n, and each kind is
one subclass of `Scheme`: subspace chains (`Chain`), n-term dictionaries
(`NTerm`, also over the truncated Haar dictionary), value-budget quantizers
(`Quantizer`), the interleaved-c0 family (`InterleavedC0`), free-knot
splines (`Spline`) and matrix rank (`Rank`).  A kind carries its own solver,
sampler, candidate rules and proved envelope.  Schemes are immutable after
build; membership tests and samplers are re-entrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .solve import (BestApprox, NoSolverError, SolverError, _chain_l2_values, _fit_in_span,
                    _interleaved_error, _is_l2, _nterm_levels, _rank_error, _rank_value,
                    _spline_lp, _spline_sup, _weighted_l2_fit, best_approx, quantizer_error)
from .space import Grid, Space, norm

MEMBERSHIP_TOL = 1e-9
RANK_SV_CUTOFF = 1e-10
VALUE_MERGE_TOL = 1e-12


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


# -- the scheme kinds -----------------------------------------------------------


@dataclass(frozen=True)
class Scheme:
    """The sets A_n, n = 0..n_max, of one kind over `space`, with gap map K.

    A kind is a subclass: it declares its own fields, builds itself from its
    descriptor (`build`), implements `solve` and `sample`, and overrides the
    defaults below where it knows more.  The module-level entry points (here
    and `solve.best_approx`, `solve.error_profile`) check their input and
    call these methods.
    """

    kind: ClassVar[str]
    kink_probe: ClassVar[bool] = False   # the density proxy also probes |t - 1/2|
    power_decay: ClassVar[bool] = False  # density_profile_check tests d(km) <= d(m)^k
    space: Space
    n_max: int
    label: str
    descriptor: dict = field(compare=False)
    gap: np.ndarray  # K(n), -1 = beyond window

    def K(self, n: int) -> Optional[int]:
        """Gap map value, or None when it falls beyond the window (quantizer)."""
        k = int(self.gap[n])
        return None if k < 0 else k

    def gap_values(self) -> list:
        return [self.K(n) for n in range(self.n_max + 1)]

    def to_json(self) -> dict:
        return dict(self.descriptor)

    def profile(self, space: Space, x: np.ndarray, n_max: int, seed: int) -> Optional[tuple]:
        """([(value, status)] for n = 0..n_max, element norm or None) from one
        factorization of x, or None when the levels are solved one by one."""
        return None

    def member(self, x: np.ndarray, n: int, tol: float) -> bool:
        """x in A_n, by its distance to A_n."""
        return best_approx(self.space, x, self, n).value <= tol * max(1.0, norm(self.space, x))

    def draw(self, n: int, rng: np.random.Generator) -> tuple:
        """A member of A_n and the atom support it exhibits (None: no support)."""
        return sample_element(self, n, rng), None

    def certified_member(self, x: np.ndarray, n: int, support) -> bool:
        """x in A_n, where `support` is what `draw` exhibited for x."""
        return membership(self, x, n)

    def additive(self, n: int, rng: np.random.Generator) -> bool:
        """One additivity trial: is the sum of two members of A_n in A_K(n)?"""
        a = sample_element(self, n, rng)
        b = sample_element(self, n, rng)
        return membership(self, a + b, self.K(n))

    def gap_candidates(self, n: int, rng: np.random.Generator, count: int) -> list:
        """Elements of A_{n+1} expected to be far from A_n, not normalized."""
        return [sample_element(self, n + 1, rng) for _ in range(count)]

    def density_candidates(self, n: int) -> list:
        """Extremal ambient elements expected to be far from A_n, not normalized."""
        return []

    def density_threshold(self) -> float:
        """The largest probe error at n_max that the density proxy accepts."""
        return 0.5

    def envelope(self, levels: list) -> Optional[list]:
        """A proved bound on E(x, A_n) / ||x|| at each of `levels`, or None."""
        return None

    def pairing(self, m: int, n: int) -> Optional[int]:
        """A level holding A_m + A_n."""
        return self.K(max(m, n))


@dataclass(frozen=True)
class Chain(Scheme):
    """Nested subspaces: A_n is the span of the first dim(n) basis columns; K(n) = n."""

    kind = "chain"
    basis: np.ndarray
    level_dims: np.ndarray  # dim of A_n

    @classmethod
    def build(cls, desc: dict, label: str) -> "Chain":
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
        return cls(space, n_max, label, desc, np.arange(n_max + 1), basis=basis,
                   level_dims=level_dims)

    def chain_dim(self, n: int) -> int:
        return int(self.level_dims[n])

    def solve(self, space: Space, x: np.ndarray, n: int, seed: int) -> BestApprox:
        return BestApprox(*_fit_in_span(space, self.basis[:, : self.chain_dim(min(n, self.n_max))], x))

    def profile(self, space, x, n_max, seed):
        """L2 chains: one QR."""
        if not _is_l2(space):
            return None
        dims = [self.chain_dim(n) for n in range(n_max + 1)]
        return [(value, "exact") for value in _chain_l2_values(space, self.basis, dims, x)], None

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        d = self.chain_dim(n)
        return self.basis[:, :d] @ rng.standard_normal(d)

    def _tail_column(self, d: int, col: np.ndarray) -> np.ndarray:
        """`col` orthonormalized against the first d basis columns (L2 grids)."""
        w = np.sqrt(self.space.grid.weights)
        q, _ = np.linalg.qr(np.column_stack([self.basis[:, :d], col]) * w[:, None])
        col = q[:, d] / w
        return col / norm(self.space, col)

    def gap_candidates(self, n, rng, count):
        d = self.chain_dim(n)
        d_next = self.chain_dim(n + 1)
        sp, family = self.space, self.descriptor.get("family")
        out = []
        if sp.norm_kind == "sup" and family in ("monomial", "trig"):
            out.append(self.basis[:, d])  # Chebyshev column of the next degree, or cos((n+1)t)
        elif _is_l2(sp) and sp.carrier == "grid":
            out.append(self._tail_column(d, self.basis[:, d]))
        for _ in range(count):
            c = rng.standard_normal(d_next - d)
            out.append(self.basis[:, d:d_next] @ c)
        return out

    def density_candidates(self, n):
        sp, family = self.space, self.descriptor.get("family")
        out = []
        if family == "monomial" and sp.carrier == "grid":
            deg = self.chain_dim(n)
            out.append(_chebyshev_columns(sp.grid, deg + 1)[:, deg])
        elif family == "trig":
            out.append(np.cos((n + 1) * sp.grid.nodes))
        elif family == "coordinate":
            e = np.zeros(sp.dim)
            e[min(self.chain_dim(n), sp.dim - 1)] = 1.0
            out.append(e)
        if _is_l2(sp) and sp.carrier == "grid":
            # the family candidate above, so the top level needs no column past the basis
            out.append(self._tail_column(self.chain_dim(n), out[-1]))
        return out

    def density_threshold(self):
        return 1e-3 if self.descriptor.get("family") == "monomial" and self.n_max >= 10 else 0.5


@dataclass(frozen=True)
class NTerm(Scheme):
    """A_n: combinations of at most n dictionary atoms; K(n) = 2n."""

    kind = "nterm"
    kink_probe = True
    power_decay = True
    dictionary: Dictionary

    @classmethod
    def build(cls, desc: dict, label: str) -> "NTerm":
        space = build_space(desc["space"])
        dictionary = _build_dictionary(desc["dictionary"], space)
        n_max = int(desc.get("n_max", dictionary.size))
        if n_max < 1:
            raise SchemeError("n-term scheme needs n_max >= 1 (strict inclusion axiom)")
        return cls(space, n_max, label, desc, 2 * np.arange(n_max + 1), dictionary=dictionary)

    @classmethod
    def build_haar(cls, desc: dict, label: str) -> "NTerm":
        """The "wavelet-haar" descriptor: n-term over the Haar scaling atoms of L2[0, 1)."""
        level = int(desc.get("level", 8))
        space = Space.lp_grid(Grid.interval_cells(0.0, 1.0, 2**level), 2.0)
        dict_desc = {"family": "haar-scaling", "max_level": int(desc.get("max_level", level)),
                     "budget": desc.get("budget")}
        n_max = int(desc.get("n_max", 8))
        return cls(space, n_max, label, desc, 2 * np.arange(n_max + 1),
                   dictionary=_build_dictionary(dict_desc, space))

    def solve(self, space, x, n, seed):
        return BestApprox(*_nterm_levels(space, self.dictionary.atoms, x, [n], seed)[n])

    def profile(self, space, x, n_max, seed):
        """L2: one coefficient sort, or exhaustive levels plus one greedy run
        shared by the greedy levels."""
        if not _is_l2(space):
            return None
        levels = list(range(n_max + 1))
        by_level = _nterm_levels(space, self.dictionary.atoms, x, levels, seed)
        return [(by_level[n][0], by_level[n][2]) for n in levels], None

    def draw(self, n, rng):
        k = min(n, self.dictionary.size)
        if k == 0:
            return self.space.zero(), np.array([], dtype=int)
        idx = rng.choice(self.dictionary.size, size=k, replace=False)
        return self.dictionary.atoms[:, idx] @ rng.standard_normal(k), idx

    def sample(self, n, rng):
        return self.draw(n, rng)[0]

    def certified_member(self, x, n, support):
        """Membership certified by a fit on the exhibited atoms when they fit in A_n."""
        if len(support) > min(n, self.dictionary.size):
            return membership(self, x, n)
        if len(support) == 0:
            return bool(norm(self.space, x) <= MEMBERSHIP_TOL)
        value = _weighted_l2_fit(self.space, self.dictionary.atoms[:, list(support)], x)[0]
        return value <= MEMBERSHIP_TOL * max(1.0, norm(self.space, x))

    def additive(self, n, rng):
        # the sum is certified on the union of the two drawn atom subsets,
        # which exhibits a concrete A_K(n) member
        a, idx_a = self.draw(n, rng)
        b, idx_b = self.draw(n, rng)
        union = np.union1d(idx_a, idx_b)
        kn = self.K(n)
        return union.size <= kn and self.certified_member(a + b, kn, union)

    def gap_candidates(self, n, rng, count):
        atom = np.array(self.dictionary.atoms[:, rng.integers(self.dictionary.size)])
        return [atom, *super().gap_candidates(n, rng, count)]

    def density_candidates(self, n):
        alt = np.ones(self.space.shape[0])
        alt[1::2] = -1.0
        return [np.ones(self.space.shape[0]), alt]

    def pairing(self, m, n):
        return m + n


@dataclass(frozen=True)
class Quantizer(Scheme):
    """A_n: functions taking at most m(n) values, in the sup norm; K(n) is the
    first level whose budget covers m(n)^2."""

    kind = "quantizer"
    kink_probe = True
    value_budget: np.ndarray  # m(n)

    @classmethod
    def build(cls, desc: dict, label: str) -> "Quantizer":
        space = build_space(desc.get("space", {"carrier": "grid", "norm": "sup"}))
        if space.norm_kind != "sup":
            raise SchemeError("quantizer scheme is defined over a sup-norm carrier")
        m = np.asarray(desc["m"], dtype=np.int64)
        n_max = m.size - 1
        if np.any(m < 1):
            raise SchemeError("value budget must be >= 1 (non-empty A_n)")
        if np.any(np.diff(m) < 0):
            raise SchemeError("value budget must be non-decreasing (nesting axiom)")
        # the sum of two m-valued functions takes at most m^2 values; -1 when
        # no level of the window covers that
        gap = np.full(n_max + 1, -1, dtype=np.int64)
        for n in range(n_max + 1):
            hits = np.nonzero(m >= int(m[n]) ** 2)[0]
            hits = hits[hits >= n]
            if hits.size:
                gap[n] = int(hits[0])
        return cls(space, n_max, label, desc, gap, value_budget=m)

    def m_of(self, n: int) -> int:
        return int(self.value_budget[n])

    def solve(self, space, x, n, seed):
        if n > self.n_max:
            raise SolverError("quantizer level beyond the window has no declared budget")
        res = quantizer_error(space, x, self.m_of(n))
        return BestApprox(res.value, res.minimizer, "exact", res.info)

    def member(self, x, n, tol):
        return distinct_value_count(x) <= self.m_of(n)

    def sample(self, n, rng):
        m = self.m_of(n)
        vals = rng.standard_normal(m)
        return vals[rng.integers(0, m, self.space.shape[0])]

    def additive(self, n, rng):
        a = sample_element(self, n, rng)
        b = sample_element(self, n, rng)
        # the m(n)^2 value-count bound is checkable even when K(n) falls
        # beyond the window
        kn = self.K(n)
        return distinct_value_count(a + b) <= self.m_of(n) ** 2 and (
            kn is None or membership(self, a + b, kn))

    def density_candidates(self, n):
        g = self.space.grid
        return [2.0 * (g.nodes - g.a) / (g.b - g.a) - 1.0]

    def density_threshold(self):
        return 1.2 / self.m_of(self.n_max)

    def envelope(self, levels):
        """Midpoint quantization of the value range: E(x, A_n) <= ||x|| / m(n)."""
        return [1.0 / self.m_of(n) for n in levels]

    def pairing(self, m, n):
        need = self.m_of(m) * self.m_of(n)
        for j in range(max(m, n), self.n_max + 1):
            if self.m_of(j) >= need:
                return j
        return None


@dataclass(frozen=True)
class InterleavedC0(Scheme):
    """Sup-norm coordinates of dimension `cap`: odd levels are coordinate
    spans, even levels add one coordinate bounded by the leading ones; K(n) = n + 1."""

    kind = "interleaved-c0"
    cap: int  # dimension

    @classmethod
    def build(cls, desc: dict, label: str) -> "InterleavedC0":
        cap = int(desc["cap"])
        if cap < 2:
            raise SchemeError("interleaved-c0 needs dimension cap >= 2 (strict inclusions)")
        n_max = int(desc.get("n_max", 2 * cap - 2))
        if n_max > 2 * cap - 1:
            raise SchemeError("levels beyond 2*cap-1 coincide with the whole space")
        return cls(Space.sup_coords(cap), n_max, label, desc, np.arange(n_max + 1) + 1, cap=cap)

    def solve(self, space, x, n, seed):
        if space.norm_kind != "sup":
            raise NoSolverError("interleaved-c0 solver is defined for the sup norm")
        value, y = _interleaved_error(self.cap, np.asarray(x, dtype=float), n)
        return BestApprox(value, y, "exact", {"solver": "coordinate-closed-form"})

    def sample(self, n, rng):
        x = np.zeros(self.cap)
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

    def gap_candidates(self, n, rng, count):
        x = np.zeros(self.cap)
        if n % 2 == 1:  # A_{n+1} is a constrained set on k+1 coordinates
            k = (n + 1) // 2
            x[:k] = 1.0
            x[k] = 1.0 / (k + 1)
        else:  # A_{n+1} is the span of the first k+1 coordinates
            x[n // 2] = 1.0
        return [x, *super().gap_candidates(n, rng, count)]

    def density_candidates(self, n):
        used = (n + 1) // 2 if n % 2 == 1 else n // 2 + 1
        e = np.zeros(self.cap)
        e[min(used, self.cap - 1)] = 1.0
        return [e]

    def density_threshold(self):
        return 1e-9 if self.n_max >= 2 * self.cap - 1 else 1.5


@dataclass(frozen=True)
class Spline(Scheme):
    """Free-knot splines: A_n holds the piecewise polynomials of degree below
    `degree` with at most n knots at grid nodes; K(n) = 2n."""

    kind = "spline"
    kink_probe = True
    degree: int  # polynomial degree bound

    @classmethod
    def build(cls, desc: dict, label: str) -> "Spline":
        space = build_space(desc["space"])
        degree = int(desc.get("degree", 2))
        if not 1 <= degree <= 4:
            raise SchemeError("spline degree bound must lie in 1..4")
        n_max = int(desc["n_max"])
        gap = np.minimum(2 * np.arange(n_max + 1), space.grid.size - 2)
        return cls(space, n_max, label, desc, gap, degree=degree)

    def solve(self, space, x, n, seed):
        """Sup norm: greedy segmentation; L_p: dynamic program over grid-node breakpoints."""
        if space.norm_kind == "sup":
            return BestApprox(*_spline_sup(space, x, self.degree, n + 1))
        return BestApprox(*_spline_lp(space, x, self.degree, [n])[0])

    def profile(self, space, x, n_max, seed):
        """L_p: one cost table and one DP."""
        if space.norm_kind != "lp":
            return None
        fits = _spline_lp(space, x, self.degree, list(range(n_max + 1)))
        return [(value, status) for value, _, status, _ in fits], None

    def sample(self, n, rng):
        g = self.space.grid
        if n == 0:
            breaks = []
        else:
            breaks = np.sort(rng.choice(np.arange(1, g.size - 1), size=min(n, g.size - 2), replace=False))
        edges = [0, *[int(b) for b in breaks], g.size]
        out = np.empty(g.size)
        for lo, hi in zip(edges[:-1], edges[1:]):
            t = g.nodes[lo:hi]
            tc = (t - t.mean()) if hi - lo > 1 else t * 0.0
            coeffs = rng.standard_normal(self.degree)
            out[lo:hi] = sum(c * tc**k for k, c in enumerate(coeffs))
        return out

    def density_threshold(self):
        return 0.2

    def pairing(self, m, n):
        return m + n


@dataclass(frozen=True)
class Rank(Scheme):
    """Square matrices of rank at most n; K(n) = 2n."""

    kind = "rank"

    @classmethod
    def build(cls, desc: dict, label: str) -> "Rank":
        space = build_space(desc["space"])
        if space.carrier != "matrix":
            raise SchemeError("rank scheme needs a matrix space")
        n_max = int(desc.get("n_max", space.dim))
        return cls(space, n_max, label, desc, np.minimum(2 * np.arange(n_max + 1), space.dim))

    def solve(self, space, x, n, seed):
        return BestApprox(*_rank_error(space, x, n))

    def profile(self, space, x, n_max, seed):
        """One SVD, whose top singular value is the operator norm."""
        sv = np.linalg.svd(x, compute_uv=False)
        fits = [(_rank_value(space, sv, n), "exact") for n in range(n_max + 1)]
        if space.norm_kind != "operator":
            return fits, None
        return fits, float(sv[0]) if sv.size else 0.0

    def member(self, x, n, tol):
        sv = np.linalg.svd(x, compute_uv=False)
        cutoff = RANK_SV_CUTOFF * (sv[0] if sv.size and sv[0] > 0 else 1.0)
        return int(np.sum(sv > cutoff)) <= n

    def sample(self, n, rng):
        d = self.space.dim
        if n == 0:
            return np.zeros((d, d))
        k = min(n, d)
        return rng.standard_normal((d, k)) @ rng.standard_normal((k, d))

    def density_candidates(self, n):
        return [np.eye(self.space.dim)]

    def density_threshold(self):
        return 1e-9 if self.n_max >= self.space.dim else 1.5

    def pairing(self, m, n):
        return m + n


# descriptor kind -> builder; "wavelet-haar" builds an n-term scheme
KINDS = {"chain": Chain.build, "nterm": NTerm.build, "quantizer": Quantizer.build,
         "interleaved-c0": InterleavedC0.build, "spline": Spline.build, "rank": Rank.build,
         "wavelet-haar": NTerm.build_haar}


def build_scheme(descriptor) -> Scheme:
    """Materialize a scheme from a declarative descriptor (dict or registry name)."""
    if isinstance(descriptor, str):
        descriptor = registry_descriptor(descriptor)
    desc = dict(descriptor)
    kind = desc.get("kind")
    if kind not in KINDS:
        raise SchemeError(f"unknown scheme kind {kind!r}")
    return KINDS[kind](desc, desc.get("label", kind))


# -- membership, samplers and candidates ----------------------------------------


def distinct_value_count(x: np.ndarray, tol: float = VALUE_MERGE_TOL) -> int:
    v = np.sort(np.asarray(x, dtype=float).ravel())
    if v.size == 0:
        return 0
    scale = max(1.0, float(np.max(np.abs(v))))
    return 1 + int(np.sum(np.diff(v) > tol * scale))


def membership(s: Scheme, x: np.ndarray, n: int, tol: float = MEMBERSHIP_TOL) -> bool:
    """x in A_n, decided exactly for rank/quantizer and by distance elsewhere."""
    return s.member(s.space.check(x), n, tol)


def sample_element(s: Scheme, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a generic member of A_n."""
    if not 0 <= n <= s.n_max:
        raise SchemeError(f"level {n} outside the window 0..{s.n_max}")
    return s.sample(n, rng)


def _units(space: Space, elements: list) -> list:
    """The elements of norm above 1e-12, normalized."""
    out = []
    for x in elements:
        nx = norm(space, x)
        if nx > 1e-12:
            out.append(x / nx)
    return out


def gap_candidates(s: Scheme, n: int, rng: np.random.Generator, count: int = 4) -> list:
    """Unit elements of A_{n+1} expected to be far from A_n."""
    if not 0 <= n < s.n_max:
        raise SchemeError(f"level {n} has no successor in the window 0..{s.n_max}")
    return _units(s.space, s.gap_candidates(n, rng, count))


def density_candidates(s: Scheme, n: int, rng: np.random.Generator, count: int = 6) -> list:
    """Unit elements of the ambient space expected to be far from A_n: the
    kind's extremal candidates, then `count` Gaussian draws."""
    if not 0 <= n <= s.n_max:
        raise SchemeError(f"level {n} outside the window 0..{s.n_max}")
    draws = [rng.standard_normal(s.space.shape) for _ in range(count)]
    return _units(s.space, s.density_candidates(n) + draws)


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

    fails = 0
    done = 0
    for n in levels:
        for _ in range(per_level):
            a, support = s.draw(n, rng)
            lam = float(rng.standard_normal() * 3.0)
            if not s.certified_member(lam * a, n, support):
                fails += 1
            done += 1
    checks.append(AxiomCheck("homogeneity", fails == 0, done, fails))

    fails = 0
    done = 0
    saturated = 0
    for n in levels:
        for _ in range(per_level):
            done += 1
            saturated += s.K(n) is None
            if not s.additive(n, rng):
                fails += 1
    note = f"{saturated} additions checked by value count only (K beyond window)" if saturated else ""
    checks.append(AxiomCheck("additivity", fails == 0, done, fails, note))

    fails = 0
    done = 0
    for n in levels:
        if n + 1 > s.n_max:
            continue
        for _ in range(max(1, per_level // 2)):
            a, support = s.draw(n, rng)
            done += 1
            if not s.certified_member(a, n + 1, support):
                fails += 1
    checks.append(AxiomCheck("nesting", fails == 0, done, fails))

    if density_threshold is None:
        density_threshold = s.density_threshold()
    worst = 0.0
    for x in _proxy_probes(s, rng):
        try:
            worst = max(worst, best_approx(s.space, x, s, s.n_max).value)
        except NoSolverError:
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
        if s.kink_probe:
            out.append(np.abs(t - 0.5))
    elif s.space.carrier == "coords":
        out.append(2.0 ** (-np.arange(s.space.dim, dtype=float)))
    else:
        d = s.space.dim
        k = min(s.n_max, d)
        out.append(rng.standard_normal((d, k)) @ rng.standard_normal((k, d)))
    return [x / max(norm(s.space, x), 1e-30) for x in out]


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
