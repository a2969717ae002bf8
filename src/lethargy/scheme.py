"""Approximation schemes: indexed families A_n with a gap map K.

A scheme couples an ambient space with one kind of sets A_n, and each kind is
one subclass of `Scheme`: subspace chains (`Chain`), n-term dictionaries
(`NTerm`, also over the truncated Haar dictionary), value-budget quantizers
(`Quantizer`), the interleaved-c0 family (`InterleavedC0`), free-knot
splines (`Spline`) and matrix rank (`Rank`).  A kind carries its own solver,
sampler, candidate rules and proved envelope.  Schemes are immutable after
build, every array they hold read-only, so that tasks can share the last
one built (`build_scheme`); only a chain's memo of screen Gram matrices
fills as fits ask for it.  Membership tests and samplers are re-entrant.

A descriptor's `kind` picks a builder (`KINDS`), as a space's `carrier` and a
dictionary's `family` do (`CARRIERS`, `FAMILIES`); the builder's keyword-only
parameters are its keys, required unless they have a default.  `_checked`
refuses any other key, a missing one and an ill-typed value (`DESC_TYPES`).
"""

from __future__ import annotations

import copy
import functools
import inspect
import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Optional

import numpy as np

from .solve import (BestApprox, NoSolverError, SolverError, _chain_l2_values, _fit_in_span,
                    _interleaved_error, _is_l2, _nterm_levels, _rank_value, _spline_lp,
                    _spline_on_cells, _spline_sup, _support_fits, _weighted_l2_fit, best_approx,
                    quantizer_error)
from .space import Grid, Space, column_norms, norm

MEMBERSHIP_TOL = 1e-9
RANK_SV_CUTOFF = 1e-10
VALUE_MERGE_TOL = 1e-12


class SchemeError(ValueError):
    """Invalid scheme descriptor; the message names the violated axiom."""


def canonical_json(obj) -> str:
    """The one JSON text of obj, keys sorted: it hashes a task config
    (`cli.config_hash`) and keys the last built scheme (`build_scheme`)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- declared keys: the one check of descriptors and task configs ----------------

REQUIRED = inspect.Parameter.empty


def declared_keys(build: Callable) -> dict:
    """The keys `build` reads: its keyword-only parameters, name -> default, or
    REQUIRED where it has none."""
    return {p.name: p.default for p in inspect.signature(build).parameters.values()
            if p.kind is p.KEYWORD_ONLY}


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


INTEGER = ("an integer", lambda v: _real(v) and isinstance(v, int))
POSITIVE = ("a positive integer", lambda v: INTEGER[1](v) and v >= 1)  # a count of trials or starts
NUMBER = ("a number", _real)  # an integer is a number, and is passed on as a float
STRING = ("a string", lambda v: isinstance(v, str))
OBJECT = ("an object", lambda v: isinstance(v, dict))
INTEGERS = ("a list of integers", lambda v: isinstance(v, list) and all(map(INTEGER[1], v)))
NUMBERS = ("a list of numbers", lambda v: isinstance(v, list) and all(map(_real, v)))
# the JSON type of every descriptor key.  Task configs have their own table
# (cli.KEY_TYPES): `m` and `levels` mean other things there.
DESC_TYPES = {
    **dict.fromkeys("n_max nodes dim side cap degree level max_level depth levels count budget"
                    .split(), INTEGER),
    **dict.fromkeys(("a", "b", "p"), NUMBER),
    **dict.fromkeys(("label", "family", "norm"), STRING),
    **dict.fromkeys(("space", "dictionary"), OBJECT),
    "domain": ("one of interval, interval-cells, torus",
               lambda v: v in ("interval", "interval-cells", "torus")),
    "m": INTEGERS,
    "weights": NUMBERS,
}


def _checked(where: str, given: dict, spec: dict, types: dict, error=SchemeError) -> dict:
    """`given` checked against `spec` (key -> default or REQUIRED) and `types`,
    with copies of the defaults filled in; null stands for a default of None."""
    out = {}
    for key, value in given.items():
        if key not in spec:
            raise error(f"{where}: unknown key {key!r}; allowed keys: {', '.join(spec) or 'none'}")
        kind, test = types[key]
        if not (test(value) or value is None and spec[key] is None):
            raise error(f"{where}: {key} must be {kind}, not {value!r}")
        out[key] = float(value) if types[key] is NUMBER and value is not None else value
    missing = [key for key, default in spec.items() if default is REQUIRED and key not in out]
    if missing:
        raise error(f"{where}: missing required key {missing[0]!r}")
    return {**{key: copy.deepcopy(d) for key, d in spec.items() if key not in out}, **out}


def _pick(what: str, specs: dict, desc: dict, key: str, default=None, error=SchemeError) -> tuple:
    """(name, keys): the name `desc[key]` (or `default`) picks in `specs`, and
    desc's other keys checked against its spec and DESC_TYPES."""
    name = desc.get(key, default)
    if not isinstance(name, str) or name not in specs:
        raise error(f"{what} {key} must be one of {', '.join(specs)}, not {name!r}")
    given = {k: value for k, value in desc.items() if k != key}
    return name, _checked(f"{name} {what}", given, specs[name], DESC_TYPES, error)


@dataclass(frozen=True)
class Dictionary:
    """Finite atom set; columns of `atoms` in the carrier representation.

    A family that builds indicator atoms declares them by `windows`, three
    arrays (start, stop, height): atom j is height[j] on the node indices
    start[j] <= i < stop[j] and 0 elsewhere.  The n-term kernels then read
    inner products and Gram entries off prefix sums (`solve._window_sums`);
    every other dictionary has None and takes the dense products.
    """

    atoms: np.ndarray  # shape (carrier_size, n_atoms)
    label: str
    windows: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        a = np.ascontiguousarray(np.asarray(self.atoms, dtype=float))
        if a.ndim != 2 or a.shape[1] == 0:
            raise SchemeError("dictionary must have at least one atom column")
        if not np.all(np.any(a, axis=0)):
            raise SchemeError("dictionary contains a zero atom (homogeneity axiom degenerates)")
        a.setflags(write=False)
        object.__setattr__(self, "atoms", a)
        for v in self.windows or ():
            v.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.atoms.shape[1])


def make_dictionary(space: Space, atoms: np.ndarray, label: str,
                    windows: Optional[tuple] = None) -> Dictionary:
    """A dictionary of the atoms scaled to unit norm in `space`, with the
    heights of their `windows`, if declared, scaled alike."""
    a = np.asarray(atoms, dtype=float)
    norms = column_norms(space, a)
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        raise SchemeError(f"atom {zero[0]} of {label!r} has zero norm")
    if windows is not None:
        start, stop, height = windows
        windows = start, stop, height / norms
    return Dictionary(a / norms, label, windows)


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


def _indicator_columns(rows: int, windows: tuple) -> np.ndarray:
    """The atoms of `windows` = (start, stop, height): atom j is height[j] on
    the node indices start[j] <= i < stop[j] and 0 elsewhere, one scatter."""
    start, stop, height = windows
    length = stop - start
    atom = np.repeat(np.arange(len(start)), length)
    cols = np.zeros((rows, len(start)))
    cols[np.arange(length.sum()) + np.repeat(start + length - np.cumsum(length), length),
         atom] = height[atom]
    return cols


def _haar_dictionary(space: Space, *, max_level=8, budget=None) -> Dictionary:
    """The atoms `haar_scaling_atoms` lists on the grid's cells, unit in L2 of
    [0, 1) by construction: atom (k, j) is 2^(k/2) on cells [j w, (j + 1) w),
    w = cells >> k."""
    cells = space.grid.size
    idx = haar_scaling_atoms(cells, max_level, budget)
    width = np.array([cells >> k for k, _ in idx])
    j = np.array([j for _, j in idx])
    windows = j * width, (j + 1) * width, np.array([2.0 ** (k / 2.0) for k, _ in idx])
    return Dictionary(_indicator_columns(cells, windows), "haar-scaling", windows)


def _char_dictionary(space: Space, *, depth=6) -> Dictionary:
    """Unit indicators of [a + (b - a) j / 2^k, a + (b - a) (j + 1) / 2^k),
    k = 0..depth, coarse to fine; the grid's nodes increase, so each holds a
    run of them."""
    g = space.grid
    edges = [np.searchsorted(g.nodes, g.a + (g.b - g.a) * np.arange(2**k + 1) / 2**k)
             for k in range(depth + 1)]
    start = np.concatenate([at[:-1] for at in edges])
    stop = np.concatenate([at[1:] for at in edges])
    windows = start, stop, np.ones(len(start))
    return make_dictionary(space, _indicator_columns(g.size, windows), "char-binary-intervals",
                           windows)


# -- space / scheme descriptors ---------------------------------------------


def _exponent(where: str, norm: str, p: Optional[float]) -> float:
    """p of norm "lp", which requires it, or infinity for "sup", which refuses it."""
    if (norm, p is None) not in (("sup", True), ("lp", False)):
        raise SchemeError(f"{where}: norm must be sup (no p) or lp (with p), not {norm!r}, p {p!r}")
    return math.inf if p is None else p


def _grid_space(*, domain="interval", nodes=None, a=None, b=None, norm="sup", p=None) -> Space:
    """`nodes` defaults to 2049 on the interval and 4096 on its cells or the
    torus; [a, b] to [0, 1], and the torus, [0, 2 pi), takes neither."""
    n = (2049 if domain == "interval" else 4096) if nodes is None else nodes
    if n < 2:
        raise SchemeError(f"grid space: nodes must be at least 2, not {n}")
    if domain == "torus" and (a, b) != (None, None):
        raise SchemeError("grid space: the torus takes no a or b")
    make = {"interval": Grid.interval, "interval-cells": Grid.interval_cells}.get(domain)
    g = make(0.0 if a is None else a, 1.0 if b is None else b, n) if make else Grid.torus(n)
    return Space.lp_grid(g, _exponent("grid space", norm, p))


# space carrier -> builder
CARRIERS = {"grid": _grid_space,
            "coords": lambda *, dim, norm="sup", p=None: Space.coords(
                dim, _exponent("coords space", norm, p)),
            "matrix": lambda *, side, norm="hs": Space.matrix(side, norm)}
CARRIER_KEYS = {carrier: declared_keys(build) for carrier, build in CARRIERS.items()}


def build_space(desc: dict, grid_for: Optional[str] = None) -> Space:
    """The space `desc` describes; `grid_for` names a kind that needs a grid."""
    carrier, keys = _pick("space", CARRIER_KEYS, desc, "carrier", "grid")
    if grid_for and carrier != "grid":
        raise SchemeError(f"{grid_for} needs a grid space, not {carrier}")
    return CARRIERS[carrier](**keys)


# dictionary family -> builder of its atoms in `space`
FAMILIES = {
    "orthonormal": lambda space: Dictionary(np.eye(space.dim), "orthonormal-basis"),
    "char-binary-intervals": _char_dictionary,
    "trig": lambda space, *, levels=8: make_dictionary(
        space, _trig_columns(space.grid, levels), "trig-atoms"),
    "monomial": lambda space, *, count=9: make_dictionary(
        space, _chebyshev_columns(space.grid, count), "poly-atoms"),
    "haar-scaling": _haar_dictionary,
}
FAMILY_KEYS = {family: declared_keys(build) for family, build in FAMILIES.items()}


# -- the scheme kinds -----------------------------------------------------------


@dataclass(frozen=True)
class Scheme:
    """The sets A_n, n = 0..n_max, of one kind over `space`, with gap map K.

    A kind is a subclass: it declares its own fields, builds itself from its
    descriptor (`build`), implements `solve` and `draw`, and overrides the
    defaults below where it knows more.  The module-level entry
    points (here and `solve.best_approx`, `solve.error_profile`) check their
    input and call these methods.

    `solve(space, x, levels, seed, incumbent)` returns E(x, A_n) for each n
    of the list `levels` as a BestApprox, its value with the lower bound the
    solver proved; `best_approx` asks for one level and `error_profile` for
    the whole window.  A kind that factors x (rank, L2 chains, L_p splines,
    n-term schemes) does so once for the list; a closed form may then give
    no minimizer.  A solve may stop once an achieved value proves E(x, A_n)
    below `incumbent`, the best value of a caller's search so far, and
    return that value with lower 0; only sup-norm chains do, and an x whose
    exact fit would beat the incumbent by more than its tol is solved as
    without one.

    `draw(n, rng)` returns a member of A_n and the support it was drawn with:
    the atom indices of an n-term scheme, the cell edges of a spline, and
    None for the other kinds.
    """

    kind: ClassVar[str]
    kink_probe: ClassVar[bool] = False  # the density proxy also probes |t - 1/2|
    space: Space
    n_max: int
    label: str
    descriptor: dict = field(compare=False)
    gap: np.ndarray  # K(n), -1 = beyond window

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def K(self, n: int) -> Optional[int]:
        """Gap map value, or None when it falls beyond the window (quantizer)
        or n lies past the gap table."""
        k = int(self.gap[n]) if n < self.gap.size else -1
        return None if k < 0 else k

    def gap_values(self) -> list:
        return [self.K(n) for n in range(self.n_max + 1)]

    def to_json(self) -> dict:
        return copy.deepcopy(self.descriptor)

    def member(self, x: np.ndarray, n: int) -> bool:
        """x in A_n: its distance to A_n is at most MEMBERSHIP_TOL * ||x||, so
        that lambda x is a member exactly when x is, as A_n is homogeneous."""
        value = best_approx(self.space, x, self, n).value
        return value <= MEMBERSHIP_TOL * norm(self.space, x)

    def certified_members(self, xs: list, n: Optional[int], supports: list,
                          summands: Optional[int] = None) -> list:
        """[x in A_n for x in xs], one batch of `validate_scheme`: supports[i] is
        what `draw` exhibited for xs[i] (for a sum, the union of both draws'),
        and `summands` is m when each x is the sum of two draws from A_m, so that
        n = K(m).  n-term schemes and splines certify a member by a fit on its
        support, rank decides the batch by one stacked SVD, and the other kinds
        ask `membership` of each x."""
        return [membership(self, x, n) for x in xs]

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
    """Nested subspaces: A_n is the span of the first dim(n) basis columns; K(n) = n.
    The basis runs one degree, frequency or coordinate (where the space has
    one) past the window, so that every level's next direction is a column.
    That direction is the chain's density candidate and its first gap
    candidate, so each level solves it once."""

    kind = "chain"
    basis: np.ndarray
    level_dims: np.ndarray  # dim of A_n
    family: str  # "monomial" (the descriptor's default), "trig" or "coordinate"
    # dim -> the incumbent screen's Gram matrix of the first dim columns (`_screen_gram`)
    screen_grams: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def build(cls, desc: dict, label: str, *, space, n_max, family="monomial") -> "Chain":
        space = build_space(space, "monomial chain" if family == "monomial" else None)
        if family == "monomial":
            level_dims = np.arange(1, n_max + 2)
            basis = _chebyshev_columns(space.grid, n_max + 2)
        elif family == "trig":
            if space.grid is None or space.grid.domain != "torus":
                raise SchemeError("trig chain needs a torus grid")
            level_dims = 2 * np.arange(n_max + 1) + 1
            basis = _trig_columns(space.grid, n_max + 1)
        elif family == "coordinate":
            level_dims = np.arange(1, n_max + 2)
            if space.carrier != "coords" or space.dim < n_max + 1:
                raise SchemeError("coordinate chain needs a coords space of dimension > n_max")
            basis = np.eye(space.dim)[:, : n_max + 2]
        else:
            raise SchemeError(f"unknown chain family {family!r}")
        return cls(space, n_max, label, desc, np.arange(n_max + 1), basis=basis,
                   level_dims=level_dims, family=family)

    def chain_dim(self, n: int) -> int:
        return int(self.level_dims[n])

    def solve(self, space: Space, x: np.ndarray, levels: list, seed: int, incumbent: float) -> list:
        """L2: one QR for every level; other norms: one fit per level."""
        top = max(levels)
        if top > self.n_max:
            raise SolverError(f"chain level {top} beyond the window 0..{self.n_max} has no basis columns")
        dims = [self.chain_dim(n) for n in levels]
        if _is_l2(space):
            return [BestApprox(value, None, value, info={"solver": "projection"})
                    for value in _chain_l2_values(space, self.basis, dims, x)]
        return [_fit_in_span(space, self.basis[:, :d], x, incumbent,
                             functools.partial(self._screen_gram, d)) for d in dims]

    def _screen_gram(self, d: int) -> np.ndarray:
        """cols.T @ cols of the first d basis columns, the unweighted Gram
        matrix of the incumbent screen, formed by the first screened fit of
        the level and kept for the next.  Per level, not sliced from one
        Gram of the whole basis: the slice differs in the last bits."""
        if d not in self.screen_grams:
            cols = self.basis[:, :d]
            gram = cols.T @ cols
            gram.setflags(write=False)
            self.screen_grams[d] = gram
        return self.screen_grams[d]

    def draw(self, n, rng):
        d = self.chain_dim(n)
        return self.basis[:, :d] @ rng.standard_normal(d), None

    def _next_direction(self, n: int) -> np.ndarray:
        """The first basis column outside A_n (T_{n+1}, cos((n+1)t) or e_{n+1}),
        orthonormalized against A_n on L2 grids; where A_n is the whole space
        (a coordinate chain of dimension n_max + 1, at n_max) the last coordinate."""
        d = self.chain_dim(n)
        if _is_l2(self.space) and self.space.carrier == "grid":
            w = np.sqrt(self.space.grid.weights)
            q, _ = np.linalg.qr(self.basis[:, :d + 1] * w[:, None])
            col = q[:, d] / w
            return col / norm(self.space, col)
        return self.basis[:, min(d, self.basis.shape[1] - 1)]

    def gap_candidates(self, n, rng, count):
        """The next direction, then `count` draws from the columns that A_{n+1}
        adds where it adds more than one (trig chains)."""
        d, d_next = self.chain_dim(n), self.chain_dim(n + 1)
        draws = [self.basis[:, d:d_next] @ rng.standard_normal(d_next - d)
                 for _ in range(count)] if d_next - d > 1 else []
        return [self._next_direction(n), *draws]

    def density_candidates(self, n):
        return [self._next_direction(n)]

    def density_threshold(self):
        return 1e-3 if self.family == "monomial" and self.n_max >= 10 else 0.5


@dataclass(frozen=True)
class NTerm(Scheme):
    """A_n: combinations of at most n dictionary atoms; K(n) = 2n."""

    kind = "nterm"
    kink_probe = True
    dictionary: Dictionary

    @classmethod
    def build(cls, desc: dict, label: str, *, space, dictionary, n_max=None) -> "NTerm":
        space = build_space(space)
        family, keys = _pick("dictionary", FAMILY_KEYS, dictionary, "family")
        if space.grid is None and family != "orthonormal":
            raise SchemeError(f"{family} dictionary needs a grid space, not {space.carrier}")
        dictionary = FAMILIES[family](space, **keys)
        n_max = dictionary.size if n_max is None else n_max
        if n_max < 1:
            raise SchemeError("n-term scheme needs n_max >= 1 (strict inclusion axiom)")
        return cls(space, n_max, label, desc, 2 * np.arange(n_max + 1), dictionary=dictionary)

    @classmethod
    def build_haar(cls, desc: dict, label: str, *, level=8, max_level=None, budget=None,
                   n_max=8) -> "NTerm":
        """The "wavelet-haar" descriptor: n-term over the Haar scaling atoms of L2[0, 1)."""
        space = Space.lp_grid(Grid.interval_cells(0.0, 1.0, 2**level), 2.0)
        dictionary = FAMILIES["haar-scaling"](
            space, max_level=level if max_level is None else max_level, budget=budget)
        return cls(space, n_max, label, desc, 2 * np.arange(n_max + 1), dictionary=dictionary)

    def solve(self, space, x, levels, seed, incumbent):
        """One coefficient sort, or exhaustive levels plus one greedy run
        shared by the greedy levels."""
        return _nterm_levels(space, self.dictionary.atoms, x, levels, seed,
                             self.dictionary.windows)

    def draw(self, n, rng):
        k = min(n, self.dictionary.size)
        if k == 0:
            return self.space.zero(), np.array([], dtype=int)
        idx = rng.choice(self.dictionary.size, size=k, replace=False)
        return self.dictionary.atoms[:, idx] @ rng.standard_normal(k), idx

    def certified_members(self, xs, n, supports, summands=None):
        """Members certified together by `_support_fits` on their drawn atoms
        when these fit in A_n, against MEMBERSHIP_TOL * ||x|| with the batch's
        norms from one `column_norms`.  A residual that misses is decided again
        by the exact fit on the support (`_weighted_l2_fit`), a support larger
        than A_n holds by `membership`, and an empty one (a draw from A_0) only
        for x = 0.  A non-finite x is refused by its norm."""
        fit = [i for i, support in enumerate(supports)
               if 0 < len(support) <= min(n, self.dictionary.size)]
        resid, tol = {}, {}
        if fit:
            rows = np.stack([xs[i] for i in fit])
            tol = dict(zip(fit, MEMBERSHIP_TOL * column_norms(self.space, rows.T)))
            resid = dict(zip(fit, _support_fits(self.space, self.dictionary.atoms, rows,
                                                [supports[i] for i in fit])))
        out = []
        for i, (x, support) in enumerate(zip(xs, supports)):
            if len(support) == 0:
                out.append(not self.space.check(x).any())
            elif i not in resid:
                out.append(membership(self, x, n))
            else:
                out.append(bool(resid[i] <= tol[i] or _weighted_l2_fit(
                    self.space, self.dictionary.atoms[:, list(support)], x)[0] <= tol[i]))
        return out

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
    def build(cls, desc: dict, label: str, *, m, space={"carrier": "grid"}) -> "Quantizer":
        space = build_space(space)
        if space.norm_kind != "sup":
            raise SchemeError("quantizer scheme is defined over a sup-norm carrier")
        m = np.asarray(m, dtype=np.int64)
        n_max = m.size - 1
        if m.size == 0 or np.any(m < 1):
            raise SchemeError(f"quantizer scheme: m must be one or more budgets >= 1, not {m.tolist()}")
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

    def solve(self, space, x, levels, seed, incumbent):
        if max(levels) > self.n_max:
            raise SolverError("quantizer level beyond the window has no declared budget")
        return [quantizer_error(space, x, self.m_of(n)) for n in levels]

    def member(self, x, n):
        return distinct_value_count(x) <= self.m_of(n)

    def draw(self, n, rng):
        m = self.m_of(n)
        vals = rng.standard_normal(m)
        return vals[rng.integers(0, m, self.space.shape[0])], None

    def certified_members(self, xs, n, supports, summands=None):
        """A sum of two draws from A_m also has at most m(m)^2 values, which is
        checkable even when n = K(m) falls beyond the window (None)."""
        if summands is None:
            return super().certified_members(xs, n, supports)
        return [distinct_value_count(x) <= self.m_of(summands) ** 2
                and (n is None or membership(self, x, n)) for x in xs]

    def density_candidates(self, n):
        g = self.space.grid
        if g is None:  # the candidate is a ramp over the nodes
            raise SchemeError(f"quantizer density needs a grid space, not {self.space.carrier}")
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
    def build(cls, desc: dict, label: str, *, cap, n_max=None) -> "InterleavedC0":
        if cap < 2:
            raise SchemeError("interleaved-c0 needs dimension cap >= 2 (strict inclusions)")
        n_max = 2 * cap - 2 if n_max is None else n_max
        if n_max > 2 * cap - 1:
            raise SchemeError("levels beyond 2*cap-1 coincide with the whole space")
        return cls(Space.sup_coords(cap), n_max, label, desc, np.arange(n_max + 1) + 1, cap=cap)

    def solve(self, space, x, levels, seed, incumbent):
        if space.norm_kind != "sup":
            raise NoSolverError("interleaved-c0 solver is defined for the sup norm")
        fits = [_interleaved_error(self.cap, np.asarray(x, dtype=float), n) for n in levels]
        return [BestApprox(value, y, value, info={"solver": "coordinate-closed-form"})
                for value, y in fits]

    def draw(self, n, rng):
        x = np.zeros(self.cap)
        if n == 0:
            return x, None
        if n % 2 == 1:  # span of the first (n+1)/2 coordinates
            k = (n + 1) // 2
            x[:k] = rng.standard_normal(k)
            return x, None
        k = n // 2  # constrained set on k+1 coordinates
        x[:k] = rng.standard_normal(k)
        bound = np.max(np.abs(x[:k])) / (k + 1) if k else 0.0
        x[k] = rng.uniform(-bound, bound)
        return x, None

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
    def build(cls, desc: dict, label: str, *, space, n_max, degree=2) -> "Spline":
        space = build_space(space, "spline scheme")
        if not 1 <= degree <= 4:
            raise SchemeError("spline degree bound must lie in 1..4")
        gap = np.minimum(2 * np.arange(n_max + 1), space.grid.size - 2)
        return cls(space, n_max, label, desc, gap, degree=degree)

    def solve(self, space, x, levels, seed, incumbent):
        """Sup norm: greedy segmentation per level; L_p: one cost table and one
        dynamic program over grid-node breakpoints for every level."""
        if space.norm_kind == "sup":
            return [_spline_sup(space, x, self.degree, n + 1) for n in levels]
        return _spline_lp(space, x, self.degree, levels)

    def draw(self, n, rng):
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
        return out, edges

    def certified_members(self, xs, n, supports, summands=None):
        """Each certified by the fit on its at most n + 1 drawn cells, else
        decided by `membership`."""
        out = []
        for x, cuts in zip(xs, supports):
            fits = len(cuts) <= n + 2 and norm(
                self.space, x - _spline_on_cells(self.space, x, self.degree, cuts)
            ) <= MEMBERSHIP_TOL * norm(self.space, x)
            out.append(fits or membership(self, x, n))
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
    def build(cls, desc: dict, label: str, *, space, n_max=None) -> "Rank":
        space = build_space(space)
        if space.carrier != "matrix":
            raise SchemeError("rank scheme needs a matrix space")
        n_max = space.dim if n_max is None else n_max
        return cls(space, n_max, label, desc, np.minimum(2 * np.arange(n_max + 1), space.dim))

    def solve(self, space, x, levels, seed, incumbent):
        """Eckart-Young from one values-only SVD."""
        sv = np.linalg.svd(x, compute_uv=False)
        return [BestApprox(value, None, value, info={"solver": "svd-truncation"})
                for value in (_rank_value(space, sv, n) for n in levels)]

    def member(self, x, n):
        return bool(_numerical_ranks(x[None])[0] <= n)

    def certified_members(self, xs, n, supports, summands=None):
        """One stacked SVD; each matrix's singular values are those of its own SVD."""
        return (_numerical_ranks(np.stack([self.space.check(x) for x in xs])) <= n).tolist()

    def draw(self, n, rng):
        d = self.space.dim
        if n == 0:
            return np.zeros((d, d)), None
        k = min(n, d)
        return rng.standard_normal((d, k)) @ rng.standard_normal((k, d)), None

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
# every kind also takes a `label`, by default the kind
KIND_KEYS = {kind: {**declared_keys(build), "label": kind} for kind, build in KINDS.items()}


def build_scheme(descriptor) -> Scheme:
    """Materialize a scheme from a declarative descriptor (dict or registry name).
    The scheme keeps the descriptor, defaults not filled in, as its canonical
    JSON reads back.

    The last scheme built is kept, keyed on that JSON text, so a task whose
    scheme is the one built just before it (a replay, the next task on the
    same scheme) shares it.  Sharing is safe: the scheme is built from its
    own parse of the key, so it holds no dict of the caller's, and its arrays
    are read-only.  One entry, because more would hold the large atom
    matrices (haar-wavelet-nterm's are 4.2 MB).  A bad descriptor is refused
    on every call."""
    if isinstance(descriptor, str):
        descriptor = registry_descriptor(descriptor)
    try:
        key = canonical_json(descriptor)
    except (TypeError, ValueError) as exc:  # e.g. a numpy integer, which JSON has no form for
        raise SchemeError(f"scheme descriptor is not JSON: {exc}") from None
    return _build_scheme(key)


@functools.lru_cache(maxsize=1)
def _build_scheme(key: str) -> Scheme:
    descriptor = json.loads(key)
    kind, keys = _pick("scheme", KIND_KEYS, descriptor, "kind")
    if (keys.get("n_max") or 0) < 0:
        raise SchemeError(f"{kind} scheme: n_max must be >= 0, not {keys['n_max']}")
    return KINDS[kind](descriptor, keys.pop("label"), **keys)


# -- membership, samplers and candidates ----------------------------------------


def distinct_value_count(x: np.ndarray) -> int:
    v = np.sort(np.asarray(x, dtype=float).ravel())
    if v.size == 0:
        return 0
    return 1 + int(np.sum(np.diff(v) > VALUE_MERGE_TOL * float(np.max(np.abs(v)))))


def _numerical_ranks(stack: np.ndarray) -> np.ndarray:
    """The rank of each matrix of a stack: its singular values above
    RANK_SV_CUTOFF times the largest (times 1 where that is 0)."""
    sv = np.linalg.svd(stack, compute_uv=False)
    top = sv[:, :1]
    return np.sum(sv > RANK_SV_CUTOFF * np.where(top > 0, top, 1.0), axis=1)


def membership(s: Scheme, x: np.ndarray, n: int) -> bool:
    """x in A_n, decided exactly for rank/quantizer and by distance elsewhere."""
    return s.member(s.space.check(x), n)


def sample_element(s: Scheme, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a generic member of A_n."""
    if not 0 <= n <= s.n_max:
        raise SchemeError(f"level {n} outside the window 0..{s.n_max}")
    return s.draw(n, rng)[0]


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


def density_candidates(s: Scheme, n: int, rng: np.random.Generator) -> list:
    """Unit elements of the ambient space expected to be far from A_n: the
    kind's extremal candidates, then six Gaussian draws."""
    if not 0 <= n <= s.n_max:
        raise SchemeError(f"level {n} outside the window 0..{s.n_max}")
    draws = [rng.standard_normal(s.space.shape) for _ in range(6)]
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
    return _units(s.space, out)


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


def validate_scheme(s: Scheme, trials: int = 1000, rng_seed: int = 0) -> ValidationReport:
    """Sampled audit of the scheme axioms; failures are report entries, not errors.

    Homogeneity, additivity and nesting each draw `trials` / (number of levels)
    trials per level (nesting half as many), from one rng in a fixed order.
    The draws of one level are decided together by one `certified_members`
    call, which draws nothing, so batching leaves the rng order as it was: an
    n-term scheme fits the whole batch at once and decides a draw it misses
    by the exact fit on its support.  The density proxy then solves at n_max.
    """
    rng = np.random.default_rng(rng_seed)
    # at n_max = 0 the set holds level 1, which lies outside the window
    levels = [n for n in sorted({0, 1, s.n_max // 2, max(s.n_max - 1, 0)}) if n <= s.n_max]
    per_level = max(1, trials // max(1, len(levels)))

    def decide(n: Optional[int], draws: list, summands: Optional[int] = None) -> tuple:
        """(failures, trials) of one level's draws [(x, support)], by one batch."""
        xs, supports = zip(*draws)
        oks = s.certified_members(list(xs), n, list(supports), summands)
        return len(oks) - sum(oks), len(oks)

    def audit(name: str, counts, note: str = "") -> AxiomCheck:
        """counts yields `decide` of each level in turn, so that a level's draws
        are freed before the next level's are drawn."""
        fails = done = 0
        for level_fails, level_done in counts:
            fails += level_fails
            done += level_done
        return AxiomCheck(name, fails == 0, done, fails, note)

    def scaled(n: int) -> tuple:
        a, support = s.draw(n, rng)
        return float(rng.standard_normal() * 3.0) * a, support

    def added(n: int) -> tuple:
        (a, support_a), (b, support_b) = s.draw(n, rng), s.draw(n, rng)
        return a + b, None if support_a is None else np.union1d(support_a, support_b)

    checks = [audit("homogeneity", (decide(n, [scaled(n) for _ in range(per_level)])
                                    for n in levels))]
    saturated = per_level * sum(s.K(n) is None for n in levels)
    note = f"{saturated} additions checked by value count only (K beyond window)" if saturated else ""
    checks.append(audit("additivity", (decide(s.K(n), [added(n) for _ in range(per_level)], n)
                                       for n in levels), note))
    nested = max(1, per_level // 2)
    checks.append(audit("nesting", (decide(n + 1, [s.draw(n, rng) for _ in range(nested)])
                                    for n in levels if n + 1 <= s.n_max)))

    density_threshold = s.density_threshold()
    worst = 0.0
    for x in _proxy_probes(s, rng):
        try:
            worst = max(worst, best_approx(s.space, x, s, s.n_max).value)
        except NoSolverError:
            worst = math.inf
            break
    checks.append(audit("density-proxy", [(int(worst >= density_threshold), 1)],
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
    return _units(s.space, out)


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
