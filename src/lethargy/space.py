"""Discretized (quasi-)normed ambient spaces.

Three carriers: functions sampled on a grid (interval or torus, with
quadrature weights), coordinate vectors, and square matrices.  Elements are
plain numpy arrays; the space object validates shape and evaluates the norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

TWO_PI = 2.0 * math.pi
WEIGHT_SUM_RTOL = 1e-10
# a sum of p-th powers below this may have lost terms to underflow (the least
# normal double is 2^-1022); norms outside [floor, inf) are formed again on
# the element scaled by a power of two
POWER_SUM_FLOOR = 2.0 ** -900


class SpaceError(ValueError):
    """Invalid space construction or mismatched element."""


@dataclass(frozen=True)
class Grid:
    """Finite sampling of an interval or the torus, with quadrature weights."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: str  # "interval" | "torus"
    a: float
    b: float

    def __post_init__(self) -> None:
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if self.domain not in ("interval", "torus"):
            raise SpaceError(f"unknown domain {self.domain!r}")
        if nodes.ndim != 1 or nodes.size < 2:
            raise SpaceError("grid needs at least two nodes")
        if weights.shape != nodes.shape:
            raise SpaceError("weights must match nodes")
        if np.any(np.diff(nodes) <= 0):
            raise SpaceError("nodes must be strictly increasing")
        if nodes[0] < self.a - 1e-15 or nodes[-1] > self.b + 1e-15:
            raise SpaceError("nodes must lie within the domain")
        if np.any(weights < 0):
            raise SpaceError("weights must be non-negative")
        length = self.b - self.a
        if abs(float(weights.sum()) - length) > WEIGHT_SUM_RTOL * max(length, 1.0):
            raise SpaceError(
                f"weights sum {weights.sum()!r} differs from domain length {length!r}"
            )
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    @property
    def spacing(self) -> float:
        return float(np.max(np.diff(self.nodes)))

    @classmethod
    def interval(cls, a: float = 0.0, b: float = 1.0, n: int = 2049) -> "Grid":
        """Uniform nodes spanning [a, b] with trapezoid weights."""
        nodes = np.linspace(a, b, n)
        h = (b - a) / (n - 1)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
        return cls(nodes, weights, "interval", a, b)

    @classmethod
    def interval_cells(cls, a: float = 0.0, b: float = 1.0, n: int = 2048) -> "Grid":
        """Midpoints of n equal cells of [a, b]; exact quadrature for cell-aligned steps."""
        h = (b - a) / n
        nodes = a + h * (np.arange(n) + 0.5)
        return cls(nodes, np.full(n, h), "interval", a, b)

    @classmethod
    def torus(cls, n: int = 4096) -> "Grid":
        nodes = TWO_PI * np.arange(n) / n
        return cls(nodes, np.full(n, TWO_PI / n), "torus", 0.0, TWO_PI)

    def total_variation(self, values: np.ndarray) -> float:
        return float(np.sum(np.abs(np.diff(values))))

    def to_json(self) -> dict:
        return {
            "domain": self.domain,
            "a": self.a,
            "b": self.b,
            "nodes": self.size,
            "uniform": bool(np.allclose(np.diff(self.nodes), np.diff(self.nodes)[0])),
        }


@dataclass(frozen=True)
class Space:
    """Carrier plus (quasi-)norm: weighted L_p over a grid, sup, ell_p^N, HS, operator."""

    carrier: str  # "grid" | "coords" | "matrix"
    norm_kind: str  # "lp" | "sup" | "hs" | "operator"
    p: float = math.inf
    grid: Optional[Grid] = None
    dim: int = 0  # coordinate dimension or matrix side
    # the quadrature weight of each entry, read-only: the grid's weights, else ones
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.carrier not in ("grid", "coords", "matrix"):
            raise SpaceError(f"unknown carrier {self.carrier!r}")
        if self.norm_kind not in ("lp", "sup", "hs", "operator"):
            raise SpaceError(f"unknown norm kind {self.norm_kind!r}")
        if self.norm_kind == "lp":
            if not (self.p > 0):
                raise SpaceError("exponent p must be positive")
        if self.carrier == "grid":
            if self.grid is None:
                raise SpaceError("grid carrier needs a grid")
        elif self.grid is not None:
            raise SpaceError("only the grid carrier takes a grid")
        if self.carrier in ("coords", "matrix") and self.dim <= 0:
            raise SpaceError("coordinate/matrix spaces need a positive dimension")
        if (self.norm_kind in ("hs", "operator")) != (self.carrier == "matrix"):
            raise SpaceError("the matrix carrier takes the HS and operator norms, and only it")
        weights = self.grid.weights if self.carrier == "grid" else np.ones(self.shape)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    # -- constructors ------------------------------------------------------

    @classmethod
    def lp_grid(cls, grid: Grid, p: float) -> "Space":
        if math.isinf(p):
            return cls.sup_grid(grid)
        return cls("grid", "lp", p=p, grid=grid)

    @classmethod
    def sup_grid(cls, grid: Grid) -> "Space":
        return cls("grid", "sup", grid=grid)

    @classmethod
    def coords(cls, dim: int, p: float) -> "Space":
        if math.isinf(p):
            return cls("coords", "sup", dim=dim)
        return cls("coords", "lp", p=p, dim=dim)

    @classmethod
    def sup_coords(cls, dim: int) -> "Space":
        return cls("coords", "sup", dim=dim)

    @classmethod
    def matrix(cls, side: int, norm_kind: str = "hs") -> "Space":
        return cls("matrix", norm_kind, dim=side)

    # -- structure ---------------------------------------------------------

    @property
    def shape(self) -> tuple:
        if self.carrier == "grid":
            return (self.grid.size,)
        if self.carrier == "coords":
            return (self.dim,)
        return (self.dim, self.dim)

    def check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != self.shape:
            raise SpaceError(f"element shape {x.shape} does not match carrier {self.shape}")
        if np.iscomplexobj(x):
            raise SpaceError("complex elements are not supported")
        if not np.isfinite(x).all():
            raise SpaceError("element has non-finite entries (NaN or infinity)")
        return x

    def zero(self) -> np.ndarray:
        return np.zeros(self.shape)

    def to_json(self) -> dict:
        d = {"carrier": self.carrier, "norm": self.norm_kind}
        if self.norm_kind == "lp":
            d["p"] = self.p
        if self.grid is not None:
            d["grid"] = self.grid.to_json()
        if self.dim:
            d["dim"] = self.dim
        return d


def norm(space: Space, x: np.ndarray) -> float:
    """Evaluate the space's (quasi-)norm."""
    return _norm_unchecked(space, space.check(x))


def column_norms(space: Space, cols: np.ndarray) -> np.ndarray:
    """`norm` of each column of `cols`, bit for bit.

    On lp grids and coordinates the sums of powers of all columns are formed
    in one pass over the transposed array: a row sum is the same pairwise sum
    as `norm`'s over one column, and a zero column's norm is 0.  Other norms,
    columns `norm` would refuse, and the sums of nonzero columns outside
    [POWER_SUM_FLOOR, inf) take `norm` column by column.
    """
    cols = np.asarray(cols, dtype=float)
    if (space.norm_kind != "lp" or len(space.shape) != 1 or cols.ndim != 2
            or cols.shape[0] != space.shape[0] or not np.isfinite(cols).all()):
        return np.array([norm(space, cols[:, j]) for j in range(cols.shape[1])])
    p = space.p
    a = np.abs(np.ascontiguousarray(cols.T))
    a **= p  # in place, the same powers as a**p
    a *= space.weights
    return np.array([math.sqrt(t) if p == 2.0 else float(t ** (1.0 / p))
                     if POWER_SUM_FLOOR <= t < math.inf or not cols[:, j].any()
                     else norm(space, cols[:, j]) for j, t in enumerate(np.sum(a, axis=1))])


def _unit_scaled(a: np.ndarray) -> tuple:
    """(a / 2^e, e) with max |a / 2^e| in (1/2, 1], and (a itself, 0) for an
    array already in that range or zero: dividing by a power of two is exact."""
    frac, e = math.frexp(float(np.abs(a).max())) if a.size else (0.0, 0)
    e -= frac == 0.5  # a power of two scales to 1
    return (np.ldexp(a, -e), e) if e else (a, 0)


def _norm_unchecked(space: Space, x: np.ndarray) -> float:
    """The norm of an array the caller has built from checked elements (no validation).

    An lp or hs sum of powers that overflows, or falls below POWER_SUM_FLOOR
    where its terms may have underflowed, is formed again on |x| scaled by a
    power of two (`_unit_scaled`); the common path makes one pass over x.  An
    L2 or HS root is a correctly rounded square root, so these norms scale
    exactly with powers of two.  The scaling stays: `norm` takes elements of
    any size, and a fit's residual can lie far below its element.
    """
    kind = space.norm_kind
    if kind == "sup":
        return float(np.max(np.abs(x))) if x.size else 0.0
    if kind == "hs":
        value = float(np.linalg.norm(x, "fro"))
        if math.sqrt(POWER_SUM_FLOOR) <= value < math.inf:
            return value
        scaled, e = _unit_scaled(np.abs(x))
        return float(np.ldexp(np.linalg.norm(scaled, "fro"), e))
    if kind == "lp":
        p = space.p
        a = np.abs(np.asarray(x, dtype=float))
        total = np.sum(space.weights * a**p)
        if not POWER_SUM_FLOOR <= total < math.inf:
            scaled, e = _unit_scaled(a)
            if e != 0:  # else a is zero or already scaled
                return float(np.ldexp(_norm_unchecked(space, scaled), e))
        return math.sqrt(total) if p == 2.0 else float(total ** (1.0 / p))
    sv = np.linalg.svd(x, compute_uv=False)
    return float(sv[0]) if sv.size else 0.0
