"""Discretized (quasi-)normed ambient spaces.

Three carriers: functions sampled on a grid (interval or torus, with
quadrature weights), coordinate vectors, and square matrices.  Elements are
plain numpy arrays; the space object validates shape and evaluates the norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    complex_ok: bool = False

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
            if self.complex_ok and self.grid.domain != "torus":
                raise SpaceError("complex scalars are supported only on the torus")
        elif self.grid is not None:
            raise SpaceError("only the grid carrier takes a grid")
        if self.carrier in ("coords", "matrix") and self.dim <= 0:
            raise SpaceError("coordinate/matrix spaces need a positive dimension")
        if self.norm_kind in ("hs", "operator") and self.carrier != "matrix":
            raise SpaceError("HS/operator norms apply to the matrix carrier")

    # -- constructors ------------------------------------------------------

    @classmethod
    def lp_grid(cls, grid: Grid, p: float, complex_ok: bool = False) -> "Space":
        if math.isinf(p):
            return cls.sup_grid(grid, complex_ok=complex_ok)
        return cls("grid", "lp", p=p, grid=grid, complex_ok=complex_ok)

    @classmethod
    def sup_grid(cls, grid: Grid, complex_ok: bool = False) -> "Space":
        return cls("grid", "sup", grid=grid, complex_ok=complex_ok)

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

    @property
    def triangle_modulus(self) -> float:
        """Constant C with ||x+y|| <= C (||x|| + ||y||)."""
        if self.norm_kind == "lp" and self.p < 1.0:
            return 2.0 ** (1.0 / self.p - 1.0)
        return 1.0

    def check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != self.shape:
            raise SpaceError(f"element shape {x.shape} does not match carrier {self.shape}")
        if np.iscomplexobj(x) and not self.complex_ok:
            raise SpaceError("complex elements are not supported on this carrier")
        if not np.isfinite(x).all():
            raise SpaceError("element has non-finite entries (NaN or infinity)")
        return x

    def zero(self) -> np.ndarray:
        dtype = complex if self.complex_ok else float
        return np.zeros(self.shape, dtype=dtype)

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


def _unit_scaled(a: np.ndarray) -> tuple:
    """(a / 2^e, e) with max |a / 2^e| in [1/2, 1) (e = 0 for a zero array):
    dividing by a power of two is exact."""
    e = math.frexp(float(np.max(np.abs(a))))[1] if a.size else 0
    return np.ldexp(a, -e), e


def _norm_unchecked(space: Space, x: np.ndarray) -> float:
    """The norm of an array the caller has built from checked elements (no validation).

    An lp or hs sum of powers that overflows, or falls below POWER_SUM_FLOOR
    where its terms may have underflowed, is formed again on |x| scaled by a
    power of two (`_unit_scaled`); the common path makes one pass over x.  An
    L2 or HS root is a correctly rounded square root, so these norms scale
    exactly with powers of two.
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
        a = np.abs(np.asarray(x, dtype=complex if np.iscomplexobj(x) else float))
        total = np.sum(space.grid.weights * a**p) if space.carrier == "grid" else np.sum(a**p)
        if not POWER_SUM_FLOOR <= total < math.inf:
            scaled, e = _unit_scaled(a)
            if e != 0:  # else a is zero or already scaled
                return float(np.ldexp(_norm_unchecked(space, scaled), e))
        return math.sqrt(total) if p == 2.0 else float(total ** (1.0 / p))
    sv = np.linalg.svd(x, compute_uv=False)
    return float(sv[0]) if sv.size else 0.0
