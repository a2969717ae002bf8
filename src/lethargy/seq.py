"""Transformations on non-increasing null sequences.

Every sequence is stored exactly on a finite window [0, N), and no
operation looks past the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MONOTONE_RTOL = 1e-12


class SequenceError(ValueError):
    """An input sequence violates a validity requirement."""


class InsufficientWindowError(SequenceError):
    """A window is too short to complete a block construction."""


def _require_nonincreasing(v: np.ndarray, what: str) -> None:
    diff = np.diff(v)
    scale = np.maximum(np.abs(v[:-1]), np.abs(v[1:]))
    bad = diff > MONOTONE_RTOL * scale
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SequenceError(
            f"{what} must be non-increasing; entry {i + 1} = {v[i + 1]!r} "
            f"exceeds entry {i} = {v[i]!r}"
        )


@dataclass(frozen=True)
class NullSequence:
    """A non-negative, non-increasing window."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise SequenceError("values must be a non-empty 1-d array")
        if np.any(v < 0):
            raise SequenceError("values must be non-negative")
        _require_nonincreasing(v, "values")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)

    def __getitem__(self, n: int) -> float:
        return float(self.values[n])

    @classmethod
    def geometric(cls, ratio: float, n: int) -> "NullSequence":
        return cls(ratio ** np.arange(n, dtype=float))

    @classmethod
    def harmonic(cls, n: int) -> "NullSequence":
        return cls(1.0 / (np.arange(n, dtype=float) + 1.0))


@dataclass(frozen=True)
class IndexMap:
    """A total map on the window with h(n) >= n."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.int64)
        if v.ndim != 1 or v.size == 0:
            raise SequenceError("index map must be a non-empty 1-d array")
        if np.any(v < np.arange(v.size)):
            i = int(np.argmax(v < np.arange(v.size)))
            raise SequenceError(f"index map must satisfy h(n) >= n; h({i}) = {int(v[i])}")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)

    def __call__(self, n: int) -> int:
        return int(self.values[n])

    @classmethod
    def identity(cls, n: int) -> "IndexMap":
        return cls(np.arange(n, dtype=np.int64))


def lethargy_majorant(eps: NullSequence, h: IndexMap) -> NullSequence:
    """Smallest-style majorant xi of eps with the doubling bound xi_n <= 2 xi_{h(n)}.

    Blocks are delimited by iterating a strictly increasing replacement of h;
    on each block the value is the running maximum of the window entry at the
    block start and half the previous block value.  The output dominates eps,
    is non-increasing, and satisfies xi_n <= 2 xi_{h(n)} wherever both indices
    fall in the window.
    """
    v = eps.values
    n_win = v.size
    if len(h) < n_win:
        raise SequenceError("index map must cover the window")
    hv = h.values[:n_win].astype(np.int64)

    # Strictly increasing replacement g with g(n) > n. g(0) is clamped up to 1
    # so the first block is never empty (the running-max form alone allows
    # g(0) = h(0) = 0).
    g = np.maximum.accumulate(hv) + np.arange(n_win, dtype=np.int64)
    g[0] = max(int(g[0]), 1)

    starts = [0]
    while starts[-1] < n_win:
        m = starts[-1]
        nxt = int(g[m])
        if len(starts) == 1 and nxt > n_win:
            raise InsufficientWindowError(
                f"window of length {n_win} cannot hold one full block: "
                f"the first block would end at {nxt}"
            )
        starts.append(nxt)
        if nxt >= n_win:
            break

    out = np.empty(n_win, dtype=float)
    beta = float(v[0])
    for k in range(len(starts) - 1):
        m_k, m_next = starts[k], starts[k + 1]
        if k > 0:
            beta = max(float(v[m_k]), beta / 2.0)
        out[m_k:min(m_next, n_win)] = beta
    return NullSequence(out)

