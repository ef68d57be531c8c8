"""Uniform random permutations and their action on row-indexed data.

Row-placement convention, used everywhere in this package:

    permute_rows(x, p)[i] == x[p.inverse[i]]

i.e. row ``i`` of the permuted matrix is the token that lands at slot ``i``
(token ``j`` moves to slot ``p.forward[j]``). Un-permuting with ``invert(p)``
restores the input bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import SeededRng


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..n-1} with its inverse precomputed.

    ``forward[i]`` is the slot token i moves to; ``inverse[s]`` is the token
    occupying slot s.
    """

    forward: np.ndarray
    inverse: np.ndarray

    def __post_init__(self):
        fwd = np.asarray(self.forward, dtype=np.int64)
        inv = np.asarray(self.inverse, dtype=np.int64)
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "inverse", inv)
        n = fwd.shape[0]
        if fwd.ndim != 1 or inv.shape != (n,):
            raise ValueError("forward and inverse must be 1-D arrays of equal length")
        if not np.array_equal(inv[fwd], np.arange(n)):
            raise ValueError("inverse is not the inverse of forward")

    @property
    def n(self) -> int:
        return self.forward.shape[0]


def identity_permutation(n: int) -> Permutation:
    idx = np.arange(n, dtype=np.int64)
    return Permutation(idx, idx.copy())


def sample_permutation(n: int, rng: SeededRng) -> Permutation:
    """Draw a permutation uniformly over the symmetric group on n elements."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    forward = rng.permutation(n).astype(np.int64)
    inverse = np.empty(n, dtype=np.int64)
    inverse[forward] = np.arange(n, dtype=np.int64)
    return Permutation(forward, inverse)


def inverse_rows(forward: np.ndarray) -> np.ndarray:
    """Row-wise inverses of a (trials, n) batch of ``forward`` arrays, such as
    ``SeededRng.permutations`` draws: row t is the ``inverse`` of row t."""
    trials, n = forward.shape
    inverse = np.empty_like(forward)
    inverse[np.arange(trials)[:, None], forward] = np.arange(n)
    return inverse


def invert(p: Permutation) -> Permutation:
    return Permutation(p.inverse, p.forward)


def permute_rows(x: np.ndarray, p: Permutation) -> np.ndarray:
    """Rearrange rows so output[i] = x[p.inverse[i]] (see module docstring).

    Rows are axis -2, so a stack of matrices ``(..., n, d)`` is gathered in
    one call, every matrix by the same permutation.
    """
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {x.shape}")
    if x.shape[-2] != p.n:
        raise ValueError(f"row count {x.shape[-2]} does not match permutation size {p.n}")
    return np.take(x, p.inverse, axis=-2)
