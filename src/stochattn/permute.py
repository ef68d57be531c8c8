"""Uniform random permutations and their action on row-indexed data.

Row-placement convention, used everywhere in this package:

    permute_rows(x, p)[i] == x[p.inverse[i]]

i.e. row ``i`` of the permuted matrix is the token that lands at slot ``i``
(token ``j`` moves to slot ``p.forward[j]``). Un-permuting with
``Permutation(p.inverse)`` restores the input bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .numerics import Frozen, SeededRng


class Permutation(Frozen):
    """A bijection on {0..n-1}, given by its ``forward`` array.

    ``forward[i]`` is the slot token i moves to; ``inverse[s]``, derived
    from it, is the token occupying slot s.
    """

    __slots__ = ("forward", "inverse")

    def __init__(self, forward):
        fwd = np.asarray(forward)
        if fwd.ndim != 1 or fwd.dtype.kind not in "iu":
            raise ValueError(f"forward must be a 1-D integer array, got shape {fwd.shape} "
                             f"and dtype {fwd.dtype}")
        fwd = fwd.astype(np.int64, copy=False)
        n = fwd.shape[0]
        bad = f"forward must hold each of 0..{n - 1} exactly once"
        # viewed as unsigned, a negative entry is out of range too
        if n and fwd.view(np.uint64).max() >= n:
            raise ValueError(bad)
        inv = np.full(n, -1, dtype=np.int64)
        inv[fwd] = np.arange(n)
        # n entries in range fill every slot only if none repeats
        if n and inv.min() < 0:
            raise ValueError(bad)
        self.forward, self.inverse = fwd, inv

    @classmethod
    def _of_bijection(cls, forward: np.ndarray) -> Permutation:
        """The permutation of a 1-D int64 ``forward`` that is a bijection by
        construction, such as a draw; nothing is checked."""
        p = object.__new__(cls)
        inv = np.empty_like(forward)
        inv[forward] = np.arange(forward.shape[0])
        p.forward, p.inverse = forward, inv
        return p

    @property
    def n(self) -> int:
        return self.forward.shape[0]


def sample_permutation(n: int, rng: SeededRng) -> Permutation:
    """Draw a permutation uniformly over the symmetric group on n elements."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Permutation._of_bijection(rng.permutation(n))


def inverse_rows(forward: np.ndarray) -> np.ndarray:
    """Row-wise inverses of a (trials, n) batch of ``forward`` arrays, such as
    ``SeededRng.permutations`` draws: row t is the ``inverse`` of row t."""
    trials, n = forward.shape
    inverse = np.empty_like(forward)
    inverse[np.arange(trials)[:, None], forward] = np.arange(n)
    return inverse


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
