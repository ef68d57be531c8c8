"""Deterministic float64 linear algebra and seeded randomness.

Everything downstream (masks, attention kernels, Monte-Carlo suites) sits on
the two primitives here: strict finite-checked matrix ops, and a reproducible
RNG tree keyed by ``(root_seed, layer, step)``.

Seed derivation is three chained rounds of the SplitMix64 finalizer, so any
implementation can reproduce the child-seed tree from the constants below.
The streams themselves come from numpy's PCG64 bit generator seeded with the
derived 64-bit value.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Byte budget of the largest array one chunk of Monte-Carlo trials gathers:
# trials are drawn and evaluated this many bytes at a time, so their memory
# is bounded whatever the trial count or the problem size.
MC_CHUNK_BYTES = 1 << 20


class FullyMaskedRowError(ValueError):
    """A softmax row had no unmasked entry; carries the offending row index."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} is fully masked; every query must see at least one key")


class Frozen:
    """Base of the package's validated value types: ``__init__`` sets each
    slot once, and setting it again or deleting it raises AttributeError, so
    what a constructor derives never goes stale."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"{type(self).__name__}.{name} is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")


def _splitmix64(z: int) -> int:
    """One round of the SplitMix64 finalizer (Steele/Lea/Flood constants)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(root: int, layer: int, step: int) -> int:
    """Mix ``(root, layer, step)`` into a 64-bit child seed.

    Nested finalizer rounds keep the map injective-in-practice across the
    (layer, step) grid; the test suite checks 10^4 derived seeds for
    duplicates. Deterministic: the same triple always yields the same seed.
    """
    s = _splitmix64(root & _MASK64)
    s = _splitmix64(s ^ (layer & _MASK64))
    return _splitmix64(s ^ (step & _MASK64))


class SeededRng:
    """Deterministic random stream with derivable child streams.

    Identical ``root_seed`` values produce bit-identical streams. Child
    streams for distinct ``(layer, step)`` pairs are independent, so
    parallel workloads can pre-split the tree without coordination.
    """

    def __init__(self, root_seed: int):
        self.root_seed = root_seed & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.root_seed))

    def child(self, layer: int, step: int) -> "SeededRng":
        """Fresh stream keyed by (layer, step) under this root."""
        return SeededRng(derive_seed(self.root_seed, layer, step))

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int | None = None, size=None):
        return self._gen.integers(low, high, size)

    def normal(self, size=None):
        return self._gen.normal(size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def permutations(self, trials: int, n: int) -> np.ndarray:
        """(trials, n) array whose rows are what ``trials`` successive
        ``permutation(n)`` calls return; the stream ends in the same state.
        The tiled identity rows are shuffled in place."""
        rows = np.tile(np.arange(n), (trials, 1))
        return self._gen.permuted(rows, axis=1, out=rows)

    def choice(self, n: int, size: int, replace: bool = True) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)


def chunk_trials(bytes_per_trial: int) -> int:
    """Trials in a chunk of ``trial_chunks``: as many as fit ``MC_CHUNK_BYTES``
    at ``bytes_per_trial``, at least one."""
    return max(1, MC_CHUNK_BYTES // bytes_per_trial)


def trial_chunks(trials: int, bytes_per_trial: int):
    """Consecutive ``(lo, hi)`` bounds covering ``range(trials)``, each chunk
    ``chunk_trials(bytes_per_trial)`` trials long (the last may be shorter)."""
    step = chunk_trials(bytes_per_trial)
    for lo in range(0, trials, step):
        yield lo, min(lo + step, trials)


def as_matrices(x, name: str) -> np.ndarray:
    """Coerce a bool, integer or real-float matrix or stack of matrices
    ``(..., rows, cols)`` to finite float64. A strided float64 view stays a
    view; any other dtype (complex, strings, objects) is a ValueError."""
    a = np.asarray(x)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold bool, integer or real-float values, "
                         f"got dtype {a.dtype}")
    a = a.astype(np.float64, copy=False)
    if a.ndim < 2:
        raise ValueError(f"{name} must be 2-D or a stack of 2-D arrays, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def as_matrix(x, name: str) -> np.ndarray:
    """``as_matrices`` of exactly one matrix."""
    a = as_matrices(x, name)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def sigmoid_in_place(z: np.ndarray) -> np.ndarray:
    """Logistic sigmoid of a float64 array, in place, as 0.5*tanh(z/2) + 0.5.

    The tanh form takes no ``exp``, so it raises no floating-point warning at
    any input, saturates to exactly 0 or 1, and gives exactly 0.5 at 0.
    Returns ``z``.
    """
    z *= 0.5
    np.tanh(z, out=z)
    z *= 0.5
    z += 0.5
    return z


def masked_row_softmax(scores, mask) -> np.ndarray:
    """Row softmax restricted to unmasked entries, over the last axis of a
    matrix or of a stack of matrices ``(..., rows, cols)``.

    Masked positions are exactly 0 in the output and each row sums to 1.
    Stabilized by subtracting the per-row maximum over unmasked entries, so
    the result is invariant to adding a constant to a row's unmasked scores.
    Masked cells are shifted to exactly 0 before ``exp`` and zeroed after it,
    so a masked score never reaches ``exp`` and cannot overflow. Any finite
    scores are valid input, and raise no floating-point warning. Each
    matrix of a stack gives the same result as it would alone; matrices
    sharing one mask pass it as ``np.broadcast_to(mask, scores.shape)``.

    Raises:
        FullyMaskedRowError: if some row of ``mask`` has no True entry; it
        names the row's index within its matrix.
    """
    s = as_matrices(scores, "scores")
    m = np.asarray(mask, dtype=bool)
    if m.shape != s.shape:
        raise ValueError(f"mask shape {m.shape} does not match scores shape {s.shape}")
    row_has_any = m.any(axis=-1)
    if not row_has_any.all():
        first = np.unravel_index(np.argmin(row_has_any), row_has_any.shape)
        raise FullyMaskedRowError(int(first[-1]))
    row_max = np.where(m, s, -np.inf).max(axis=-1, keepdims=True)
    out = np.where(m, s, row_max)
    # a shift of two finite scores can overflow to -inf, which exp takes to
    # the correct 0; the row-max cell is exp(0) = 1, so every row sum is >= 1
    # and every cell lies in [0, 1]: the output needs no finite check
    with np.errstate(over="ignore"):
        out -= row_max
    np.exp(out, out=out)
    out *= m
    out /= out.sum(axis=-1, keepdims=True)
    return out
