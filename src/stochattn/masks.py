"""Who attends to whom: the window-key table and dense binary masks.

``window_keys`` is the one banded table that every windowed route reads.
Dense (n, n) boolean masks, True where query row i may attend to key column
j, are its independent test oracle, the input of spectra, and what mask
images draw.

Window conventions:

* ``CAUSAL_ONE_SIDED``: j in window of i iff 0 <= i - j <= w-1. Already
  causal; exactly w ones per row away from the start of the sequence.
* ``SYMMETRIC_CIRCULAR``: circular offsets (j - i) mod n in
  {-(ceil(w/2)-1), ..., floor(w/2)}. The asymmetric offset set has size
  exactly w, so every row and every column carries exactly w ones (for odd
  w it is the symmetric set {-(w-1)/2, ..., (w-1)/2} and the mask is
  symmetric; for even w the extra +w/2 offset makes the mask w-regular but
  not symmetric).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .permute import Permutation


class Convention(enum.Enum):
    CAUSAL_ONE_SIDED = "causal"
    SYMMETRIC_CIRCULAR = "circular"


class WindowSpec(NamedTuple):
    """Window size plus the neighborhood convention it is interpreted under."""

    w: int
    convention: Convention = Convention.SYMMETRIC_CIRCULAR

    def offsets(self) -> tuple[int, int]:
        """(back, fwd): the window covers offsets -back..+fwd inclusive."""
        if self.convention is Convention.CAUSAL_ONE_SIDED:
            return self.w - 1, 0
        return (self.w - 1) // 2, self.w // 2


def check_window(n: int, w: int) -> None:
    """Reject a window size outside 1..n: every routine that takes a
    sequence length and a window checks them here."""
    if not 1 <= w <= n:
        raise ValueError(f"window size must satisfy 1 <= w <= n, got w={w}, n={n}")


def window_keys(n: int, spec: WindowSpec, inverse=None) -> np.ndarray:
    """(..., n+w-1) table of the token at each extended slot; slot s's window
    is entries s..s+w-1. ``inverse`` is the token at each slot (identity when
    None) or a ``(..., n)`` batch. Circular slots wrap mod n; one-sided slots
    before 0 hold the pad n, later than any token, so keys <= i drops them."""
    check_window(n, spec.w)
    tokens = np.arange(n) if inverse is None else np.asarray(inverse)
    if tokens.shape[-1] != n:
        raise ValueError(f"permutation size {tokens.shape[-1]} does not match n={n}")
    back, fwd = spec.offsets()
    head = (np.full(tokens.shape[:-1] + (back,), n, dtype=tokens.dtype)
            if spec.convention is Convention.CAUSAL_ONE_SIDED else tokens[..., n - back:])
    return np.concatenate([head, tokens, tokens[..., :fwd]], axis=-1)


def window_neighbours(n: int, spec: WindowSpec, p: Permutation | None = None) -> np.ndarray:
    """(n, w) table: row i is the ``window_keys`` window of slot ``p.forward[i]``
    (slot i when ``p`` is None), each pad replaced by token i. Scattered, the
    rows are those of ``build_window_mask`` or ``build_stochastic_mask``.
    Causality on original tokens is the caller's: keep the entries <= i."""
    keys = window_keys(n, spec, None if p is None else p.inverse)
    slot = np.arange(n) if p is None else p.forward
    table = keys[slot[:, None] + np.arange(spec.w)]
    return np.where(table < n, table, np.arange(n)[:, None])


def build_window_mask(n: int, spec: WindowSpec) -> np.ndarray:
    """Local window mask in sequence order (no permutation applied)."""
    check_window(n, spec.w)
    # bit (i, j) depends on j - i only: band[k] is the bit for j - i = k-(n-1),
    # and row i is band[n-1-i : 2n-1-i]
    diff = np.arange(-(n - 1), n)
    if spec.convention is Convention.CAUSAL_ONE_SIDED:
        band = (diff <= 0) & (diff > -spec.w)
    else:
        back, fwd = spec.offsets()
        off = diff % n
        band = (off <= fwd) | (off >= n - back)
    return np.lib.stride_tricks.sliding_window_view(band, n)[::-1].copy()


def build_stochastic_mask(n: int, spec: WindowSpec, p: Permutation) -> np.ndarray:
    """Window mask evaluated on permuted indices: bit(i,j) = window(p(i), p(j)).

    Turns the fixed local window into a random global neighborhood; under a
    uniform permutation each fixed off-diagonal pair is connected with
    probability (w-1)/(n-1). Causality is NOT applied here; compose with
    intersect_causal for autoregressive use.
    """
    if p.n != n:
        raise ValueError(f"permutation size {p.n} does not match n={n}")
    base = build_window_mask(n, spec)
    return base[np.ix_(p.forward, p.forward)]


def intersect_causal(m: np.ndarray) -> np.ndarray:
    """Keep only entries with key position <= query position; force diagonal.

    Positions are original sequence order regardless of how ``m`` was built,
    so applying this to a permuted-window mask yields the autoregressive
    stochastic mask. The forced diagonal guarantees no row is fully masked.
    """
    m = np.asarray(m, dtype=bool)
    n = m.shape[0]
    out = m & (np.arange(n)[None, :] <= np.arange(n)[:, None])
    np.fill_diagonal(out, True)
    return out


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Undirected version of a mask: edge present if either direction is."""
    m = np.asarray(m, dtype=bool)
    return m | m.T


def mask_to_csv(m: np.ndarray, path, meta: str) -> None:
    """Dump a mask as rows of comma-separated 0/1 after a leading '#'
    metadata comment line."""
    m = np.asarray(m, dtype=np.uint8)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# {meta}\n")
        for row in m:
            fh.write(",".join("1" if b else "0" for b in row))
            fh.write("\n")


def mask_to_pgm(m: np.ndarray, path, meta: str) -> None:
    """Dump a mask as a binary (P5) PGM image, one byte per cell, with a
    '#' metadata comment line in its header.

    Unmasked cells are 255 (white), masked cells 0 (black), row-major in
    query order from the top.
    """
    m = np.asarray(m, dtype=bool)
    n_rows, n_cols = m.shape
    header = f"P5\n# {meta}\n{n_cols} {n_rows}\n255\n"
    body = np.where(m, np.uint8(255), np.uint8(0)).tobytes()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(body)
