"""Attention kernels: masked full attention, sliding-window attention (SWA),
stochastic attention (SA = permute -> windowed attention -> un-permute),
rotary embeddings on original positions (row p at position p), gated
SA+SWA fusion, and an analytic backward pass for the masked core.

``swa_forward`` and ``sa_forward`` share one banded windowed-attention core,
a block plan (``_BlockPlan``) over the extended slots of ``masks.window_keys``
(wrapped for the circular window, masked pads before slot 0 for the
one-sided one): rows run in blocks of b = max(1, w // 4) slots, and each
block scores its span of b+w-1 extended keys with one matmul and softmaxes
only its w-wide band. A call evaluates n*(b+w-1) score cells per head and
never builds an n x n array. A plan holds what a call decides once
(the token of each extended key row and query slot, the band's validity,
the chunks of blocks) and runs any range of slots whose ends are block
boundaries; each kernel runs all of its plan on the calling thread.
``sa_forward`` genuinely routes through permuted space: each chunk of
permuted slots gathers its rows from token order, and its outputs are
scattered back. The dense masked core ``attention_forward`` is kept as the
independent oracle: full attention under
``intersect_causal(build_stochastic_mask(...))`` must agree with
``sa_forward`` to 1e-12. It takes one head or a stack ``(..., n, d_h)``
under one shared ``(n, n)`` mask, so the gradient audit evaluates many
finite-difference bumps in one call; ``attention_backward`` takes one head.

The windowed kernels and ``rope_apply`` take one head ``(n, d_h)`` or a
head stack ``(h, n, d_h)``. A stack runs in one pass, with
each chunk's validity mask built once for all heads and one batched matmul
for its scores and one for its values; every head's result is bit-identical
to running it alone. The kernels return a stack in token-major memory.
Their scratch (scores, bands, transposed keys, key/value and query rows)
is carved from one workspace that each thread keeps between calls, up to
4 MiB: freed scratch goes back to the system and would be faulted in again
page by page on the next call. Their output is always a fresh array.
``dual_path_layer`` takes its three (d, d) projections as a required
argument and has one front end. It is data-parallel over rows, on the
calling thread and one worker thread made on the first call and kept by
the process: each of its three phases (projections with RoPE, both paths'
attention, the gated fusion) runs the same code on two halves of the rows,
[0, cut) here and [cut, n) on the worker, into arrays the calling thread
allocated (glibc would keep the worker's freed pages in an arena of its
own). The attention phase runs each half of the chunks of two plans, one
per path, built once on the calling thread.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .masks import Convention, WindowSpec, check_window, window_keys
from .numerics import (
    MC_CHUNK_BYTES,
    Frozen,
    SeededRng,
    as_matrices,
    as_matrix,
    masked_row_softmax,
    sigmoid_in_place,
    trial_chunks,
)
from .permute import Permutation, sample_permutation


class AttentionInputs(Frozen):
    """Query/key/value matrices of one head ``(n, d_h)`` or a head stack
    ``(h, n, d_h)``, rows in original token order."""

    __slots__ = ("q", "k", "v")

    def __init__(self, q, k, v):
        q, k, v = as_matrices(q, "q"), as_matrices(k, "k"), as_matrices(v, "v")
        if not (q.shape == k.shape == v.shape):
            raise ValueError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
        self.q, self.k, self.v = q, k, v

    @property
    def n(self) -> int:
        return self.q.shape[-2]

    @property
    def d_h(self) -> int:
        return self.q.shape[-1]


class GateParams(Frozen):
    """Weights of the two independent sigmoid gates of the dual-path layer."""

    # _transposed is (W_swa^T, W_sa^T), C-ordered: a product through a
    # transposed operand takes a BLAS kernel that depends on the row count at
    # small sizes, so its row halves would not round as the whole does
    __slots__ = ("w_gate_swa", "w_gate_sa", "_transposed")

    def __init__(self, w_gate_swa, w_gate_sa):
        ws = as_matrix(w_gate_swa, "w_gate_swa"), as_matrix(w_gate_sa, "w_gate_sa")
        for name, w in zip(("w_gate_swa", "w_gate_sa"), ws):
            if w.shape[0] != w.shape[1]:
                raise ValueError(f"{name} must be square, got {w.shape}")
        if ws[0].shape != ws[1].shape:
            raise ValueError("gate matrices must share a shape")
        self.w_gate_swa, self.w_gate_sa = ws
        self._transposed = tuple(np.ascontiguousarray(w.T) for w in ws)

    @property
    def d(self) -> int:
        return self.w_gate_swa.shape[0]


def _check_rope_base(base) -> float:
    base = float(base)
    if not 0.0 < base < np.inf:
        raise ValueError(f"rotary base must be finite and > 0, got {base}")
    return base


class LayerConfig(Frozen):
    """Shape parameters of one dual-path attention sublayer, a hashable value."""

    __slots__ = ("d", "h", "w", "rope_base")

    def __init__(self, d: int, h: int, w: int, rope_base: float = 10000.0):
        if d < 1 or h < 1 or d % h != 0:
            raise ValueError(f"model width d={d} must be a positive multiple of h={h}")
        if d // h % 2 != 0:
            raise ValueError(f"rotary embedding needs an even head width, got "
                             f"d_h={d // h} (d={d}, h={h})")
        self.d, self.h, self.w, self.rope_base = d, h, w, _check_rope_base(rope_base)

    def _values(self) -> tuple:
        return self.d, self.h, self.w, self.rope_base

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "LayerConfig(d={!r}, h={!r}, w={!r}, rope_base={!r})".format(*self._values())

    @property
    def d_h(self) -> int:
        return self.d // self.h


def attention_forward(inp: AttentionInputs, mask: np.ndarray) -> np.ndarray:
    """Masked scaled-dot-product attention of one head ``(n, d_h)`` or a
    stack ``(..., n, d_h)`` under one shared ``(n, n)`` mask.

    Scores are q_i . k_j / sqrt(d_h); rows are softmaxed over
    unmasked entries only, so masked weights are exactly zero and every
    output row is a convex combination of unmasked value rows. Each matrix
    of a stack gives a result bit-identical to its own call.
    """
    n = inp.n
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n, n):
        raise ValueError(f"mask shape {mask.shape} does not match ({n}, {n})")
    scale = 1.0 / np.sqrt(inp.d_h)
    scores = (inp.q @ np.swapaxes(inp.k, -1, -2)) * scale
    weights = masked_row_softmax(scores, np.broadcast_to(mask, scores.shape))
    return weights @ inp.v


def attention_backward(
    inp: AttentionInputs,
    mask: np.ndarray,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of ``attention_forward`` w.r.t. q, k, v.

    Uses the softmax Jacobian restricted to unmasked entries:
    dS = A * (dA - rowsum(dA * A)), which vanishes at masked positions
    because A does.
    """
    if inp.q.ndim != 2:
        raise ValueError(f"the dense backward takes one head (n, d_h), got {inp.q.shape}")
    upstream = as_matrix(upstream, "upstream")
    if upstream.shape != inp.q.shape:
        raise ValueError("upstream gradient must match the output shape")
    scale = 1.0 / np.sqrt(inp.d_h)
    scores = (inp.q @ inp.k.T) * scale
    weights = masked_row_softmax(scores, mask)

    dv = weights.T @ upstream
    d_weights = upstream @ inp.v.T
    row_dot = (d_weights * weights).sum(axis=1, keepdims=True)
    d_scores = weights * (d_weights - row_dot)
    dq = (d_scores @ inp.k) * scale
    dk = (d_scores.T @ inp.q) * scale
    return dq, dk, dv


def _spans(x: np.ndarray, g: int, rows: int, step: int) -> np.ndarray:
    """Read-only ``(..., g, rows, cols)`` view of ``(..., m, cols)``: block j
    holds rows ``j*step .. j*step + rows - 1``, which the caller keeps inside
    x. Blocks overlap where ``rows > step``."""
    *lead, row, col = x.strides
    return as_strided(x, x.shape[:-2] + (g, rows, x.shape[-1]), (*lead, step * row, row, col),
                      writeable=False)


def _band(x: np.ndarray, w: int) -> np.ndarray:
    """``(..., rows, w)`` view of ``(..., rows, rows+w-1)`` blocks: row i holds
    columns i .. i+w-1."""
    *lead, row, col = x.strides
    return as_strided(x, x.shape[:-1] + (w,), (*lead, row + col, col))


def _token_major(x: np.ndarray) -> np.ndarray:
    """``(n, ..., d)`` view of a matrix or stack ``(..., n, d)``."""
    return x.transpose(x.ndim - 2, *range(x.ndim - 2), x.ndim - 1)


def _gather_rows(x: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[..., j, :] = x[..., idx[j], :]`` with one ``np.take`` of whole
    rows, into a C-ordered ``out``. x is C-ordered, or a stack in token-major
    memory (an ``(h, n, d_h)`` view of an ``(n, h*d_h)`` projection, say);
    idx holds valid rows. Returns out."""
    (n, d), stack = x.shape[-2:], math.prod(x.shape[:-2])
    if x.flags.c_contiguous:
        src, at = x.reshape(-1, d), np.arange(0, stack * n, n)[:, None] + idx
    else:
        src, at = _token_major(x).reshape(-1, d), idx * stack + np.arange(stack)[:, None]
    # mode "clip" writes straight into out, where "raise" would buffer it
    np.take(src, at.ravel(), axis=0, out=out.reshape(-1, d), mode="clip")
    return out


# Each thread keeps the windowed kernels' scratch between calls, up to this
# many bytes: freed scratch goes back to the system, and the next call would
# fault it in page by page again.
_SCRATCH_KEEP_BYTES = 4 * MC_CHUNK_BYTES
_scratch = threading.local()


def _workspace(*sizes: int) -> list[np.ndarray]:
    """Flat float64 buffers of the given sizes, each starting at a 64-byte
    boundary, carved out of one workspace. The workspace is this thread's
    kept one, grown when a call needs more; a workspace larger than
    ``_SCRATCH_KEEP_BYTES`` serves one call only and leaves the kept one as
    it is."""
    starts = [0]
    for size in sizes:
        starts.append(starts[-1] + -(-size // 8) * 8)   # 8 doubles: 64 bytes
    ws = getattr(_scratch, "buf", None)
    if ws is None or ws.size < starts[-1]:
        raw = np.empty(starts[-1] + 7)
        skip = -raw.ctypes.data % 64 // 8
        ws = raw[skip:skip + starts[-1]]
        if raw.nbytes <= _SCRATCH_KEEP_BYTES:
            _scratch.buf = ws
    return [ws[a:a + size] for a, size in zip(starts, sizes)]


class _BlockPlan:
    """The chunk plan of one windowed-attention call: query slots 0..n-1 over
    extended key rows.

    Query slot i sees the w extended key rows i .. i+w-1, one per window
    offset. ``keys`` (n+w-1,) is the token of each extended row, ``n`` (later
    than every token) for a pad, and ``rows`` (n,) the token of each query
    slot, None for slot i = token i. A band cell is valid when its key token
    is at or before its query token; every query's window holds its own
    token. ``keys`` is kept with each pad clipped to the last token, which
    the band's validity drops; a pad cell is still scored, so its overflow is
    rejected, as every masked cell's is. Without ``rows``, a span past the
    pads is read in place; every other chunk gathers its key rows through
    ``keys``, and with ``rows`` also its query rows, scattering its outputs
    back.

    Rows run in blocks of ``b = max(1, w // 4)``: block [s, s+b) scores its
    key span [s, s+b+w-1) with one matmul, so a call evaluates n*(b+w-1)
    score cells per head. Chunks of blocks, sized by ``trial_chunks`` for a
    stack of ``stack`` heads, run as one batched matmul for the scores and
    one for the values over strided span views. A plan is built once and
    read only, so two threads can run disjoint slot ranges of it at once
    (``run``); every slot's result is the same whatever range it runs in.
    """

    def __init__(self, w: int, keys: np.ndarray, rows: np.ndarray | None, stack: int):
        n = keys.size - w + 1
        b = max(1, w // 4)
        self.n, self.w, self.b, self.rows = n, w, b, rows
        full, tail = divmod(n, b)
        # without rows the pads are the w-1 extended rows before token 0: the blocks
        # whose keys reach them form chunks of their own, the only ones with a
        # mask, so that the later ones read their keys in place
        reach = -(-(w - 1) // b)
        m = n if rows is not None else min(n, b * reach)
        self.valid = as_strided(keys, (m, w), keys.strides * 2) <= (
            np.arange(m) if rows is None else rows)[:, None]
        self.row_masked = ~self.valid.all(axis=1)
        self.keys = np.minimum(keys, n - 1)
        cuts = [0, full] if rows is not None else [0, min(full, reach), full]
        # a chunk holds as many blocks' scores and bands as the byte budget allows
        self.chunks = [(b * (a + lo), hi - lo, b) for a, z in zip(cuts, cuts[1:])
                       for lo, hi in trial_chunks(z - a, 8 * stack * b * (b + 2 * w - 1))]
        if tail:
            self.chunks.append((full * b, 1, tail))

    def pieces(self, lo: int, hi: int) -> list[tuple[int, int, int]]:
        """The chunks ``(first slot, blocks, block rows)`` of slots [lo, hi),
        each a block boundary or n: the plan's chunks, cut at lo and hi."""
        out = []
        for r0, g, bb in self.chunks:
            a, z = max(r0, lo), min(r0 + g * bb, hi)
            if a < z:
                out.append((a, (z - a) // bb, bb))
        return out

    def splits_at(self, cut: int) -> bool:
        """Whether ``cut`` is a block boundary where no chunk splits off a
        lone one-row block."""
        for r0, g, bb in self.chunks:
            if r0 < cut < r0 + g * bb:
                blocks, rest = divmod(cut - r0, bb)
                return rest == 0 and (bb > 1 or 1 < blocks < g - 1)
        return True

    def extended(self, x: np.ndarray, r0: int, nk: int, buf: np.ndarray) -> np.ndarray:
        """The nk extended rows of k or v from extended row r0 on: in place past
        the pads of a plan without ``rows``, else gathered through ``keys`` into
        buf, head-major C-ordered whatever x's layout, because the product of a
        one-row block depends on its operands' layout."""
        if self.rows is None and r0 >= self.w - 1:
            return x[..., r0 - self.w + 1:r0 - self.w + 1 + nk, :]
        return _gather_rows(x, self.keys[r0:r0 + nk], buf)

    def forward(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Every chunk on this thread, into a fresh ``(..., n, d_h)`` array
        whose memory is token-major ``(n, ..., d_h)``. A gathering plan reads
        C-ordered or token-major inputs, and any other layout is copied once
        here."""
        lead, d_h = q.shape[:-2], q.shape[-1]
        if self.rows is not None:
            q, k, v = (x if x.flags.c_contiguous or _token_major(x).flags.c_contiguous
                       else np.ascontiguousarray(x) for x in (q, k, v))
        out = np.empty((self.n,) + lead + (d_h,)).transpose(*range(1, len(lead) + 1), 0,
                                                             len(lead) + 1)
        return self.run(q, k, v, out, 0, self.n)

    def run(self, q: np.ndarray, k: np.ndarray, v: np.ndarray, out: np.ndarray,
            lo: int, hi: int) -> np.ndarray:
        """Attention of slots [lo, hi) into ``out``; returns out.

        q, k, v are token-ordered ``(..., n, d_h)``: one head or a head stack,
        strided views allowed; a gather from one that is neither C-ordered
        nor token-major copies it whole first, as ``np.take`` does. ``out`` is
        a ``(..., n, d_h)`` float64 array that a gathering plan fills through row scatters, whatever its layout. The
        softmax runs on each block's w-wide band only; the value product
        reads the span-wide weights, zero off the band. Every head shares the
        slots and masks, and gets the result it gets alone. The chunks'
        scratch comes from ``_workspace``: this thread's kept buffer, or one
        of the call's own when the chunks need more than
        ``_SCRATCH_KEEP_BYTES``.
        """
        w, b, rows, valid, extended = self.w, self.b, self.rows, self.valid, self.extended
        lead, d_h = q.shape[:-2], q.shape[-1]
        stack = math.prod(lead)
        scale = 1.0 / np.sqrt(d_h)
        chunks = self.pieces(lo, hi)
        if not chunks:
            return out
        # flat buffers for the scores, the bands, the transposed keys, the key or
        # value rows and the query rows of the largest chunk; a chunk views
        # their starts
        nq_max = max(g * bb for _, g, bb in chunks)
        nk_max = nq_max + w - 1
        scores_buf, t_buf, kt_buf, kv_buf, qy_buf = _workspace(*(stack * size for size in (
            nq_max * (b + w - 1), nq_max * w, d_h * nk_max, nk_max * d_h, nq_max * d_h)))

        def part(buf, *shape):
            """C-ordered ``lead + shape`` view of the start of a flat buffer."""
            return buf[:stack * math.prod(shape)].reshape(lead + shape)

        for r0, g, bb in chunks:
            nq, nk, span = g * bb, g * bb + w - 1, bb + w - 1
            scores, t, kt, kv = (part(scores_buf, g, bb, span), part(t_buf, g, bb, w),
                                 part(kt_buf, d_h, nk), part(kv_buf, nk, d_h))
            if rows is None:
                qx, y = q[..., r0:r0 + nq, :], out[..., r0:r0 + nq, :]
            else:
                qx = y = _gather_rows(q, rows[r0:r0 + nq], part(qy_buf, nq, d_h))
            # the keys are copied transposed and pre-scaled: a matmul that reads
            # a transposed operand runs at half speed on these shapes
            np.multiply(np.swapaxes(extended(k, r0, nk, kv), -1, -2), scale, out=kt)
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(qx.reshape(lead + (g, bb, d_h)),
                          np.swapaxes(_spans(np.swapaxes(kt, -1, -2), g, span, bb), -1, -2),
                          out=scores)
            if not np.isfinite(scores).all():
                raise ValueError("scores contains NaN or Inf entries")
            band = _band(scores, w)
            # Two finite scores can differ by more than the largest double, and
            # exp takes the resulting -inf to the correct 0; weights may underflow.
            # Masked cells never reach exp as -inf: exp is several times slower
            # on -inf or underflowing input than on moderate input.
            with np.errstate(over="ignore", under="ignore"):
                if self.row_masked[r0:r0 + nq].any():
                    ok = valid[r0:r0 + nq].reshape(g, bb, w)
                    # masked cells are -inf for the row max only, then exp(0), then 0
                    np.add(band, np.where(ok, 0.0, -np.inf), out=t)
                    t -= t.max(axis=-1, keepdims=True)
                    np.maximum(t, np.where(ok, -np.inf, 0.0), out=t)
                    np.exp(t, out=t)
                    t *= ok
                else:
                    np.subtract(band, band.max(axis=-1, keepdims=True), out=t)
                    np.exp(t, out=t)
                # the scores buffer becomes the weights, zero off the band
                scores[...] = 0.0
                np.divide(t, t.sum(axis=-1, keepdims=True), out=band)
                # a gathering chunk's outputs overwrite its consumed query rows
                np.matmul(scores, _spans(extended(v, r0, nk, kv), g, span, bb),
                          out=y.reshape(lead + (g, bb, d_h)))
            if rows is not None:
                out[..., rows[r0:r0 + nq], :] = y
        return out


def _swa_plan(n: int, w: int, stack: int) -> _BlockPlan:
    """The plan of causal sliding-window attention: slot i is token i, and
    the w-1 extended rows before token 0 are pads."""
    return _BlockPlan(w, window_keys(n, WindowSpec(w, Convention.CAUSAL_ONE_SIDED)), None, stack)


def _sa_plan(p: Permutation, w: int, convention: Convention, stack: int) -> _BlockPlan:
    """The plan of stochastic attention: slot s holds token ``p.inverse[s]``,
    and the extended rows are the window's slots, wrapped for the circular
    window and pads before slot 0 for the one-sided one."""
    return _BlockPlan(w, window_keys(p.n, WindowSpec(w, convention), p.inverse), p.inverse, stack)


def swa_forward(inp: AttentionInputs, w: int) -> np.ndarray:
    """Causal sliding-window attention: each token sees the previous w tokens
    (itself included). Returns the shape of ``inp.v``, one head or a stack;
    a stack's memory is token-major ``(n, h, d_h)``. Runs every chunk of its
    plan on this thread."""
    check_window(inp.n, w)
    return _swa_plan(inp.n, w, math.prod(inp.q.shape[:-2])).forward(inp.q, inp.k, inp.v)


def sa_forward(inp: AttentionInputs, w: int, p: Permutation,
               convention: Convention) -> np.ndarray:
    """Stochastic attention: permute rows, run windowed attention in the
    permuted order, un-permute the result.

    The window is evaluated on permuted slots while the causal constraint is
    evaluated on original token positions, so autoregressive validity is
    preserved even though each token's neighborhood is a random subset of
    the sequence.

    Convention notes: the circular window is the one the stochastic mask is
    defined with (causality comes only from original positions, and w >= n
    degenerates to full causal attention for any permutation); ``checks``
    audits it against that mask. The one-sided convention additionally
    orders permuted slots; it is the one ``dual_path_layer`` runs. At the
    identity permutation it is ``swa_forward`` bit for bit, except at w <= 3
    where SWA's plan runs a lone one-row block (its last row at n = w), which
    rounds apart from the same row in this plan by at most about 1e-14.

    Each chunk of permuted slots gathers its queries and its window's keys
    and values straight from the token-ordered inputs and scatters its
    outputs back to token order, so nothing is permuted whole. Every head
    shares ``p``; a stack's result is in token-major memory ``(n, h, d_h)``.
    Runs every chunk of its plan on this thread.
    """
    n = inp.n
    if p.n != n:
        raise ValueError(f"permutation size {p.n} does not match sequence length {n}")
    check_window(n, w)
    return _sa_plan(p, w, convention, math.prod(inp.q.shape[:-2])).forward(inp.q, inp.k, inp.v)


@functools.lru_cache(maxsize=8)
def _rope_table(n: int, d_h: int, base: float) -> np.ndarray:
    """Read-only (n, d_h/2) complex table exp(i * p * base^(-2k/d_h)) of
    positions p = 0..n-1: cos and sin of large angles cost more than the
    rotation itself, and a model repeats lengths."""
    inv_freq = base ** (-np.arange(0, d_h, 2, dtype=np.float64) / d_h)
    ang = np.arange(n, dtype=np.float64)[:, None] * inv_freq[None, :]
    table = np.empty(ang.shape, dtype=np.complex128)
    np.cos(ang, out=table.real)
    np.sin(ang, out=table.imag)
    table.flags.writeable = False
    return table


def _rotate(x: np.ndarray, table: np.ndarray, out: np.ndarray) -> None:
    """Rows of ``x`` rotated by the matching rows of a ``_rope_table``, into
    ``out``: ``(..., rows, d_h)`` float64 arrays whose last axis is
    unit-stride, read and written as complex pairs in place."""
    np.multiply(x.view(np.complex128), table, out=out.view(np.complex128))


def rope_apply(x: np.ndarray, base: float) -> np.ndarray:
    """Rotary position embedding on consecutive coordinate pairs, row p at
    position p.

    Pair k of row p is rotated by angle p * base^(-2k/d_h), that is,
    ``x[2k] + i*x[2k+1]`` is multiplied by ``exp(i*p*base^(-2k/d_h))``
    (RoFormer). Rows are original token positions, so this must be applied
    before any permutation: the relative-offset property q_m . k_n ==
    q_{m+s} . k_{n+s} then refers to true sequence distances. ``x`` is
    ``(n, d_h)`` or a stack ``(..., n, d_h)``, which may be a strided view
    (a head-major view of an ``(n, d)`` projection, say); it is read as
    complex pairs in place, after a copy only if its last axis is not
    unit-stride. One complex table, cached per ``(n, d_h, base)``, serves
    the whole stack. The result is a new C-ordered array.
    """
    x = as_matrices(x, "x")
    n, d_h = x.shape[-2:]
    if d_h % 2 != 0:
        raise ValueError(f"rotary embedding needs an even head dimension, got {d_h}")
    table = _rope_table(n, d_h, _check_rope_base(base))
    if x.strides[-1] != x.itemsize:
        x = x.copy()
    out = np.empty(x.shape)
    _rotate(x, table, out)
    return out


# The layer's one worker thread: (process id, one-thread pool), made on the
# first call that needs it, when concurrent.futures is first imported. A
# forked child has no copy of the parent's thread, so a pool made by another
# process is replaced, not used.
_pool = None
_pool_lock = threading.Lock()
if hasattr(os, "register_at_fork"):
    # A fork holds the lock, so no child starts with it taken mid-update.
    # The hooks are the lock's own methods: a hook defined in this module
    # would keep its globals, and so the pool and its thread, alive after
    # the module is dropped and imported afresh.
    os.register_at_fork(before=_pool_lock.acquire, after_in_parent=_pool_lock.release,
                        after_in_child=_pool_lock.release)


def _halfway(n: int, plans: tuple[_BlockPlan, ...]) -> int:
    """Where the two halves of a stage meet: rows (and slots) [0, cut) and
    [cut, n). 0 when the stage runs whole on one thread.

    A half of one row would turn its products into matrix-vector products,
    which round differently from the whole-array product, so each half gets
    at least two rows. The cut is a block boundary of ``plans`` near n/2
    that leaves no piece of a chunk as a lone one-row block, whose product
    rounds differently from the same block beside others.
    """
    b = plans[0].b
    mid = n // (2 * b) * b
    for cut in (mid, mid + b, mid - b):
        if 2 <= cut <= n - 2 and all(plan.splits_at(cut) for plan in plans):
            return cut
    return 0


def _halves(fn, n: int, cut: int) -> None:
    """``fn(0, cut)`` on this thread while the worker thread runs
    ``fn(cut, n)``; both are done on return. With cut 0, ``fn(0, n)`` runs
    here alone.

    The worker runs in a copy of this thread's context, so it sees the
    caller's ``np.errstate``. When both halves raise, this thread's error is
    the one raised.
    """
    if cut == 0:
        fn(0, n)
        return
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor
            _pool = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="stochattn"))
        pool = _pool[1]
    done = pool.submit(contextvars.copy_context().run, fn, cut, n)
    try:
        fn(0, cut)
    except BaseException:
        done.exception()
        raise
    done.result()


def _fuse_rows(y_swa: np.ndarray, y_sa: np.ndarray, g: GateParams, out: np.ndarray,
               gate: np.ndarray, lo: int, hi: int) -> None:
    """Rows [lo, hi) of the gated fusion into ``out``, with ``gate`` (n, d)
    as scratch for the SA term."""
    for y, w_gate_t, dst in zip((y_swa, y_sa), g._transposed, (out, gate)):
        sigmoid_in_place(np.matmul(y[lo:hi], w_gate_t, out=dst[lo:hi]))
        dst[lo:hi] *= y[lo:hi]
    out[lo:hi] += gate[lo:hi]


def gated_fusion(y_swa: np.ndarray, y_sa: np.ndarray, g: GateParams) -> np.ndarray:
    """Combine the two attention paths with independent sigmoid gates.

    y = sigmoid(y_swa @ W_swa^T) * y_swa + sigmoid(y_sa @ W_sa^T) * y_sa,
    per token and per dimension. The gates are independent (not a softmax
    split), so both paths can be up- or down-weighted simultaneously; there
    is no bias term. All rows run on the calling thread.
    """
    y_swa = as_matrix(y_swa, "y_swa")
    y_sa = as_matrix(y_sa, "y_sa")
    if y_swa.shape != y_sa.shape:
        raise ValueError(f"path outputs disagree: {y_swa.shape} vs {y_sa.shape}")
    if y_swa.shape[1] != g.d:
        raise ValueError(f"gate width {g.d} does not match output width {y_swa.shape[1]}")
    out, gate = np.empty(y_swa.shape), np.empty(y_swa.shape)
    _fuse_rows(y_swa, y_sa, g, out, gate, 0, y_swa.shape[0])
    return out


def dual_path_layer(
    x: np.ndarray,
    cfg: LayerConfig,
    g: GateParams,
    rng: SeededRng,
    projections: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """One dual-path attention sublayer: SWA and SA side by side, fused.

    ``projections`` are the three (d, d) matrices (w_q, w_k, w_v), applied
    as ``x @ w``. Rotary embeddings on original positions, then both the
    causal sliding-window path and the stochastic path (one fresh
    permutation per call, shared across heads), head outputs joined per
    path and the two paths combined as ``gated_fusion`` combines them.
    Every stage runs on the head stack ``(h, n, d_h)``.
    There is no output projection, MLP or normalization here: this is an
    attention-sublayer reference, not a trainable block.

    The layer is data-parallel over rows: each of its three phases runs the
    same code on two halves, rows (or slots) [0, cut) on this thread and
    [cut, n) on one worker thread shared by every layer call of the
    process, joined before the next phase starts. This thread draws the
    permutation and builds one block plan per path first. Then each half
    projects its rows of q, k and v and rotates q and k from the cached
    RoPE table; runs its half of the chunks of both plans, SWA in token
    order and SA in permuted slots scattered back to their tokens; and
    computes its rows' two gated terms and their sum. Each half checks the
    rows it made (q, k and v, then both path outputs) for NaN and Inf with
    the one-line errors of ``as_matrices``. This thread allocates the
    three large arrays that every phase writes: glibc gives a second thread
    an arena of its own, which keeps freed pages, so arrays allocated there
    would raise the process's memory. The output is bit-identical to
    running every stage whole, one head at a time.
    """
    x = as_matrix(x, "x")
    n, d = x.shape
    if d != cfg.d:
        raise ValueError(f"input width {d} does not match config width {cfg.d}")
    if g.d != cfg.d:
        raise ValueError("gate width does not match config width")
    check_window(n, cfg.w)
    names = ("w_q", "w_k", "w_v")
    if len(projections) != 3:
        raise ValueError(f"projections must be the three matrices (w_q, w_k, w_v), "
                         f"got {len(projections)}")
    wq, wk, wv = (as_matrix(m, name) for m, name in zip(projections, names))
    for name, m in zip(names, (wq, wk, wv)):
        if m.shape != (d, d):
            raise ValueError(f"projection {name} must be ({d}, {d}), got {m.shape}")
    h, d_h = cfg.h, cfg.d_h

    def heads(full):
        """Head-major (full.shape[1] // d_h, n, d_h) view of an (n, *) array."""
        return full.reshape(n, -1, d_h).transpose(1, 0, 2)

    perm = sample_permutation(n, rng)
    plans = (_swa_plan(n, cfg.w, h), _sa_plan(perm, cfg.w, Convention.CAUSAL_ONE_SIDED, h))
    cut = _halfway(n, plans)
    table = _rope_table(n, d_h, cfg.rope_base)
    # Three arrays serve the whole call, each taking a second role once its
    # first is consumed: the [q | k] projections, then [y_swa | y_sa]; the
    # rotated (2h, n, d_h) q and k stack, then the SA gates; v, then the
    # output. q and k must never share a buffer: numpy's matmul computes
    # q @ q.T through BLAS syrk, which is not bit-identical to the general
    # product of the per-head route.
    pair, qk, v = np.empty((n, 2 * d)), np.empty((2 * h, n, d_h)), np.empty((n, d))

    def project(lo, hi):
        np.matmul(x[lo:hi], wq, out=pair[lo:hi, :d])
        np.matmul(x[lo:hi], wk, out=pair[lo:hi, d:])
        np.matmul(x[lo:hi], wv, out=v[lo:hi])
        _rotate(heads(pair)[:, lo:hi], table[lo:hi], qk[:, lo:hi])
        for rows, name in ((qk[:h, lo:hi], "q"), (qk[h:, lo:hi], "k"), (v[lo:hi], "v")):
            as_matrices(rows, name)

    _halves(project, n, cut)
    # each path's heads side by side, token-major, as the kernels write them
    y_swa, y_sa = pair[:, :d], pair[:, d:]

    def attend(lo, hi):
        for plan, y in zip(plans, (y_swa, y_sa)):
            plan.run(qk[:h], qk[h:], heads(v), heads(y), lo, hi)

    _halves(attend, n, cut)
    out, gate = v, qk.reshape(2 * n, d)[:n]

    def fuse(lo, hi):
        as_matrices(y_swa[lo:hi], "y_swa")
        as_matrices(y_sa[lo:hi], "y_sa")
        _fuse_rows(y_swa, y_sa, g, out, gate, lo, hi)

    _halves(fuse, n, cut)
    return out
