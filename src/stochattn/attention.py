"""Attention kernels: masked full attention, sliding-window attention (SWA),
stochastic attention (SA = permute -> windowed attention -> un-permute),
rotary embeddings on original positions (row p at position p), gated
SA+SWA fusion, and an analytic backward pass for the masked core.

``swa_forward`` and ``sa_forward`` share one banded windowed-attention core
(``_windowed_attention``): the keys are extended by the window's w-1
offsets (wrapped slots for the circular window, masked pads before slot 0
for the one-sided one), rows run in blocks of b = max(1, w // 4) slots, and
each block scores its span of b+w-1 extended keys with one matmul and
softmaxes only its w-wide band. A call evaluates n*(b+w-1) score cells per
head and never builds an n x n array. ``sa_forward`` genuinely routes
through permuted space: each chunk of permuted slots gathers its rows from
token order, and its outputs are scattered back. The dense masked core
``attention_forward`` is kept as the independent oracle: full attention
under ``intersect_causal(build_stochastic_mask(...))`` must agree with
``sa_forward`` to 1e-12. It takes one head or a stack ``(..., n, d_h)``
under one shared ``(n, n)`` mask, so the gradient audit evaluates many
finite-difference bumps in one call; ``attention_backward`` takes one head.

The windowed kernels, ``rope_apply`` and ``permute_rows`` take one head
``(n, d_h)`` or a head stack ``(h, n, d_h)``. A stack runs in one pass, with
each chunk's validity mask built once for all heads and one batched matmul
for its scores and one for its values; every head's result is bit-identical
to running it alone. The kernels return a stack in token-major memory.
Their scratch (scores, bands, transposed keys, key/value and query rows)
is carved from one workspace that each thread keeps between calls, up to
4 MiB: freed scratch goes back to the system and would be faulted in again
page by page on the next call. Their output is always a fresh array.
``dual_path_layer`` runs each stage once per layer on the stack: q and k
are projected into the two halves of one array, one ``rope_apply`` call
rotates both as a ``(2h, n, d_h)`` stack, and each path's heads join
without a copy. The layer uses one extra thread: a worker, made on the
first call and kept by the process, runs the v projection, ``sa_forward``
and the SA gate while the calling thread runs the q/k projections with
RoPE, ``swa_forward`` and the SWA gate, with a join after each pair. The
calling thread allocates every large array the worker writes (glibc would
keep the worker's freed pages in an arena of its own). The kernels
themselves run on one thread each.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .masks import Convention, WindowSpec
from .numerics import (
    MC_CHUNK_BYTES,
    SeededRng,
    as_matrices,
    as_matrix,
    masked_row_softmax,
    sigmoid_in_place,
    trial_chunks,
)
from .permute import Permutation, sample_permutation


@dataclass(frozen=True)
class AttentionInputs:
    """Query/key/value matrices of one head ``(n, d_h)`` or a head stack
    ``(h, n, d_h)``, rows in original token order."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        q = as_matrices(self.q, "q")
        k = as_matrices(self.k, "k")
        v = as_matrices(self.v, "v")
        if not (q.shape == k.shape == v.shape):
            raise ValueError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.q.shape[-2]

    @property
    def d_h(self) -> int:
        return self.q.shape[-1]


@dataclass(frozen=True)
class GateParams:
    """Weights of the two independent sigmoid gates of the dual-path layer."""

    w_gate_swa: np.ndarray
    w_gate_sa: np.ndarray

    def __post_init__(self):
        for name in ("w_gate_swa", "w_gate_sa"):
            w = as_matrix(getattr(self, name), name)
            if w.shape[0] != w.shape[1]:
                raise ValueError(f"{name} must be square, got {w.shape}")
            object.__setattr__(self, name, w)
        if self.w_gate_swa.shape != self.w_gate_sa.shape:
            raise ValueError("gate matrices must share a shape")

    @property
    def d(self) -> int:
        return self.w_gate_swa.shape[0]


def _check_rope_base(base) -> float:
    base = float(base)
    if not 0.0 < base < np.inf:
        raise ValueError(f"rotary base must be finite and > 0, got {base}")
    return base


@dataclass(frozen=True)
class LayerConfig:
    """Shape parameters of one dual-path attention sublayer."""

    d: int
    h: int
    w: int
    rope_base: float = 10000.0

    def __post_init__(self):
        if self.d < 1 or self.h < 1 or self.d % self.h != 0:
            raise ValueError(f"model width d={self.d} must be a positive multiple of h={self.h}")
        if self.w < 1:
            raise ValueError(f"window size must be >= 1, got {self.w}")
        _check_rope_base(self.rope_base)

    @property
    def d_h(self) -> int:
        return self.d // self.h


def attention_forward(
    inp: AttentionInputs,
    mask: np.ndarray,
    return_weights: bool = False,
):
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
    y = weights @ inp.v
    if return_weights:
        return y, weights
    return y


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


def _windowed_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    w: int,
    keys: np.ndarray,
    rows: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Windowed attention of query slots 0..n-1 over extended key rows.

    Query slot i sees the w extended key rows i .. i+w-1, one per window
    offset. ``keys`` (n+w-1,) is the token of each extended row, ``n`` (later
    than every token) for a pad, and ``rows`` (n,) the token of each query
    slot, None for slot i = token i. A band cell is valid when its key token
    is at or before its query token; every query's window holds its own
    token. q, k, v are token-ordered ``(..., n, d_h)``: one head or a head
    stack, strided views allowed. With ``rows`` None the extended rows are
    read in place wherever they hold no pad; otherwise each chunk of slots
    gathers its query and key rows and scatters its outputs back.

    Rows run in blocks of ``b = max(1, w // 4)``: block [s, s+b) scores its
    key span [s, s+b+w-1) with one matmul, so a call evaluates n*(b+w-1)
    score cells per head. Chunks of blocks, sized by ``trial_chunks``, run as
    one batched matmul for the scores and one for the values over strided
    span views. The softmax runs on each block's w-wide band only; the value
    product reads the span-wide weights, zero off the band. Every head
    shares the slots and masks, and gets the result it gets alone. The
    chunks' scratch comes from ``_workspace``: this thread's kept buffer,
    or one of the call's own when the plan needs more than
    ``_SCRATCH_KEEP_BYTES``. Returns a fresh ``(..., n, d_h)`` array, never
    scratch, whose memory is token-major ``(n, ..., d_h)``; or, when given,
    ``out``, a ``(..., n, d_h)`` float64 array that a gathering call (``rows``
    given) fills through row scatters, whatever its layout.
    """
    lead, (n, d_h) = q.shape[:-2], q.shape[-2:]
    stack, b = math.prod(lead), max(1, w // 4)
    scale = 1.0 / np.sqrt(d_h)
    valid = as_strided(keys, (n, w), keys.strides * 2) <= (
        np.arange(n) if rows is None else rows)[:, None]
    row_masked = ~valid.all(axis=1)
    if rows is not None:
        # pads read the last token; gathers read C-ordered or token-major
        # inputs, and any other layout is copied once here
        keys = np.minimum(keys, n - 1)
        q, k, v = (x if x.flags.c_contiguous or _token_major(x).flags.c_contiguous
                   else np.ascontiguousarray(x) for x in (q, k, v))
    full, tail = divmod(n, b)
    # the blocks whose keys reach before token 0 form chunks of their own, so
    # that the later ones read their keys in place and need no mask
    cuts = [0, full] if rows is not None else [0, min(full, -(-(w - 1) // b)), full]
    # a chunk holds as many blocks' scores and bands as the byte budget allows
    chunks = [(b * (a + lo), hi - lo, b) for a, z in zip(cuts, cuts[1:])
              for lo, hi in trial_chunks(z - a, 8 * stack * b * (b + 2 * w - 1))]
    if tail:
        chunks.append((full * b, 1, tail))
    # flat buffers for the scores, the bands, the transposed keys, the key or
    # value rows and the query rows of the largest chunk; a chunk views
    # their starts
    nq_max = max(g * bb for _, g, bb in chunks)
    nk_max = nq_max + w - 1
    scores_buf, t_buf, kt_buf, kv_buf, qy_buf = _workspace(*(stack * size for size in (
        nq_max * (b + w - 1), nq_max * w, d_h * nk_max, nk_max * d_h, nq_max * d_h)))
    if out is None:
        out = np.empty((n,) + lead + (d_h,)).transpose(*range(1, len(lead) + 1), 0,
                                                        len(lead) + 1)

    def part(buf, *shape):
        """C-ordered ``lead + shape`` view of the start of a flat buffer."""
        return buf[:stack * math.prod(shape)].reshape(lead + shape)

    def extended(x, r0, nk, buf):
        """The chunk's nk extended rows of k or v from r0 on: gathered, or
        padded before token 0, into buf, or read in place. Gathered rows are
        head-major C-ordered whatever x's layout, because the product of a
        one-row block depends on its operands' layout."""
        if rows is not None:
            return _gather_rows(x, keys[r0:r0 + nk], buf)
        if r0 >= w - 1:
            return x[..., r0 - w + 1:r0 - w + 1 + nk, :]
        buf[..., :w - 1 - r0, :] = 0.0
        buf[..., w - 1 - r0:, :] = x[..., :r0 + nk - w + 1, :]
        return buf

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
            if row_masked[r0:r0 + nq].any():
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


def _check_window(n: int, w: int) -> None:
    if not 1 <= w <= n:
        raise ValueError(f"window size must satisfy 1 <= w <= n, got w={w}, n={n}")


def swa_forward(inp: AttentionInputs, w: int) -> np.ndarray:
    """Causal sliding-window attention: each token sees the previous w tokens
    (itself included). Returns the shape of ``inp.v``, one head or a stack;
    a stack's memory is token-major ``(n, h, d_h)``."""
    n = inp.n
    _check_window(n, w)
    keys = np.arange(1 - w, n)
    keys[:w - 1] = n
    return _windowed_attention(inp.q, inp.k, inp.v, w, keys)


def sa_forward(
    inp: AttentionInputs,
    w: int,
    p: Permutation,
    convention: Convention = Convention.SYMMETRIC_CIRCULAR,
    *,
    _out: np.ndarray | None = None,
) -> np.ndarray:
    """Stochastic attention: permute rows, run windowed attention in the
    permuted order, un-permute the result.

    The window is evaluated on permuted slots while the causal constraint is
    evaluated on original token positions, so autoregressive validity is
    preserved even though each token's neighborhood is a random subset of
    the sequence.

    Convention notes: the default circular window is the one the stochastic
    mask is defined with (causality comes only from original positions, and
    w >= n degenerates to full causal attention for any permutation). The
    one-sided convention additionally orders permuted slots; it collapses to
    ``swa_forward`` exactly at the identity permutation.

    Each chunk of permuted slots gathers its queries and its window's keys
    and values straight from the token-ordered inputs (the extended key
    rows: wrapped slots for the circular window, masked pads before slot 0
    for the one-sided one) and scatters its outputs back to token order, so
    nothing is permuted whole. Every head shares ``p``; a stack's result is
    in token-major memory ``(n, h, d_h)``. ``_out`` is private to
    ``dual_path_layer``, which runs this on its worker thread: the result is
    written into that caller-allocated array of the result's shape instead.
    """
    n = inp.n
    if p.n != n:
        raise ValueError(f"permutation size {p.n} does not match sequence length {n}")
    _check_window(n, w)
    back, fwd = WindowSpec(w, convention).offsets()
    slots = np.arange(-back, n + fwd)
    if convention is Convention.SYMMETRIC_CIRCULAR:
        slots %= n
    keys = np.where(slots < 0, n, p.inverse[slots])
    return _windowed_attention(inp.q, inp.k, inp.v, w, keys, p.inverse, _out)


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
    out = np.empty(x.shape[:-1] + (d_h // 2,), dtype=np.complex128)
    np.multiply(x.view(np.complex128), table, out=out)
    return out.view(np.float64)


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


def _both(f, f_args, g, g_args):
    """``(f(*f_args), g(*g_args))``: f runs on the worker thread while this
    thread runs g, and both are done on return.

    f runs in a copy of this thread's context, so it sees the caller's
    ``np.errstate``. g is the half that serial code runs first: when both
    raise, g's error is the one raised.
    """
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor
            _pool = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="stochattn"))
        pool = _pool[1]
    done = pool.submit(contextvars.copy_context().run, f, *f_args)
    try:
        g_out = g(*g_args)
    except BaseException:
        done.exception()
        raise
    return done.result(), g_out


def _gated(y: np.ndarray, w_gate: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sigmoid(y @ w_gate^T) * y, into ``out`` when given."""
    gate = sigmoid_in_place(np.matmul(y, w_gate.T, out=out))
    gate *= y
    return gate


def gated_fusion(y_swa: np.ndarray, y_sa: np.ndarray, g: GateParams) -> np.ndarray:
    """Combine the two attention paths with independent sigmoid gates.

    y = sigmoid(y_swa @ W_swa^T) * y_swa + sigmoid(y_sa @ W_sa^T) * y_sa,
    per token and per dimension. The gates are independent (not a softmax
    split), so both paths can be up- or down-weighted simultaneously; there
    is no bias term. The two gated terms are computed at the same time: the
    SWA term on the calling thread, the SA term on the layer's worker thread
    (see ``dual_path_layer``), into an array this thread allocates.
    """
    y_swa = as_matrix(y_swa, "y_swa")
    y_sa = as_matrix(y_sa, "y_sa")
    if y_swa.shape != y_sa.shape:
        raise ValueError(f"path outputs disagree: {y_swa.shape} vs {y_sa.shape}")
    if y_swa.shape[1] != g.d:
        raise ValueError(f"gate width {g.d} does not match output width {y_swa.shape[1]}")
    out, gated_swa = _both(_gated, (y_sa, g.w_gate_sa, np.empty(y_sa.shape)),
                           _gated, (y_swa, g.w_gate_swa))
    out += gated_swa
    return out


def dual_path_layer(
    x: np.ndarray,
    cfg: LayerConfig,
    g: GateParams,
    rng: SeededRng,
    projections: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """One dual-path attention sublayer: SWA and SA side by side, fused.

    Rotary embeddings on original positions, then both the causal
    sliding-window path and the stochastic path (one fresh permutation per
    call, shared across heads), head outputs concatenated per path and the
    two paths combined by ``gated_fusion``. Every stage runs once on the
    head stack ``(h, n, d_h)``: q and k are projected into the two halves of
    one ``(n, 2d)`` array and rotated by one ``rope_apply`` call on its
    ``(2h, n, d_h)`` stack. Q/K/V projections default to the identity; there
    is no output projection, MLP or normalization here: this is an
    attention-sublayer reference, not a trainable block.

    The layer's independent halves run side by side: this thread runs one,
    and one worker thread, shared by every layer call of the process, runs
    the other. There are three phases, each joined before the next starts:
    this thread projects q and k and rotates them while the worker projects
    v; this thread runs ``swa_forward`` while the worker runs
    ``sa_forward``; and ``gated_fusion`` computes its two gates the same
    way. The permutation is drawn here, before them. The worker allocates no
    large array: it writes v, the SA output and the SA gate into arrays
    this thread allocated. glibc gives a second thread an arena of its own,
    which keeps freed pages, so arrays allocated there would raise the
    process's memory. The joins drop each intermediate once it is consumed,
    as serial code does; only v is made beside q and k instead of after
    RoPE. The output is bit-identical to running the stages one after
    another.
    """
    x = as_matrix(x, "x")
    n, d = x.shape
    if d != cfg.d:
        raise ValueError(f"input width {d} does not match config width {cfg.d}")
    if g.d != cfg.d:
        raise ValueError("gate width does not match config width")
    if not 1 <= cfg.w <= n:
        raise ValueError(f"window size {cfg.w} invalid for sequence length {n}")
    if projections is not None:
        wq, wk, wv = (as_matrix(m, "projection") for m in projections)

    def heads(full):
        """Head-major (full.shape[1] // d_h, n, d_h) view of an (n, *) array."""
        return full.reshape(n, -1, cfg.d_h).transpose(1, 0, 2)

    def merged(y):
        """(n, d) view of a kernel's head stack, heads side by side: the
        kernels return token-major memory."""
        return y.transpose(1, 0, 2).reshape(n, d)

    def rotated(qk_full):
        return rope_apply(heads(qk_full), cfg.rope_base)

    def projected_and_rotated():
        qk_full = np.empty((n, 2 * d))
        np.matmul(x, wq, out=qk_full[:, :d])
        np.matmul(x, wk, out=qk_full[:, d:])
        return rotated(qk_full)

    perm = sample_permutation(n, rng)
    # q and k are the two disjoint halves of one stack. They must never
    # share a buffer: numpy's matmul computes q @ q.T through BLAS syrk,
    # which is not bit-identical to the general product of the per-head route.
    if projections is None:
        v, qk = x, rotated(np.hstack([x, x]))
    else:
        v = np.empty((n, d))
        _, qk = _both(np.matmul, (x, wv, v), projected_and_rotated, ())
    inp = AttentionInputs(qk[:cfg.h], qk[cfg.h:], heads(v))
    del qk, v
    y_sa = np.empty((n, d))
    sa = functools.partial(sa_forward, _out=heads(y_sa))
    _, y_swa = _both(sa, (inp, cfg.w, perm, Convention.CAUSAL_ONE_SIDED),
                     swa_forward, (inp, cfg.w))
    del inp
    return gated_fusion(merged(y_swa), y_sa, g)
