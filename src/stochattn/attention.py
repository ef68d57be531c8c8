"""Attention kernels: masked full attention, sliding-window attention (SWA),
stochastic attention (SA = permute -> windowed attention -> un-permute),
rotary embeddings on original positions, gated SA+SWA fusion, and an
analytic backward pass for the masked core.

``swa_forward`` and ``sa_forward`` share one blocked windowed-attention core
(``_windowed_attention``): rows are split into blocks of w slots and each
block attends to its key span of at most 2w-1 slots with one matmul, so a
call evaluates at most n*(2w-1) score cells per head and never builds an
n x n array. ``sa_forward`` genuinely routes through permuted space (gather,
windowed attention, scatter back). The dense masked core
``attention_forward`` is kept as the independent oracle: full attention
under ``intersect_causal(build_stochastic_mask(...))`` must agree with
``sa_forward`` to 1e-12. It takes one head or a stack ``(..., n, d_h)``
under one shared ``(n, n)`` mask, so the gradient audit evaluates many
finite-difference bumps in one call; ``attention_backward`` takes one head.

The windowed kernels, ``rope_apply`` and ``permute_rows`` take one head
``(n, d_h)`` or a head stack ``(h, n, d_h)``. A stack runs in one pass, with
each block's validity mask built once for all heads and one batched matmul
for its scores and one for its values; every head's result is bit-identical
to running it alone. ``dual_path_layer`` runs each stage once per layer on
the stack: one GEMM projects q and k together, and one ``rope_apply`` call
rotates both as a ``(2h, n, d_h)`` stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .masks import Convention, WindowSpec
from .numerics import SeededRng, as_matrices, as_matrix, masked_row_softmax, sigmoid_in_place
from .permute import Permutation, invert, permute_rows, sample_permutation


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


def _windowed_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    w: int,
    convention: Convention,
    token_of_slot: np.ndarray | None,
) -> np.ndarray:
    """Windowed attention over slots 0..n-1, one row block of w slots at a time.

    q, k, v are ``(n, d_h)`` or head-stacked ``(h, n, d_h)``; every head
    shares the slots, so each block's validity mask is built once and
    broadcast over the heads. Row block [s, e) attends to its key span with
    one (batched) matmul:
    ``CAUSAL_ONE_SIDED`` spans slots [s-w+1, e), clipped at 0;
    ``SYMMETRIC_CIRCULAR`` spans s-back .. e-1+fwd mod n, or every slot once
    when that span reaches n, so no key is counted twice. A cell of the
    block is valid when the key slot is in the query slot's window, when
    ``token_of_slot`` (original token per slot, None for the identity) puts
    the key token at or before the query token, and on the diagonal.
    """
    n = q.shape[-2]
    if not 1 <= w <= n:
        raise ValueError(f"window size must satisfy 1 <= w <= n, got w={w}, n={n}")
    scale = 1.0 / np.sqrt(q.shape[-1])
    circular = convention is Convention.SYMMETRIC_CIRCULAR
    back, fwd = WindowSpec(w, convention).offsets()
    # Both windows cover w consecutive offsets, so with the span starting
    # `back` slots before the block, row i sees span columns i .. i+w-1.
    idx = np.arange(w)
    band_off = np.arange(2 * w - 1)[None, :] - idx[:, None]
    band = (band_off >= 0) & (band_off < w)
    out = np.empty(v.shape)
    for s in range(0, n, w):
        e = min(s + w, n)
        rows = idx[: e - s]
        if circular and e - s + w - 1 >= n:
            lo, keys = 0, slice(0, n)
            off = (np.arange(n)[None, :] - (s + rows)[:, None]) % n
            valid = (off <= fwd) | (off >= n - back)
        else:
            lo, hi = (s - back, e + fwd) if circular else (max(s - back, 0), e)
            keys = slice(lo, hi) if 0 <= lo and hi <= n else np.arange(lo, hi) % n
            valid = band[: e - s, lo - s + back : hi - s + back].copy()
        if token_of_slot is not None:
            valid &= token_of_slot[keys][None, :] <= token_of_slot[s:e, None]
        valid[rows, rows + s - lo] = True
        scores = q[..., s:e, :] @ np.swapaxes(k[..., keys, :], -1, -2)
        scores *= scale
        weights = masked_row_softmax(scores, np.broadcast_to(valid, scores.shape))
        np.matmul(weights, v[..., keys, :], out=out[..., s:e, :])
    return out


def swa_forward(inp: AttentionInputs, w: int) -> np.ndarray:
    """Causal sliding-window attention: each token sees the previous w tokens
    (itself included). Returns the shape of ``inp.v``, one head or a stack."""
    return _windowed_attention(inp.q, inp.k, inp.v, w, Convention.CAUSAL_ONE_SIDED, None)


def sa_forward(
    inp: AttentionInputs,
    w: int,
    p: Permutation,
    convention: Convention = Convention.SYMMETRIC_CIRCULAR,
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

    A head stack is gathered once per input and scattered back once: every
    head shares ``p``.
    """
    if p.n != inp.n:
        raise ValueError(f"permutation size {p.n} does not match sequence length {inp.n}")
    yp = _windowed_attention(permute_rows(inp.q, p), permute_rows(inp.k, p),
                             permute_rows(inp.v, p), w, convention, p.inverse)
    return permute_rows(yp, invert(p))


def rope_apply(x: np.ndarray, positions, base: float = 10000.0) -> np.ndarray:
    """Rotary position embedding on consecutive coordinate pairs.

    Pair k of a row at position p is rotated by angle p * base^(-2k/d_h),
    that is, ``x[2k] + i*x[2k+1]`` is multiplied by ``exp(i*p*base^(-2k/d_h))``
    (RoFormer). Must be applied before any permutation, with original
    positions, so that the relative-offset property q_m . k_n == q_{m+s} .
    k_{n+s} refers to true sequence distances. ``x`` is ``(n, d_h)`` or a
    stack ``(..., n, d_h)``, which may be a strided view (a head-major view
    of an ``(n, d)`` projection, say); it is read as complex pairs in place,
    after a copy only if its last axis is not unit-stride. One complex table
    serves the whole stack, and the result is a new C-ordered array.
    """
    x = as_matrices(x, "x")
    n, d_h = x.shape[-2:]
    if d_h % 2 != 0:
        raise ValueError(f"rotary embedding needs an even head dimension, got {d_h}")
    pos = np.asarray(positions, dtype=np.float64)
    if pos.shape != (n,):
        raise ValueError("positions must have one entry per row")
    if not np.isfinite(pos).all():
        raise ValueError("positions must be finite")
    inv_freq = _check_rope_base(base) ** (-np.arange(0, d_h, 2, dtype=np.float64) / d_h)
    ang = pos[:, None] * inv_freq[None, :]
    table = np.empty(ang.shape, dtype=np.complex128)
    np.cos(ang, out=table.real)
    np.sin(ang, out=table.imag)
    if x.strides[-1] != x.itemsize:
        x = x.copy()
    out = np.empty(x.shape[:-1] + (d_h // 2,), dtype=np.complex128)
    np.multiply(x.view(np.complex128), table, out=out)
    return out.view(np.float64)


def gated_fusion(y_swa: np.ndarray, y_sa: np.ndarray, g: GateParams) -> np.ndarray:
    """Combine the two attention paths with independent sigmoid gates.

    y = sigmoid(y_sa @ W_sa^T) * y_sa + sigmoid(y_swa @ W_swa^T) * y_swa,
    per token and per dimension. The gates are independent (not a softmax
    split), so both paths can be up- or down-weighted simultaneously; there
    is no bias term.
    """
    y_swa = as_matrix(y_swa, "y_swa")
    y_sa = as_matrix(y_sa, "y_sa")
    if y_swa.shape != y_sa.shape:
        raise ValueError(f"path outputs disagree: {y_swa.shape} vs {y_sa.shape}")
    if y_swa.shape[1] != g.d:
        raise ValueError(f"gate width {g.d} does not match output width {y_swa.shape[1]}")
    out = sigmoid_in_place(y_sa @ g.w_gate_sa.T)
    out *= y_sa
    gated_swa = sigmoid_in_place(y_swa @ g.w_gate_swa.T)
    gated_swa *= y_swa
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
    head stack ``(h, n, d_h)``: q and k come from one ``x @ [W_q | W_k]``
    GEMM and one ``rope_apply`` call on their ``(2h, n, d_h)`` stack. Each
    intermediate is dropped once it is consumed. Q/K/V projections default
    to the identity; there is no output projection, MLP or normalization
    here: this is an attention-sublayer reference, not a trainable block.
    """
    x = as_matrix(x, "x")
    n, d = x.shape
    if d != cfg.d:
        raise ValueError(f"input width {d} does not match config width {cfg.d}")
    if g.d != cfg.d:
        raise ValueError("gate width does not match config width")
    if not 1 <= cfg.w <= n:
        raise ValueError(f"window size {cfg.w} invalid for sequence length {n}")
    if projections is None:
        w_qk = wv = None
    else:
        wq, wk, wv = (as_matrix(m, "projection") for m in projections)
        w_qk = np.hstack([wq, wk])

    def heads(full):
        """Head-major (full.shape[1] // d_h, n, d_h) view of an (n, *) array."""
        return full.reshape(n, -1, cfg.d_h).transpose(1, 0, 2)

    def merged(y):
        """(n, d) copy of a head stack, heads side by side."""
        return y.transpose(1, 0, 2).reshape(n, d)

    perm = sample_permutation(n, rng)
    qk_full = np.hstack([x, x]) if w_qk is None else x @ w_qk
    qk = rope_apply(heads(qk_full), np.arange(n, dtype=np.int64), cfg.rope_base)
    del qk_full
    # q and k are the two disjoint halves of one stack. They must never
    # share a buffer: numpy's matmul computes q @ q.T through BLAS syrk,
    # which is not bit-identical to the general product of the per-head route.
    inp = AttentionInputs(qk[:cfg.h], qk[cfg.h:], heads(x if wv is None else x @ wv))
    del qk
    y_swa = merged(swa_forward(inp, cfg.w))
    y_sa = merged(sa_forward(inp, cfg.w, perm, Convention.CAUSAL_ONE_SIDED))
    del inp
    return gated_fusion(y_swa, y_sa, g)
