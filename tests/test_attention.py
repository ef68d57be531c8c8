"""Attention kernels: forward/backward, the permuted route against the
mask route, rotary embeddings, and the gated dual path."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stochattn import (
    AttentionInputs,
    Convention,
    GateParams,
    LayerConfig,
    Permutation,
    SeededRng,
    WindowSpec,
    attention_backward,
    attention_forward,
    build_stochastic_mask,
    build_window_mask,
    dual_path_layer,
    gated_fusion,
    intersect_causal,
    permute_rows,
    rope_apply,
    sa_forward,
    sample_permutation,
    swa_forward,
)
from stochattn import attention, checks, numerics


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _random_inputs(rng, n, d_h):
    q, k, v = (np.asarray(rng.normal(size=(n, d_h))) for _ in range(3))
    return AttentionInputs(q, k, v)


def _rope_pairs(x, base):
    """Oracle: RoPE as real rotations of the even and odd coordinate slices,
    (x_2k, x_2k+1) -> (x_2k cos - x_2k+1 sin, x_2k sin + x_2k+1 cos), row p
    at position p."""
    n, d_h = x.shape[-2:]
    inv_freq = base ** (-np.arange(0, d_h, 2, dtype=np.float64) / d_h)
    ang = np.arange(n, dtype=np.float64)[:, None] * inv_freq[None, :]
    cos, sin = np.cos(ang), np.sin(ang)
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty(x.shape)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def _causal_full(n):
    return np.tril(np.ones((n, n), dtype=bool))


def _per_head_layer(x, cfg, g, rng, projections=None):
    """Oracle: ``dual_path_layer`` one head at a time, every stage on 2-D
    inputs, the head outputs joined by ``hstack``."""
    n = x.shape[0]
    if projections is None:
        q_full = k_full = v_full = x
    else:
        q_full, k_full, v_full = (x @ m for m in projections)
    perm = sample_permutation(n, rng)
    y_swa_heads, y_sa_heads = [], []
    for head in range(cfg.h):
        sl = slice(head * cfg.d_h, (head + 1) * cfg.d_h)
        q = rope_apply(q_full[:, sl], cfg.rope_base)
        k = rope_apply(k_full[:, sl], cfg.rope_base)
        inp = AttentionInputs(q, k, v_full[:, sl])
        y_swa_heads.append(swa_forward(inp, cfg.w))
        y_sa_heads.append(sa_forward(inp, cfg.w, perm, Convention.CAUSAL_ONE_SIDED))
    return gated_fusion(np.hstack(y_swa_heads), np.hstack(y_sa_heads), g)


def _layer_params(rng, n, d, projected):
    x = rng.normal(size=(n, d))
    projections = tuple(rng.normal(size=(d, d)) / np.sqrt(d) for _ in range(3))
    gates = GateParams(*(rng.normal(size=(d, d)) / np.sqrt(d) for _ in range(2)))
    return x, projections if projected else None, gates


class TestForward:
    def test_single_token_returns_value(self):
        inp = AttentionInputs(np.array([[2.0]]), np.array([[3.0]]), np.array([[7.0]]))
        out = attention_forward(inp, np.ones((1, 1), dtype=bool))
        assert np.array_equal(out, np.array([[7.0]]))

    def test_equal_scores_causal_gives_prefix_means(self):
        n, d = 6, 3
        v = np.asarray(SeededRng(1).normal(size=(n, d)))
        inp = AttentionInputs(np.zeros((n, d)), np.zeros((n, d)), v)
        out = attention_forward(inp, _causal_full(n))
        for i in range(n):
            np.testing.assert_allclose(out[i], v[: i + 1].mean(axis=0), atol=1e-14)

    def test_two_token_scalar_oracle(self):
        # q = k = [1, 1], v = [0, 1]: row 0 sees only itself (0), row 1
        # splits evenly between the equal scores (0.5)
        inp = AttentionInputs(np.ones((2, 1)), np.ones((2, 1)), np.array([[0.0], [1.0]]))
        out = attention_forward(inp, _causal_full(2))
        np.testing.assert_allclose(out, [[0.0], [0.5]], atol=1e-15)

    def test_weights_masked_entries_zero(self):
        rng = SeededRng(2)
        inp = _random_inputs(rng, 9, 3)
        mask = intersect_causal(np.asarray(rng.random((9, 9)) < 0.4))
        _, weights = attention_forward(inp, mask, return_weights=True)
        assert np.all(weights[~mask] == 0.0)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_outputs_in_value_hull(self):
        rng = SeededRng(3)
        for _ in range(10):
            inp = _random_inputs(rng, 12, 4)
            mask = intersect_causal(np.asarray(rng.random((12, 12)) < 0.5))
            out = attention_forward(inp, mask)
            max_norm = np.linalg.norm(inp.v, axis=1).max()
            assert np.all(np.linalg.norm(out, axis=1) <= max_norm + 1e-12)

    def test_high_temperature_approaches_uniform(self):
        rng = SeededRng(4)
        inp = _random_inputs(rng, 8, 2)
        inp = AttentionInputs(inp.q * 1e-8, inp.k, inp.v)
        out = attention_forward(inp, _causal_full(8))
        for i in range(8):
            np.testing.assert_allclose(out[i], inp.v[: i + 1].mean(axis=0), atol=1e-6)


class TestSwa:
    def test_window_covering_sequence_equals_full_causal(self):
        rng = SeededRng(5)
        inp = _random_inputs(rng, 10, 4)
        full = attention_forward(inp, _causal_full(10))
        np.testing.assert_allclose(swa_forward(inp, 10), full, atol=1e-15)
        np.testing.assert_allclose(swa_forward(inp, 10), swa_forward(inp, 10), atol=0)

    def test_w1_returns_values(self):
        rng = SeededRng(6)
        inp = _random_inputs(rng, 7, 3)
        np.testing.assert_allclose(swa_forward(inp, 1), inp.v, atol=1e-15)

    def test_matches_mask_route(self):
        rng = SeededRng(7)
        inp = _random_inputs(rng, 16, 4)
        mask = build_window_mask(16, WindowSpec(5, Convention.CAUSAL_ONE_SIDED))
        oracle = attention_forward(inp, mask)
        assert np.abs(swa_forward(inp, 5) - oracle).max() <= 1e-12


class TestSa:
    def test_identity_permutation_is_swa_bit_for_bit(self):
        rng = SeededRng(8)
        inp = _random_inputs(rng, 14, 4)
        out = sa_forward(inp, 4, Permutation(np.arange(14)), Convention.CAUSAL_ONE_SIDED)
        assert np.array_equal(out, swa_forward(inp, 4))

    def test_window_covering_sequence_is_full_causal(self):
        # circular windows cover every slot at w = n, so only the original
        # causality is left, whatever the permutation
        rng = SeededRng(9)
        inp = _random_inputs(rng, 9, 3)
        full = attention_forward(inp, _causal_full(9))
        for _ in range(4):
            perm = sample_permutation(9, rng)
            out = sa_forward(inp, 9, perm, Convention.SYMMETRIC_CIRCULAR)
            np.testing.assert_allclose(out, full, atol=1e-12)
        # one-sided windows keep the slot order, so this degeneracy needs
        # the identity permutation
        out = sa_forward(inp, 9, Permutation(np.arange(9)), Convention.CAUSAL_ONE_SIDED)
        np.testing.assert_allclose(out, full, atol=1e-12)

    def test_equivalent_to_masked_attention(self):
        # the keystone property, small edition; the acceptance suite runs
        # 100 configurations up to n=64
        rng = SeededRng(10)
        for case in range(25):
            n = int(rng.integers(3, 33))
            d_h = int(rng.integers(1, 7))
            w = int(rng.integers(2, n + 1))
            conv = Convention.SYMMETRIC_CIRCULAR if case % 2 else Convention.CAUSAL_ONE_SIDED
            inp = _random_inputs(rng, n, d_h)
            perm = sample_permutation(n, rng)
            direct = sa_forward(inp, w, perm, conv)
            mask = intersect_causal(build_stochastic_mask(n, WindowSpec(w, conv), perm))
            oracle = attention_forward(inp, mask)
            assert np.abs(direct - oracle).max() <= 1e-12

    def test_causality_under_value_perturbation(self):
        # changing token j's value may only move outputs at positions i >= j
        rng = SeededRng(11)
        n = 16
        inp = _random_inputs(rng, n, 3)
        perm = sample_permutation(n, rng)
        base = sa_forward(inp, 6, perm, Convention.SYMMETRIC_CIRCULAR)
        for j in [3, 9, 15]:
            v2 = inp.v.copy()
            v2[j] += 10.0
            bumped = sa_forward(AttentionInputs(inp.q, inp.k, v2), 6, perm,
                                Convention.SYMMETRIC_CIRCULAR)
            changed = np.nonzero(np.abs(bumped - base).max(axis=1) > 0)[0]
            assert np.all(changed >= j)

    def test_size_mismatch(self):
        rng = SeededRng(12)
        inp = _random_inputs(rng, 8, 2)
        with pytest.raises(ValueError):
            sa_forward(inp, 3, sample_permutation(9, rng))


@st.composite
def _kernel_case(draw):
    """(n, w, d_h, seed) with 1 <= w <= n <= 96 and 1 <= d_h <= 8."""
    n = draw(st.integers(1, 96))
    return n, draw(st.integers(1, n)), draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1))


class TestBlockedKernels:
    """The blocked windowed route of swa_forward/sa_forward against the dense
    masked core, its floating-point hygiene and its memory."""

    @given(_kernel_case())
    @example((70, 32, 3, 1))   # n is not a multiple of w
    @example((67, 20, 3, 5))   # n is not a multiple of the block size b = 5
    @example((65, 64, 2, 8))   # a one-row tail block
    @example((12, 12, 2, 6))   # n < b+w-1: every block's key span wraps or pads
    @example((70, 1, 2, 2))    # w = 1, so b = 1
    @example((70, 70, 5, 3))   # w = n: the circular span wraps past n
    @example((40, 27, 3, 7))   # w > n/2: the circular band wraps
    @example((1, 1, 1, 4))
    def test_matches_dense_oracle(self, case):
        n, w, d_h, seed = case
        rng = SeededRng(seed)
        inp = _random_inputs(rng, n, d_h)
        perm = sample_permutation(n, rng)
        for conv in Convention:
            mask = intersect_causal(build_stochastic_mask(n, WindowSpec(w, conv), perm))
            oracle = attention_forward(inp, mask)
            assert np.abs(sa_forward(inp, w, perm, conv) - oracle).max() <= 1e-12
        mask = build_window_mask(n, WindowSpec(w, Convention.CAUSAL_ONE_SIDED))
        assert np.abs(swa_forward(inp, w) - attention_forward(inp, mask)).max() <= 1e-12

    def test_no_floating_point_warning(self):
        rng = SeededRng(20)
        n, w = 300, 64
        inp = _random_inputs(rng, n, 16)
        perm = sample_permutation(n, rng)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            swa_forward(inp, w)
            for conv in Convention:
                sa_forward(inp, w, perm, conv)

    def test_score_overflow_is_a_one_line_value_error(self):
        # q.k of 1e200 entries overflows; no warning or NaN output escapes
        rng = np.random.default_rng(23)
        n, w = 20, 8
        q, k, v = (rng.normal(size=(n, 4)) for _ in range(3))
        inp = AttentionInputs(q * 1e200, k * 1e200, v)
        perm = sample_permutation(n, SeededRng(23))
        kernels = [lambda: swa_forward(inp, w)]
        kernels += [lambda conv=conv: sa_forward(inp, w, perm, conv) for conv in Convention]
        for kernel in kernels:
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^scores contains NaN or Inf entries$"):
                    kernel()

    def test_extreme_finite_scores_raise_no_warning(self):
        # scores of about +-1.7e308: row shifts overflow to -inf and weights
        # underflow, and both must stay silent
        rng = np.random.default_rng(24)
        n, w = 40, 16
        q, k = (rng.uniform(-1.3e154, 1.3e154, size=(n, 1)) for _ in range(2))
        inp = AttentionInputs(q, k, rng.normal(size=(n, 1)))
        perm = sample_permutation(n, SeededRng(24))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            outs = [sa_forward(inp, w, perm, conv) for conv in Convention]
            outs.append(swa_forward(inp, w))
        oracles = [attention_forward(inp, intersect_causal(
            build_stochastic_mask(n, WindowSpec(w, conv), perm))) for conv in Convention]
        oracles.append(attention_forward(
            inp, build_window_mask(n, WindowSpec(w, Convention.CAUSAL_ONE_SIDED))))
        for out, oracle in zip(outs, oracles):
            assert np.all(np.isfinite(out))
            assert np.abs(out - oracle).max() <= 1e-12

    def test_values_near_the_largest_double_do_not_overflow(self):
        # equal scores average w values of 1e308: the weights are normalized
        # before the value product, so no partial sum exceeds the largest double
        n, w = 30, 16
        inp = AttentionInputs(np.zeros((n, 2)), np.zeros((n, 2)), np.full((n, 2), 1e308))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            out = swa_forward(inp, w)
            out_sa = sa_forward(inp, w, sample_permutation(n, SeededRng(25)))
        for y in (out, out_sa):
            np.testing.assert_allclose(y, 1e308, rtol=1e-15)

    def test_window_outside_sequence_rejected(self):
        inp = _random_inputs(SeededRng(21), 6, 2)
        with pytest.raises(ValueError):
            swa_forward(inp, 7)
        with pytest.raises(ValueError):
            sa_forward(inp, 0, Permutation(np.arange(6)))

    def test_peak_memory_is_linear_in_n(self):
        # one dense n x n float64 array at n = 8192 is 512 MB
        n, d_h, w = 8192, 64, 64
        rng = SeededRng(22)
        inp = _random_inputs(rng, n, d_h)
        perm = sample_permutation(n, rng)
        for kernel in (lambda: swa_forward(inp, w),
                       lambda: sa_forward(inp, w, perm, Convention.CAUSAL_ONE_SIDED)):
            tracemalloc.start()
            try:
                kernel()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20


class TestHeadStack:
    """Head-stacked (h, n, d_h) inputs give, head for head, exactly what the
    same stage gives on each head alone."""

    @given(_kernel_case(), st.sampled_from([1, 2, 4]))
    @example((70, 32, 3, 1), 4)
    @example((70, 70, 5, 3), 2)    # the circular span wraps past n
    @example((15, 8, 1, 0), 2)     # one-row blocks, whose product depends on layout
    @example((65, 64, 1, 8), 4)    # a one-row tail block
    def test_kernels_equal_per_head_calls(self, case, h):
        n, w, d_h, seed = case
        rng = np.random.default_rng(seed)
        q, k = (rng.normal(size=(h, n, d_h)) for _ in range(2))
        v = rng.normal(size=(n, h, d_h)).transpose(1, 0, 2)   # a head-major view
        perm = sample_permutation(n, SeededRng(seed))
        stacked = AttentionInputs(q, k, v)
        heads = [AttentionInputs(q[i], k[i], v[i]) for i in range(h)]
        assert np.array_equal(swa_forward(stacked, w),
                              np.stack([swa_forward(one, w) for one in heads]))
        for conv in Convention:
            assert np.array_equal(sa_forward(stacked, w, perm, conv),
                                  np.stack([sa_forward(one, w, perm, conv) for one in heads]))

    @given(st.integers(1, 40), st.sampled_from([1, 2, 4]), st.sampled_from([2, 4, 8]),
           st.integers(0, 2**32 - 1))
    def test_rope_equals_each_head(self, n, h, d_h, seed):
        x = np.random.default_rng(seed).normal(size=(n, h * d_h))
        out = rope_apply(x.reshape(n, h, d_h).transpose(1, 0, 2), 500.0)
        assert out.shape == (h, n, d_h) and out.flags.c_contiguous
        for head in range(h):
            one = rope_apply(x[:, head * d_h:(head + 1) * d_h], 500.0)
            assert np.array_equal(out[head], one)

    def test_permute_rows_gathers_every_head(self):
        x = np.asarray(SeededRng(30).normal(size=(3, 10, 4)))
        p = sample_permutation(10, SeededRng(31))
        out = permute_rows(x, p)
        for head in range(3):
            assert np.array_equal(out[head], permute_rows(x[head], p))
        assert np.array_equal(permute_rows(out, Permutation(p.inverse)), x)
        with pytest.raises(ValueError):
            permute_rows(np.arange(10.0), p)

    @given(st.integers(1, 12), st.integers(1, 6), st.sampled_from([(1,), (3,), (2, 3)]),
           st.sampled_from(["q", "k", "v", None]), st.integers(0, 2**32 - 1))
    @example(8, 4, (3,), "q", 0)
    @example(1, 1, (2, 3), None, 1)
    def test_dense_forward_stack_equals_each_matrix(self, n, d_h, batch, shared, seed):
        rng = np.random.default_rng(seed)
        fields = {f: rng.normal(size=(*batch, n, d_h)) for f in ("q", "k", "v")}
        if shared is not None:
            # one matrix broadcast over the stack, as a finite-difference
            # chunk passes the inputs it does not bump
            fields[shared] = np.broadcast_to(fields[shared][(0,) * len(batch)], fields["q"].shape)
        mask = rng.random((n, n)) < 0.5
        mask[np.arange(n), rng.integers(n, size=n)] = True
        stacked = AttentionInputs(**fields)
        y = attention_forward(stacked, mask)
        y_w, weights = attention_forward(stacked, mask, return_weights=True)
        assert y.shape == (*batch, n, d_h) and weights.shape == (*batch, n, n)
        assert np.array_equal(y_w, y)
        for idx in np.ndindex(batch):
            one = AttentionInputs(*(fields[f][idx] for f in ("q", "k", "v")))
            y_one, weights_one = attention_forward(one, mask, return_weights=True)
            assert np.array_equal(y[idx], attention_forward(one, mask))
            assert np.array_equal(y[idx], y_one) and np.array_equal(weights[idx], weights_one)

    def test_dense_forward_takes_one_shared_mask(self):
        inp = AttentionInputs(np.zeros((2, 4, 2)), np.zeros((2, 4, 2)), np.zeros((2, 4, 2)))
        for mask in (_causal_full(3), np.stack([_causal_full(4)] * 2)):
            with pytest.raises(ValueError, match="does not match"):
                attention_forward(inp, mask)

    def test_dense_backward_rejects_a_stack(self):
        inp = AttentionInputs(np.zeros((2, 4, 2)), np.zeros((2, 4, 2)), np.zeros((2, 4, 2)))
        with pytest.raises(ValueError, match="one head"):
            attention_backward(inp, _causal_full(4), np.zeros((2, 4, 2)))


class TestScratch:
    """The windowed kernels keep their scratch per thread between calls, up
    to 4 MiB, and never return it."""

    @staticmethod
    def _kernels(n, w, seed, h=4, d_h=64):
        """swa_forward and sa_forward in both conventions on one (h, n, d_h)
        stack, or one head for h None."""
        rng = np.random.default_rng(seed)
        shape = (n, d_h) if h is None else (h, n, d_h)
        inp = AttentionInputs(*(rng.normal(size=shape) for _ in range(3)))
        perm = sample_permutation(n, SeededRng(seed))
        return [lambda: swa_forward(inp, w)] + [
            lambda conv=conv: sa_forward(inp, w, perm, conv) for conv in Convention]

    def test_successive_calls_keep_one_buffer(self):
        for kernel in self._kernels(512, 64, 0):
            kernel()
            kept = attention._scratch.buf
            kernel()
            assert attention._scratch.buf is kept
            assert kept.base.nbytes <= 4 * 2**20

    def test_a_plan_past_the_bound_leaves_the_kept_buffer(self):
        self._kernels(512, 64, 1)[0]()
        kept = attention._scratch.buf
        for kernel in self._kernels(2048, 1024, 1):
            kernel()
            assert attention._scratch.buf is kept

    @pytest.mark.parametrize("h", [None, 4])
    def test_outputs_never_share_the_workspace(self, h):
        for kernel in self._kernels(320, 64, 2, h):
            out = kernel()
            assert not np.shares_memory(out, attention._scratch.buf.base)

    def test_outputs_survive_later_calls(self):
        first, later = self._kernels(512, 64, 3), self._kernels(512, 64, 4)
        outs = [kernel() for kernel in first]
        kept = [out.copy() for out in outs]
        for kernel in later:
            kernel()
        assert all(np.array_equal(out, copy) for out, copy in zip(outs, kept))

    def test_two_threads_match_serial_calls(self):
        cfg = LayerConfig(d=256, h=4, w=64)
        params = [_layer_params(np.random.default_rng(40 + t), 256, cfg.d, True)
                  for t in range(2)]

        def layers(t):
            x, projections, gates = params[t]
            rng = SeededRng(40 + t)
            return [dual_path_layer(x, cfg, gates, rng, projections) for _ in range(10)]

        serial = [layers(t) for t in range(2)]
        results = [None, None]
        start = threading.Barrier(2, timeout=60)

        def worker(t):
            start.wait()
            results[t] = layers(t)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for t in range(2):
            assert results[t] is not None
            assert all(np.array_equal(a, b) for a, b in zip(results[t], serial[t]))


@st.composite
def _layer_case(draw):
    """(n, h, d_h, w, projected, seed) with 1 <= w <= n <= 96, h in {1, 2, 4}."""
    n = draw(st.integers(1, 96))
    return (n, draw(st.sampled_from([1, 2, 4])), draw(st.sampled_from([2, 4, 6])),
            draw(st.integers(1, n)), draw(st.booleans()), draw(st.integers(0, 2**32 - 1)))


class TestRope:
    def test_position_zero_unchanged(self):
        rng = SeededRng(13)
        x = np.asarray(rng.normal(size=(4, 8)))
        out = rope_apply(x, 10000.0)
        np.testing.assert_allclose(out[0], x[0], atol=1e-15)

    def test_pair_norms_preserved(self):
        rng = SeededRng(14)
        x = np.asarray(rng.normal(size=(6, 10)))
        out = rope_apply(x, 10000.0)
        for k in range(5):
            before = np.hypot(x[:, 2 * k], x[:, 2 * k + 1])
            after = np.hypot(out[:, 2 * k], out[:, 2 * k + 1])
            np.testing.assert_allclose(before, after, atol=1e-12)

    def test_relative_offset_property(self):
        # the rotated inner product depends only on the position gap: the
        # same q and k at every row, compared across rows
        rng = SeededRng(15)
        q = np.repeat(np.asarray(rng.normal(size=(1, 8))), 121, axis=0)
        k = np.repeat(np.asarray(rng.normal(size=(1, 8))), 121, axis=0)
        scores = rope_apply(q, 10000.0) @ rope_apply(k, 10000.0).T
        for m, nn, s in [(3, 11, 5), (0, 7, 100), (20, 21, 13)]:
            assert abs(scores[m, nn] - scores[m + s, nn + s]) <= 1e-10

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            rope_apply(np.zeros((2, 3)), 10000.0)

    @given(st.integers(1, 40), st.sampled_from([1, 2, 4]), st.sampled_from([2, 4, 8, 64]),
           st.sampled_from(["head", "head_major", "stack", "strided"]),
           st.sampled_from([500.0, 10000.0]), st.integers(0, 2**32 - 1))
    @example(4096, 4, 64, "stack", 10000.0, 0)
    @example(8192, 1, 2, "strided", 500.0, 1)
    def test_matches_real_rotation_oracle(self, n, h, d_h, layout, base, seed):
        rng = np.random.default_rng(seed)
        if layout == "head":
            x = rng.normal(size=(n, d_h))
        elif layout == "head_major":
            x = rng.normal(size=(n, h, d_h)).transpose(1, 0, 2)
        elif layout == "stack":
            x = rng.normal(size=(2 * h, n, d_h))
        else:
            x = rng.normal(size=(n, 2 * d_h))[:, ::2]
        out = rope_apply(x, base)
        assert out.shape == x.shape and out.flags.c_contiguous
        assert np.abs(out - _rope_pairs(x, base)).max() <= 1e-14

    @pytest.mark.parametrize("base", [0.0, -5.0, np.nan, np.inf])
    def test_bad_base_is_one_line_value_error(self, base):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rotary base") as err:
                rope_apply(np.ones((2, 4)), base)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("base", [0.0, -5.0, np.nan, np.inf])
    def test_layer_config_rejects_bad_base(self, base):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rotary base") as err:
                LayerConfig(d=4, h=1, w=2, rope_base=base)
        assert "\n" not in str(err.value)


class TestGatedFusion:
    def test_zero_gates_average_paths(self):
        rng = SeededRng(16)
        a = np.asarray(rng.normal(size=(5, 4)))
        b = np.asarray(rng.normal(size=(5, 4)))
        g = GateParams(np.zeros((4, 4)), np.zeros((4, 4)))
        np.testing.assert_allclose(gated_fusion(a, b, g), 0.5 * (a + b), atol=1e-15)

    def test_zero_stochastic_path(self):
        rng = SeededRng(17)
        a = np.asarray(rng.normal(size=(3, 2)))
        g = GateParams(np.zeros((2, 2)), np.zeros((2, 2)))
        np.testing.assert_allclose(gated_fusion(a, np.zeros((3, 2)), g), 0.5 * a, atol=1e-15)

    def test_scalar_oracle(self):
        g = GateParams(np.array([[1.0]]), np.array([[1.0]]))
        out = gated_fusion(np.array([[2.0]]), np.array([[-2.0]]), g)
        expected = _sigmoid(-2.0) * (-2.0) + _sigmoid(2.0) * 2.0
        assert abs(expected - 1.5232) < 5e-5
        np.testing.assert_allclose(out, [[expected]], atol=1e-12)

    def test_saturated_gates_raise_no_warning(self):
        g = GateParams(np.eye(2), np.eye(2))
        y_sa = np.array([[1000.0, -1000.0]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            out = gated_fusion(np.zeros((1, 2)), y_sa, g)
        assert np.array_equal(out, [[1000.0, 0.0]])

    def test_shape_mismatch(self):
        g = GateParams(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            gated_fusion(np.zeros((3, 2)), np.zeros((4, 2)), g)


def _finite_diff_loop(inp, mask, upstream, h=1e-5):
    """Oracle: central differences of ``attention_forward`` for q, k and v,
    one coordinate and two single-matrix calls at a time."""
    grads = []
    for name in ("q", "k", "v"):
        base = getattr(inp, name)
        g = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            fields = {f: getattr(inp, f).copy() for f in ("q", "k", "v")}
            fields[name][idx] += h
            up = attention_forward(AttentionInputs(**fields), mask)
            fields[name][idx] -= 2 * h
            down = attention_forward(AttentionInputs(**fields), mask)
            g[idx] = ((up - down) * upstream).sum() / (2 * h)
        grads.append(g)
    return grads


def _gradcheck_loop(rng, n=8, d_h=4, instances=10, perturb=False):
    """Oracle: ``checks.gradcheck`` with its finite differences taken by
    ``_finite_diff_loop``."""
    h = 1e-5
    worst = {"dq": 0.0, "dk": 0.0, "dv": 0.0}
    for inst in range(instances):
        r = rng.child(0, inst)
        q, k, v, upstream = (np.asarray(r.normal(size=(n, d_h))) for _ in range(4))
        perm = sample_permutation(n, r)
        mask = intersect_causal(build_stochastic_mask(
            n, WindowSpec(max(2, n // 2), Convention.SYMMETRIC_CIRCULAR), perm))
        inp = AttentionInputs(q, k, v)
        dq, dk, dv = attention_backward(inp, mask, upstream)
        if perturb:
            dq = dq + 1e-3
        numeric = _finite_diff_loop(inp, mask, upstream, h)
        for label, analytic, num in zip(("dq", "dk", "dv"), (dq, dk, dv), numeric):
            denom = max(float(np.linalg.norm(num)), 1e-12)
            worst[label] = max(worst[label], float(np.linalg.norm(analytic - num)) / denom)
    return {"name": "gradcheck", "passed": all(err <= 1e-6 for err in worst.values()),
            "measured": worst}


class TestGradcheck:
    """``checks.gradcheck`` evaluates its bumps as stacked forwards; its
    report equals the one-coordinate-at-a-time loop's, bit for bit."""

    @pytest.mark.parametrize("seed, sizes", [
        *((seed, {}) for seed in range(8)),     # verify's sizes
        (110, {"instances": 20}),               # the acceptance suite's C10
        (3, {"n": 5, "d_h": 3}),
        (4, {"perturb": True}),
    ])
    def test_equals_per_coordinate_loop(self, seed, sizes):
        report = checks.gradcheck(SeededRng(seed), **sizes)
        assert report == _gradcheck_loop(SeededRng(seed), **sizes)
        assert report["passed"] is not sizes.get("perturb", False)

    @pytest.mark.parametrize("chunk_bytes", [1, 3000])
    def test_chunk_size_does_not_change_the_report(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(numerics, "MC_CHUNK_BYTES", chunk_bytes)
        for sizes in ({"instances": 3}, {"n": 5, "d_h": 3, "instances": 3}):
            assert (checks.gradcheck(SeededRng(6), **sizes)
                    == _gradcheck_loop(SeededRng(6), **sizes))

    def test_one_forward_per_chunk(self, monkeypatch):
        calls = []

        def counting(inp, mask, **kwargs):
            calls.append(inp.q.shape)
            return attention_forward(inp, mask, **kwargs)

        monkeypatch.setattr(checks, "attention_forward", counting)
        checks.gradcheck(SeededRng(0), instances=2)
        # at n = 8, d_h = 4 all 32 bumped pairs of a field fit one chunk
        assert calls == [(64, 8, 4)] * 6
        calls.clear()
        monkeypatch.setattr(numerics, "MC_CHUNK_BYTES", 2 * 8 * 8 * 8 * 10)
        checks.gradcheck(SeededRng(0), instances=1)
        assert calls == [(20, 8, 4), (20, 8, 4), (20, 8, 4), (4, 8, 4)] * 3


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = SeededRng(18)
        inp = _random_inputs(rng, 6, 3)
        grads = attention_backward(inp, _causal_full(6), np.zeros((6, 3)))
        for g in grads:
            assert np.all(g == 0.0)

    def test_linearity_in_upstream(self):
        rng = SeededRng(19)
        inp = _random_inputs(rng, 6, 3)
        upstream = np.asarray(rng.normal(size=(6, 3)))
        mask = _causal_full(6)
        base = attention_backward(inp, mask, upstream)
        scaled = attention_backward(inp, mask, 3.0 * upstream)
        for g, gs in zip(base, scaled):
            np.testing.assert_allclose(gs, 3.0 * g, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = SeededRng(20)
        for _ in range(5):
            inp = _random_inputs(rng, 8, 4)
            perm = sample_permutation(8, rng)
            mask = intersect_causal(
                build_stochastic_mask(8, WindowSpec(4, Convention.SYMMETRIC_CIRCULAR), perm))
            upstream = np.asarray(rng.normal(size=(8, 4)))
            analytic = attention_backward(inp, mask, upstream)
            numeric = _finite_diff_loop(inp, mask, upstream)
            for a, nmr in zip(analytic, numeric):
                rel = np.linalg.norm(a - nmr) / max(np.linalg.norm(nmr), 1e-12)
                assert rel <= 1e-6


class TestInputDtypes:
    """Matrices are bool, integer or real float; anything else is refused
    rather than cast (complex parts dropped, strings parsed)."""

    @pytest.mark.parametrize("bad", [
        np.array([[1 + 2j, 0], [0, 1]]),
        np.array([["1", "2"], ["3", "4"]]),
        np.array([[1.0, 0.0], [0.0, 1.0]], dtype=object),
    ], ids=["complex", "str", "object"])
    def test_other_dtypes_are_one_line_value_errors(self, bad):
        ok = np.eye(2)
        gates = GateParams(ok, ok)
        calls = [lambda: AttentionInputs(bad, ok, ok), lambda: AttentionInputs(ok, ok, bad),
                 lambda: GateParams(bad, ok), lambda: GateParams(ok, bad),
                 lambda: dual_path_layer(bad, LayerConfig(d=2, h=1, w=1), gates, SeededRng(0))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="dtype") as err:
                    call()
                assert "\n" not in str(err.value)

    def test_bool_and_integer_inputs_are_read_as_float(self):
        q = np.array([[True, False], [False, True]])
        k = np.array([[1, 2], [3, 4]], dtype=np.int32)
        v = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        inp = AttentionInputs(q, k, v)
        assert all(a.dtype == np.float64 for a in (inp.q, inp.k, inp.v))
        assert np.array_equal(inp.k, k) and np.array_equal(inp.v, v)
        assert np.array_equal(GateParams(q, k).w_gate_swa, np.eye(2))


class _IdentityPermRng(SeededRng):
    """Stream whose permutation draw is always the identity arrangement."""

    def permutation(self, n):
        return np.arange(n)


class TestDualPathLayer:
    @given(_layer_case())
    @example((70, 4, 4, 32, True, 1))
    @example((70, 2, 2, 70, False, 2))
    @example((1, 4, 2, 1, True, 3))
    def test_equals_per_head_loop(self, case):
        n, h, d_h, w, projected, seed = case
        cfg = LayerConfig(d=h * d_h, h=h, w=w)
        x, projections, gates = _layer_params(np.random.default_rng(seed), n, cfg.d, projected)
        out = dual_path_layer(x, cfg, gates, SeededRng(seed), projections)
        oracle = _per_head_layer(x, cfg, gates, SeededRng(seed), projections)
        assert np.array_equal(out, oracle)

    def test_no_floating_point_warning(self):
        cfg = LayerConfig(d=256, h=4, w=64)
        x, projections, gates = _layer_params(np.random.default_rng(32), 300, cfg.d, True)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            dual_path_layer(x, cfg, gates, SeededRng(32), projections)
            dual_path_layer(x, cfg, gates, SeededRng(33))

    def test_peak_memory(self):
        # the per-head loop peaked at 92 MB here; the head-stacked layer
        # drops its projections and permuted copies as it consumes them
        cfg = LayerConfig(d=256, h=4, w=64)
        x, projections, gates = _layer_params(np.random.default_rng(34), 4096, cfg.d, True)
        tracemalloc.start()
        try:
            dual_path_layer(x, cfg, gates, SeededRng(34), projections)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**20

    def test_identity_permutation_collapses_to_swa(self):
        rng = SeededRng(21)
        x = np.asarray(rng.normal(size=(12, 4)))
        cfg = LayerConfig(d=4, h=1, w=3)
        gates = GateParams(np.zeros((4, 4)), np.zeros((4, 4)))
        out = dual_path_layer(x, cfg, gates, _IdentityPermRng(0))
        q = rope_apply(x, cfg.rope_base)
        swa = attention_forward(
            AttentionInputs(q, q, x),
            build_window_mask(12, WindowSpec(3, Convention.CAUSAL_ONE_SIDED)))
        np.testing.assert_allclose(out, swa, atol=1e-12)

    def test_window_covering_sequence_degenerates(self):
        # with w = n and the identity permutation both paths are full causal
        # attention, so the fusion averages two identical tensors
        rng = SeededRng(22)
        x = np.asarray(rng.normal(size=(6, 4)))
        cfg = LayerConfig(d=4, h=2, w=6)
        gates = GateParams(np.zeros((4, 4)), np.zeros((4, 4)))
        out = dual_path_layer(x, cfg, gates, _IdentityPermRng(0))
        heads = []
        for hslice in (slice(0, 2), slice(2, 4)):
            q = rope_apply(x[:, hslice], cfg.rope_base)
            heads.append(attention_forward(AttentionInputs(q, q, x[:, hslice]),
                                           np.tril(np.ones((6, 6), dtype=bool))))
        np.testing.assert_allclose(out, np.hstack(heads), atol=1e-12)

    def test_composition_oracle(self):
        seed = 77
        rng = SeededRng(23)
        n, d, h, w = 32, 8, 2, 5
        x = np.asarray(rng.normal(size=(n, d)))
        wg = (np.asarray(rng.normal(size=(d, d))), np.asarray(rng.normal(size=(d, d))))
        gates = GateParams(*wg)
        cfg = LayerConfig(d=d, h=h, w=w)
        out = dual_path_layer(x, cfg, gates, SeededRng(seed))
        # rebuilt from the individual operations with the same stream
        oracle = _per_head_layer(x, cfg, gates, SeededRng(seed))
        assert np.abs(out - oracle).max() <= 1e-12

    def test_one_rope_pass_and_one_permutation(self, monkeypatch):
        # q and k are rotated as one (2h, n, d_h) stack, and both paths share
        # one permutation draw
        calls = {"rope_apply": 0, "sample_permutation": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(attention, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(attention, name, counted)
        cfg = LayerConfig(d=8, h=2, w=3)
        x, projections, gates = _layer_params(np.random.default_rng(35), 20, cfg.d, True)
        for proj in (projections, None):
            calls.update(rope_apply=0, sample_permutation=0)
            dual_path_layer(x, cfg, gates, SeededRng(35), proj)
            assert calls == {"rope_apply": 1, "sample_permutation": 1}

    def test_config_mismatch_rejected(self):
        gates = GateParams(np.zeros((4, 4)), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            dual_path_layer(np.zeros((8, 6)), LayerConfig(d=4, h=1, w=2), gates, SeededRng(0))
        with pytest.raises(ValueError):
            LayerConfig(d=6, h=4, w=2)


class TestWorkerThread:
    """The layer runs its two halves on the caller's thread and one worker
    thread."""

    def test_worker_sees_the_callers_errstate(self, monkeypatch):
        seen = {}

        def recorded(name, original):
            def wrapper(*args, **kwargs):
                seen[name] = (threading.current_thread(), np.geterr())
                return original(*args, **kwargs)
            return wrapper

        for name in ("sa_forward", "swa_forward", "sample_permutation"):
            monkeypatch.setattr(attention, name, recorded(name, getattr(attention, name)))
        cfg = LayerConfig(d=8, h=2, w=3)
        x, projections, gates = _layer_params(np.random.default_rng(36), 20, cfg.d, True)
        with np.errstate(all="raise"):
            caller = (threading.current_thread(), np.geterr())
            dual_path_layer(x, cfg, gates, SeededRng(36), projections)
        assert seen["sa_forward"][0] is not caller[0]
        assert seen["sa_forward"][1] == caller[1]
        # the permutation is drawn once, on the caller's thread
        assert seen["sample_permutation"] == seen["swa_forward"] == caller

    @pytest.mark.parametrize("projected", [False, True])
    def test_score_overflow_is_a_one_line_value_error(self, projected):
        cfg = LayerConfig(d=8, h=2, w=4)
        x, projections, gates = _layer_params(np.random.default_rng(37), 24, cfg.d, projected)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^scores contains NaN or Inf entries$"):
                dual_path_layer(x * 1e200, cfg, gates, SeededRng(37), projections)

    def test_calls_add_at_most_one_thread(self):
        cfg = LayerConfig(d=8, h=2, w=3)
        x, projections, gates = _layer_params(np.random.default_rng(38), 20, cfg.d, True)
        before = threading.active_count()
        for seed in range(20):
            dual_path_layer(x, cfg, gates, SeededRng(seed), projections)
        assert threading.active_count() <= before + 1

    def test_a_module_imported_afresh_leaves_no_thread(self):
        # a benchmark re-imports the package for each set-up; the dropped
        # module's worker must end with it
        code = """if True:
            import gc, importlib, sys, threading, time
            import numpy as np
            sys.path.insert(0, sys.argv[1])
            for seed in range(5):
                for name in [m for m in sys.modules if m.split(".")[0] == "stochattn"]:
                    del sys.modules[name]
                sa = importlib.import_module("stochattn")
                gates = sa.GateParams(np.eye(8), np.eye(8))
                sa.dual_path_layer(np.ones((16, 8)), sa.LayerConfig(8, 2, 4), gates,
                                   sa.SeededRng(seed))
            gc.collect()
            deadline = time.monotonic() + 30
            while threading.active_count() > 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            print(threading.active_count())
        """
        src = str(Path(attention.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                             timeout=120, check=True)
        assert run.stdout.strip() == "2"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_a_layer(self):
        # the child has no copy of the parent's worker thread: it must make
        # its own rather than wait on the parent's
        cfg = LayerConfig(d=8, h=2, w=3)
        x, projections, gates = _layer_params(np.random.default_rng(39), 64, cfg.d, True)
        want = dual_path_layer(x, cfg, gates, SeededRng(39), projections)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                got = dual_path_layer(x, cfg, gates, SeededRng(39), projections)
                code = 0 if np.array_equal(got, want) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's layer call did not finish in 60 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0
