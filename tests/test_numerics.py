"""Masked softmax, input validation, and the seeded RNG tree."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from stochattn import FullyMaskedRowError, SeededRng, derive_seed, masked_row_softmax
from stochattn.numerics import MC_CHUNK_BYTES, sigmoid_in_place, trial_chunks


class TestMaskedRowSoftmax:
    def test_single_unmasked_entry_gets_full_weight(self):
        scores = np.array([[5.0, -3.0, 9.0]])
        mask = np.array([[False, True, False]])
        out = masked_row_softmax(scores, mask)
        assert out[0, 1] == 1.0
        assert out[0, 0] == 0.0 and out[0, 2] == 0.0

    def test_equal_scores_split_evenly(self):
        scores = np.full((1, 5), 2.5)
        mask = np.array([[True, True, False, True, False]])
        out = masked_row_softmax(scores, mask)
        np.testing.assert_allclose(out[0, [0, 1, 3]], 1.0 / 3.0, atol=1e-15)

    def test_log_two_gap(self):
        # exp(0) = 1 and exp(ln 2) = 2, so the weights are 1/3 and 2/3
        scores = np.array([[0.0, math.log(2.0)]])
        out = masked_row_softmax(scores, np.ones((1, 2), dtype=bool))
        np.testing.assert_allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)

    def test_fully_masked_row_reports_index(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[2] = False
        with pytest.raises(FullyMaskedRowError) as err:
            masked_row_softmax(np.zeros((4, 4)), mask)
        assert err.value.row == 2

    def test_rejects_nan_scores(self):
        scores = np.zeros((2, 2))
        scores[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            masked_row_softmax(scores, np.ones((2, 2), dtype=bool))

    def test_rows_sum_to_one_and_masked_are_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            scores = rng.normal(scale=5.0, size=(n, n))
            mask = rng.random((n, n)) < 0.4
            mask[np.arange(n), np.arange(n)] = True
            out = masked_row_softmax(scores, mask)
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(out[~mask] == 0.0)

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([0.1, 1.0, 10.0]), st.sampled_from([1.0, 100.0]))
    @example(6, 6, 11, 1.0, 1.0)
    def test_shift_invariance_per_row(self, rows, cols, seed, scale, shift):
        rng = np.random.default_rng(seed)
        scores = rng.normal(scale=scale, size=(rows, cols))
        mask = rng.random((rows, cols)) < 0.5
        mask[np.arange(rows), rng.integers(cols, size=rows)] = True
        base = masked_row_softmax(scores, mask)
        shifted = masked_row_softmax(scores + rng.normal(scale=shift, size=(rows, 1)), mask)
        assert np.abs(base - shifted).max() <= 1e-12

    def test_masked_scores_are_not_exponentiated(self):
        # exp(1000 - 0) would overflow; the masked cell must never reach exp
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            out = masked_row_softmax([[0.0, 1000.0], [0.0, 1.0]],
                                     [[True, False], [True, True]])
        assert out[0, 0] == 1.0 and out[0, 1] == 0.0
        np.testing.assert_allclose(out[1], [1.0 / (1.0 + math.e), math.e / (1.0 + math.e)],
                                   atol=1e-15)

    def test_opposite_extreme_scores_raise_no_warning(self):
        # the shift -1.7e308 - 1.7e308 overflows to -inf, whose exp is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = masked_row_softmax([[-1.7e308, 1.7e308], [1.7e308, -1.7e308]],
                                     [[True, True], [True, False]])
        assert np.all(np.isfinite(out))
        assert out.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 8),
                                            st.integers(1, 8)),
                      elements=st.floats(allow_nan=False, allow_infinity=False)),
           st.integers(0, 2**32 - 1))
    @example(np.array([[[-1.7e308, 1.7e308, 0.0]]]), 0)
    def test_any_finite_scores_give_a_distribution(self, scores, seed):
        # the row-max cell is exp(0) = 1, so each row sum is >= 1 before the
        # division and every output cell lies in [0, 1]
        rng = np.random.default_rng(seed)
        *_, rows, cols = scores.shape
        mask = rng.random(scores.shape) < 0.5
        mask[..., np.arange(rows), rng.integers(cols, size=rows)] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = masked_row_softmax(scores, mask)
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert np.all(out[~mask] == 0.0)
        assert np.abs(out.sum(axis=-1) - 1.0).max() <= cols * np.finfo(np.float64).eps

    @given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_stack_equals_each_matrix_alone(self, heads, rows, cols, seed, shared_mask):
        rng = np.random.default_rng(seed)
        scores = rng.normal(scale=5.0, size=(heads, rows, cols))
        mask = rng.random((rows, cols) if shared_mask else (heads, rows, cols)) < 0.5
        mask[..., np.arange(rows), rng.integers(cols, size=rows)] = True
        mask = np.broadcast_to(mask, scores.shape)
        out = masked_row_softmax(scores, mask)
        for head in range(heads):
            assert np.array_equal(out[head], masked_row_softmax(scores[head], mask[head]))

    def test_stack_fully_masked_row_reports_index_within_its_matrix(self):
        mask = np.ones((3, 4, 5), dtype=bool)
        mask[1, 2] = False
        with pytest.raises(FullyMaskedRowError) as err:
            masked_row_softmax(np.zeros((3, 4, 5)), mask)
        assert err.value.row == 2

    def test_stack_shape_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            masked_row_softmax(np.zeros((2, 3, 3)), np.ones((3, 3), dtype=bool))
        with pytest.raises(ValueError, match="2-D"):
            masked_row_softmax(np.zeros(3), np.ones(3, dtype=bool))


class TestSigmoid:
    def test_matches_expit_without_warning(self):
        z = np.array([0.0, 1.0, -1.0, 36.0, -36.0, 709.8, -709.8, 1000.0, -1000.0,
                      np.inf, -np.inf])
        out = z.copy()
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert sigmoid_in_place(out) is out
        assert out[0] == 0.5
        assert np.abs(out - expit(z)).max() <= 5e-16


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(123, 0, 0) == derive_seed(123, 0, 0)

    def test_layer_and_step_distinct(self):
        s = 999
        assert derive_seed(s, 0, 0) != derive_seed(s, 1, 0)
        assert derive_seed(s, 0, 0) != derive_seed(s, 0, 1)
        assert derive_seed(s, 1, 0) != derive_seed(s, 0, 1)

    def test_no_collisions_over_ten_thousand(self):
        seen = {derive_seed(77, layer, step) for layer in range(100) for step in range(100)}
        assert len(seen) == 10_000


class TestSeededRng:
    def test_same_root_same_stream(self):
        a = SeededRng(5).random(16)
        b = SeededRng(5).random(16)
        assert np.array_equal(a, b)

    def test_children_differ(self):
        root = SeededRng(5)
        a = root.child(0, 0).random(8)
        b = root.child(1, 0).random(8)
        assert not np.array_equal(a, b)

    def test_child_is_reproducible(self):
        x = SeededRng(5).child(3, 4).random(4)
        y = SeededRng(5).child(3, 4).random(4)
        assert np.array_equal(x, y)

    @given(st.integers(0, 40), st.integers(1, 300), st.integers(0, 2**64 - 1))
    @example(0, 1, 0)
    @example(3, 1, 1)
    def test_permutations_are_successive_draws(self, trials, n, seed):
        one_by_one, batched = SeededRng(seed), SeededRng(seed)
        rows = batched.permutations(trials, n)
        assert rows.shape == (trials, n)
        for row in rows:
            assert np.array_equal(row, one_by_one.permutation(n))
        assert batched.random() == one_by_one.random()


class TestTrialChunks:
    @given(st.integers(0, 5000), st.integers(1, 3 * 2**20))
    def test_chunks_cover_trials_in_order_within_budget(self, trials, bytes_per_trial):
        chunks = list(trial_chunks(trials, bytes_per_trial))
        bounds = [lo for lo, _ in chunks] + [trials]
        assert bounds[0] == 0 and [hi for _, hi in chunks] == bounds[1:]
        for lo, hi in chunks:
            assert hi > lo
            assert hi - lo == 1 or (hi - lo) * bytes_per_trial <= MC_CHUNK_BYTES
