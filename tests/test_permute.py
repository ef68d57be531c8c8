"""Permutation sampling, inversion, and the row-placement convention."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stochattn import Permutation, SeededRng, permute_rows, sample_permutation


class TestSampling:
    def test_n_one_is_identity(self):
        p = sample_permutation(1, SeededRng(0))
        assert p.forward.tolist() == [0]

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_permutation(0, SeededRng(0))

    def test_inverse_consistency(self):
        rng = SeededRng(3)
        for _ in range(20):
            p = sample_permutation(17, rng)
            assert np.array_equal(p.inverse[p.forward], np.arange(17))

    def test_uniform_over_s3(self):
        # 6000 draws: every one of the 6 arrangements lands within
        # 1000 +/- 3*sqrt(1000*5/6) of its expected count.
        rng = SeededRng(2024)
        counts = Counter(tuple(sample_permutation(3, rng).forward) for _ in range(6000))
        assert len(counts) == 6
        band = 3.0 * math.sqrt(1000.0 * 5.0 / 6.0)
        for arrangement, count in counts.items():
            assert abs(count - 1000) <= band, (arrangement, count)

    def test_first_image_uniform_at_n8(self):
        rng = SeededRng(99)
        n, trials = 8, 100_000
        hits = np.zeros(n)
        for _ in range(trials):
            hits[rng.permutation(n)[0]] += 1
        freq = hits / trials
        stderr = math.sqrt((1 / n) * (1 - 1 / n) / trials)
        assert np.all(np.abs(freq - 1 / n) <= 3 * stderr)

    def test_invalid_inverse_rejected(self):
        # the inverse is derived from forward, never taken: none can disagree
        with pytest.raises(TypeError):
            Permutation(np.array([1, 0, 2]), np.array([0, 1, 2]))

    @pytest.mark.parametrize("forward", [
        [-1, 0], [0.5, 1.0], [0, 5], [2**64 - 1, 0], [1, 1, 0], [[0, 1], [1, 0]],
        [True, False], ["0", "1"], [],
    ], ids=["negative", "fractional", "out_of_range", "uint64_max", "repeated", "2d", "bool",
            "str", "empty"])
    def test_malformed_forward_is_one_line_value_error(self, forward):
        with pytest.raises(ValueError) as err:
            Permutation(np.array(forward))
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
    def test_any_integer_dtype_is_stored_as_int64(self, dtype):
        p = Permutation(np.array([2, 0, 1], dtype=dtype))
        assert p.forward.dtype == p.inverse.dtype == np.int64
        assert p.inverse.tolist() == [1, 2, 0]

    @pytest.mark.parametrize("n", [1, 2, 7, 1024])
    def test_a_draw_equals_the_checked_constructor(self, n):
        # sample_permutation skips the bijection check its draw cannot fail
        drawn = sample_permutation(n, SeededRng(n))
        checked = Permutation(SeededRng(n).permutation(n))
        for a, b in ((drawn.forward, checked.forward), (drawn.inverse, checked.inverse)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestInvert:
    """Un-permuting is ``Permutation(p.inverse)``."""

    def test_identity_fixed_point(self):
        p = Permutation(np.arange(5))
        assert np.array_equal(Permutation(p.inverse).forward, p.forward)

    def test_involution(self):
        p = sample_permutation(12, SeededRng(1))
        q = Permutation(Permutation(p.inverse).inverse)
        assert np.array_equal(q.forward, p.forward)
        assert np.array_equal(q.inverse, p.inverse)

    def test_swaps_arrays(self):
        p = sample_permutation(9, SeededRng(4))
        assert np.array_equal(Permutation(p.inverse).inverse, p.forward)


class TestPermuteRows:
    def test_identity_unchanged(self):
        x = np.arange(12, dtype=float).reshape(4, 3)
        assert np.array_equal(permute_rows(x, Permutation(np.arange(4))), x)

    @given(st.integers(1, 64), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @example(1, 1, 0)
    def test_roundtrip_exact(self, n, d, seed):
        # bit-exact both ways, including -0.0, infinities and NaN payloads
        gen = np.random.default_rng(seed)
        x = gen.normal(size=(n, d)) * 10.0 ** gen.integers(-300, 300, size=(n, d))
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324])
        spots = gen.random((n, d)) < 0.2
        x[spots] = gen.choice(specials, size=int(spots.sum()))
        p = sample_permutation(n, SeededRng(seed))
        q = Permutation(p.inverse)
        for there, back in ((p, q), (q, p)):
            out = permute_rows(permute_rows(x, there), back)
            assert np.array_equal(out.view(np.uint64), x.view(np.uint64))

    def test_cyclic_shift_convention(self):
        # sigma maps 0->1, 1->2, 2->0; slot i receives token inverse[i],
        # so rows [a; b; c] become [c; a; b].
        p = Permutation(np.array([1, 2, 0]))
        assert p.inverse.tolist() == [2, 0, 1]
        x = np.array([[1.0], [2.0], [3.0]])  # a, b, c
        out = permute_rows(x, p)
        assert np.array_equal(out, np.array([[3.0], [1.0], [2.0]]))

    def test_row_multiset_preserved(self):
        rng = SeededRng(6)
        x = np.asarray(rng.normal(size=(15, 4)))
        p = sample_permutation(15, rng)
        out = permute_rows(x, p)
        assert np.array_equal(np.sort(out, axis=0), np.sort(x, axis=0))

    def test_dimension_mismatch(self):
        p = sample_permutation(4, SeededRng(0))
        with pytest.raises(ValueError):
            permute_rows(np.zeros((5, 2)), p)
