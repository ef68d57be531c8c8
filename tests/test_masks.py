"""Window masks, permuted stochastic masks, causal intersection, dumps."""

import itertools

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from stochattn import (
    AttentionInputs,
    Convention,
    GateParams,
    LayerConfig,
    RoutingMode,
    SeededRng,
    WindowSpec,
    build_stochastic_mask,
    build_window_mask,
    cost_model,
    dual_path_layer,
    fusion_bv_decompose,
    intersect_causal,
    mask_to_csv,
    mask_to_pgm,
    sa_bias_mc,
    sa_forward,
    sa_variance_exact,
    sa_variance_mc,
    sample_permutation,
    simulate_reachability,
    swa_forward,
    symmetrize,
    window_keys,
    window_neighbours,
)
from stochattn.permute import Permutation

_N = 6
_ONES = np.ones((_N, 4))
# every public entry that takes a sequence length and a window size, called
# at n = _N with window w
_WINDOWED_ENTRIES = {
    "swa_forward": lambda w: swa_forward(AttentionInputs(_ONES, _ONES, _ONES), w),
    "sa_forward": lambda w: sa_forward(AttentionInputs(_ONES, _ONES, _ONES), w,
                                       Permutation(np.arange(_N)), Convention.SYMMETRIC_CIRCULAR),
    "dual_path_layer": lambda w: dual_path_layer(
        _ONES, LayerConfig(d=4, h=2, w=w), GateParams(np.eye(4), np.eye(4)), SeededRng(0),
        (np.eye(4),) * 3),
    "window_keys": lambda w: window_keys(_N, WindowSpec(w)),
    "window_neighbours": lambda w: window_neighbours(_N, WindowSpec(w)),
    "build_window_mask": lambda w: build_window_mask(_N, WindowSpec(w)),
    "simulate_reachability": lambda w: simulate_reachability(
        _N, w, 2, RoutingMode.SA, Convention.SYMMETRIC_CIRCULAR, SeededRng(0)),
    "cost_model": lambda w: cost_model(_N, w, 4),
    "sa_bias_mc": lambda w: sa_bias_mc(_ONES, [w], 10, SeededRng(0)),
    "sa_variance_exact": lambda w: sa_variance_exact(_ONES, w),
    "sa_variance_mc": lambda w: sa_variance_mc(_ONES, w, 10, SeededRng(0)),
    "fusion_bv_decompose": lambda w: fusion_bv_decompose(
        _ONES, GateParams(np.eye(4), np.eye(4)), w, 100, SeededRng(0)),
}


@pytest.mark.parametrize("w", [0, _N + 1])
@pytest.mark.parametrize("entry", list(_WINDOWED_ENTRIES))
def test_window_outside_one_to_n_gets_the_shared_message(entry, w):
    with pytest.raises(ValueError) as err:
        _WINDOWED_ENTRIES[entry](w)
    assert str(err.value) == f"window size must satisfy 1 <= w <= n, got w={w}, n={_N}"


class TestWindowMask:
    def test_causal_w1_is_diagonal(self):
        m = build_window_mask(5, WindowSpec(1, Convention.CAUSAL_ONE_SIDED))
        assert np.array_equal(m, np.eye(5, dtype=bool))

    def test_causal_full_window_is_lower_triangle(self):
        m = build_window_mask(4, WindowSpec(4, Convention.CAUSAL_ONE_SIDED))
        assert m.sum() == 10
        assert np.array_equal(m, np.tril(np.ones((4, 4), dtype=bool)))

    def test_circular_n6_w3_count(self):
        m = build_window_mask(6, WindowSpec(3, Convention.SYMMETRIC_CIRCULAR))
        # offsets {-1, 0, +1}: three entries per row
        assert m.sum() == 18
        enumerated = np.zeros((6, 6), dtype=bool)
        for i, j in itertools.product(range(6), range(6)):
            enumerated[i, j] = min(abs(i - j), 6 - abs(i - j)) < 1.5
        assert np.array_equal(m, enumerated)

    def test_every_row_regular_circular(self):
        for n, w in [(9, 4), (16, 5), (12, 12), (7, 1)]:
            m = build_window_mask(n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR))
            assert np.all(m.sum(axis=1) == w)
            assert np.all(m.sum(axis=0) == w)
            assert np.all(np.diag(m))

    def test_matches_cellwise_definition(self):
        # the banded construction against each cell's definition, both conventions
        for n in range(1, 26):
            for w in range(1, n + 1):
                back, fwd = WindowSpec(w).offsets()
                want = {Convention.CAUSAL_ONE_SIDED: np.zeros((n, n), dtype=bool),
                        Convention.SYMMETRIC_CIRCULAR: np.zeros((n, n), dtype=bool)}
                for i, j in itertools.product(range(n), range(n)):
                    want[Convention.CAUSAL_ONE_SIDED][i, j] = 0 <= i - j <= w - 1
                    off = (j - i) % n
                    want[Convention.SYMMETRIC_CIRCULAR][i, j] = off <= fwd or off >= n - back
                for conv, oracle in want.items():
                    m = build_window_mask(n, WindowSpec(w, conv))
                    assert m.dtype == bool and m.flags.c_contiguous
                    assert np.array_equal(m, oracle), (n, w, conv)

    def test_window_bounds_checked(self):
        with pytest.raises(ValueError):
            build_window_mask(4, WindowSpec(0, Convention.CAUSAL_ONE_SIDED))
        with pytest.raises(ValueError):
            build_window_mask(4, WindowSpec(5, Convention.SYMMETRIC_CIRCULAR))


class TestStochasticMask:
    def test_identity_permutation_recovers_window(self):
        spec = WindowSpec(5, Convention.SYMMETRIC_CIRCULAR)
        m = build_stochastic_mask(12, spec, Permutation(np.arange(12)))
        assert np.array_equal(m, build_window_mask(12, spec))

    def test_symmetric_for_odd_w(self):
        rng = SeededRng(10)
        spec = WindowSpec(7, Convention.SYMMETRIC_CIRCULAR)
        for _ in range(5):
            p = sample_permutation(20, rng)
            m = build_stochastic_mask(20, spec, p)
            assert np.array_equal(m, m.T)

    def test_rows_and_columns_sum_to_w(self):
        rng = SeededRng(12)
        spec = WindowSpec(8, Convention.SYMMETRIC_CIRCULAR)
        for _ in range(10):
            p = sample_permutation(32, rng)
            m = build_stochastic_mask(32, spec, p)
            assert np.all(m.sum(axis=1) == 8)
            assert np.all(m.sum(axis=0) == 8)

    @pytest.mark.parametrize("n,w", [(4, 2), (5, 3), (6, 3)])
    def test_pair_marginal_exhaustive(self, n, w):
        # Averaged over the whole symmetric group, every off-diagonal pair is
        # connected in exactly a (w-1)/(n-1) fraction of permutations.
        spec = WindowSpec(w, Convention.SYMMETRIC_CIRCULAR)
        totals = np.zeros((n, n))
        count = 0
        for fwd in itertools.permutations(range(n)):
            totals += build_stochastic_mask(n, spec, Permutation(np.array(fwd)))
            count += 1
        off = ~np.eye(n, dtype=bool)
        expected = count * (w - 1) / (n - 1)
        assert np.all(totals[off] == expected)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            build_stochastic_mask(5, WindowSpec(2), Permutation(np.arange(4)))


class TestWindowNeighbours:
    def test_scattered_rows_match_dense_masks(self):
        # every n <= 25 and w <= n, both conventions, the identity against the
        # window mask and a random permutation against the stochastic mask:
        # the neighbour table by token, the key table by slot
        rng = SeededRng(30)
        for n in range(1, 26):
            rows = np.arange(n)[:, None]
            for w in range(1, n + 1):
                p = sample_permutation(n, rng)
                batch = np.stack([sample_permutation(n, rng).inverse for _ in range(3)])
                for conv in Convention:
                    spec = WindowSpec(w, conv)
                    for perm, dense in ((None, build_window_mask(n, spec)),
                                        (p, build_stochastic_mask(n, spec, p))):
                        table = window_neighbours(n, spec, perm)
                        assert table.shape == (n, w)
                        # offset 0 is the token itself
                        assert np.array_equal(table[:, spec.offsets()[0]], np.arange(n))
                        scattered = np.zeros((n, n), dtype=bool)
                        scattered[rows, table] = True
                        assert np.array_equal(scattered, dense), (n, w, conv, perm is None)

                        slot_tokens = np.arange(n) if perm is None else perm.inverse
                        keys = window_keys(n, spec, None if perm is None else perm.inverse)
                        assert keys.shape == (n + w - 1,)
                        pads = w - 1 if conv is Convention.CAUSAL_ONE_SIDED else 0
                        assert np.array_equal(keys[:pads], np.full(pads, n))
                        # column n collects the pads; every window holds its own token
                        scattered = np.zeros((n, n + 1), dtype=bool)
                        scattered[slot_tokens[:, None], sliding_window_view(keys, w)] = True
                        assert np.array_equal(scattered[:, :n], dense), (n, w, conv, perm is None)
                    # a batch of inverses gives one table a row
                    assert np.array_equal(window_keys(n, spec, batch),
                                          np.stack([window_keys(n, spec, inv) for inv in batch]))

    def test_one_token_per_offset(self):
        causal = WindowSpec(3, Convention.CAUSAL_ONE_SIDED)
        circular = WindowSpec(3, Convention.SYMMETRIC_CIRCULAR)
        assert causal.offsets() == (2, 0) and circular.offsets() == (1, 1)
        # offsets before slot 0 repeat the token itself
        assert window_neighbours(5, causal).tolist() == [
            [0, 0, 0], [1, 0, 1], [0, 1, 2], [1, 2, 3], [2, 3, 4]]
        assert window_neighbours(5, circular).tolist() == [
            [4, 0, 1], [0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 0]]
        # token i sits at slot forward[i]; entries are the tokens of nearby slots
        p = Permutation(np.array([2, 0, 4, 1, 3]))
        assert window_neighbours(5, causal, p).tolist() == [
            [1, 3, 0], [1, 1, 1], [0, 4, 2], [3, 1, 3], [3, 0, 4]]

    def test_window_keys_pad_with_n(self):
        causal = WindowSpec(3, Convention.CAUSAL_ONE_SIDED)
        circular = WindowSpec(3, Convention.SYMMETRIC_CIRCULAR)
        # slot s's window is entries s..s+2; slots before 0 hold n = 5, later
        # than every token, so a causal filter keys <= token drops them
        assert window_keys(5, causal).tolist() == [5, 5, 0, 1, 2, 3, 4]
        assert window_keys(5, circular).tolist() == [4, 0, 1, 2, 3, 4, 0]
        inverse = Permutation(np.array([2, 0, 4, 1, 3])).inverse
        assert window_keys(5, causal, inverse).tolist() == [5, 5, 1, 3, 0, 4, 2]
        assert window_keys(5, circular, inverse).tolist() == [2, 1, 3, 0, 4, 2, 1]

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            window_neighbours(4, WindowSpec(5))
        with pytest.raises(ValueError):
            window_neighbours(4, WindowSpec(2), Permutation(np.arange(5)))


class TestIntersectCausal:
    def test_all_ones_becomes_lower_triangle(self):
        out = intersect_causal(np.ones((6, 6), dtype=bool))
        assert np.array_equal(out, np.tril(np.ones((6, 6), dtype=bool)))

    def test_row_zero_keeps_only_self(self):
        rng = SeededRng(3)
        m = rng.random((8, 8)) < 0.5
        out = intersect_causal(m)
        assert out[0, 0]
        assert out[0, 1:].sum() == 0

    def test_subset_plus_diagonal(self):
        rng = SeededRng(5)
        m = rng.random((10, 10)) < 0.3
        out = intersect_causal(m)
        extra = out & ~m
        assert np.all(np.nonzero(extra)[0] == np.nonzero(extra)[1])  # only diagonal added
        assert np.all(np.diag(out))

    def test_causal_density_near_half_marginal(self):
        # off-diagonal density of causal stochastic masks approaches
        # (w-1)/(2(n-1)) because about half the window is causally hidden
        n, w, trials = 64, 8, 2000
        rng = SeededRng(21)
        spec = WindowSpec(w, Convention.SYMMETRIC_CIRCULAR)
        dens = []
        for _ in range(trials):
            p = sample_permutation(n, rng)
            m = intersect_causal(build_stochastic_mask(n, spec, p))
            dens.append((m.sum() - n) / (n * (n - 1)))
        target = (w - 1) / (2 * (n - 1))
        assert abs(np.mean(dens) - target) <= 0.15 * target


class TestDensityAndDumps:
    def test_symmetrize(self):
        m = np.zeros((3, 3), dtype=bool)
        m[0, 2] = True
        s = symmetrize(m)
        assert s[2, 0] and s[0, 2]

    def test_pgm_layout(self, tmp_path):
        m = build_window_mask(9, WindowSpec(3, Convention.CAUSAL_ONE_SIDED))
        path = tmp_path / "m.pgm"
        mask_to_pgm(m, path, meta="w=3")
        blob = path.read_bytes()
        header, body = blob.split(b"255\n", 1)
        assert header.startswith(b"P5\n")
        assert b"9 9" in header
        assert len(body) == 81
        pixels = np.frombuffer(body, dtype=np.uint8).reshape(9, 9)
        assert set(np.unique(pixels)) <= {0, 255}
        assert np.array_equal(pixels == 255, m)

    def test_csv_roundtrip(self, tmp_path):
        m = build_window_mask(6, WindowSpec(4, Convention.CAUSAL_ONE_SIDED))
        path = tmp_path / "m.csv"
        mask_to_csv(m, path, meta="window")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        parsed = np.array([[int(tok) for tok in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed.astype(bool), m)
