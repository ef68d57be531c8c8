"""Reachability growth, connection probability, small-world structure,
spectra, cost model."""

import itertools
import math
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

import stochattn
from stochattn import (
    Convention,
    RoutingMode,
    SeededRng,
    WindowSpec,
    build_stochastic_mask,
    build_window_mask,
    circulant_spectrum,
    connection_probability_analytic,
    connection_probability_exhaustive,
    connection_probability_mc,
    connectome_depth_prediction,
    cost_model,
    expansion_lower_bound,
    graph_clustering,
    graph_path_length,
    intersect_causal,
    layers_to_coverage,
    multilayer_mixing,
    per_seed_layers_to_coverage,
    permuted_transition_matrix,
    ring_lattice_clustering,
    sample_permutation,
    simulate_reachability,
    smallworld_metrics,
    symmetrize,
    transition_matrix,
    window_keys,
    window_neighbours,
)
from stochattn import checks, graphs, masks, numerics
from stochattn.graphs import (
    DisconnectedGraphError,
    NoConnectedBaselineError,
    _edges,
    _first_unreachable,
    _popcount_rows,
    _simulate_seed,
    _slot_pairs,
    _window_or,
    layer_edges,
    layer_mask,
)

_CIRCULAR = Convention.SYMMETRIC_CIRCULAR

# Oracle: set bits of every byte value.
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)


def _roll_window_or_circular(s, back, fwd):
    """Oracle: the window OR from whole-array rolls."""
    width = back + fwd + 1
    t = np.roll(s, back, axis=0) if back else s.copy()
    covered = 1
    while covered < width:
        step = min(covered, width - covered)
        t |= np.roll(t, -step, axis=0)
        covered += step
    return t


def _loop_connection_probability_mc(n, w, trials, causal, rng):
    """Oracle: ``connection_probability_mc`` one trial at a time, drawing
    one slot pair (non-causal) or one permutation (causal) per trial."""
    back, fwd = WindowSpec(w).offsets()
    if not causal:
        hits = 0
        for _ in range(trials):
            a, r = divmod(int(rng.integers(0, n * (n - 1))), n - 1)
            off = (r + (r >= a) - a) % n
            hits += off <= fwd or off >= n - back
        est = hits / trials
        return est, float(np.sqrt(est * (1.0 - est) / trials))
    slots = window_neighbours(n, WindowSpec(w))
    densities = np.empty(trials)
    for t in range(trials):
        tok = sample_permutation(n, rng).inverse
        densities[t] = (int(np.count_nonzero(tok[slots] <= tok[:, None])) - n) / (n * (n - 1))
    stderr = float(densities.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return float(densities.mean()), stderr


def _dense_reachability(n, w, layers, mode, convention, rng):
    """Oracle: per-layer reached counts from each layer's dense mask,
    propagated with a float matrix product."""
    reached = np.eye(n, dtype=bool)
    counts = np.empty((layers + 1, n), dtype=np.int64)
    counts[0] = 1
    for ell in range(1, layers + 1):
        mask = layer_mask(n, w, mode, convention, rng)
        reached = (mask.astype(np.float64) @ reached.astype(np.float64)) > 0.0
        counts[ell] = reached.sum(axis=1)
    return counts


class TestReachability:
    def test_bitset_engine_matches_dense_mask_propagation(self):
        # the packed sliding-OR propagation against the literal route:
        # build each layer's mask densely and propagate with a matrix product
        for mode in RoutingMode:
            for n, w, layers in [(16, 4, 5), (32, 8, 4), (33, 5, 6), (24, 24, 2), (24, 12, 8)]:
                fast = _simulate_seed(n, w, layers, mode, Convention.SYMMETRIC_CIRCULAR,
                                      SeededRng(40))
                dense = _dense_reachability(n, w, layers, mode,
                                            Convention.SYMMETRIC_CIRCULAR, SeededRng(40))
                assert np.array_equal(fast, dense), (mode, n, w)
            # the last case saturates by layer 3, so the engine fills the layers after
            assert np.all(dense[3:] == n), mode

    @pytest.mark.parametrize("mode", list(RoutingMode), ids=lambda m: m.value)
    def test_causal_neighbour_lists_match_dense_mask_propagation(self, mode):
        for n, w, layers in [(16, 4, 5), (33, 5, 6), (40, 1, 3), (24, 24, 3), (70, 9, 4),
                             (16, 16, 6), (12, 12, 8)]:
            fast = _simulate_seed(n, w, layers, mode, Convention.CAUSAL_ONE_SIDED, SeededRng(41))
            dense = _dense_reachability(n, w, layers, mode,
                                        Convention.CAUSAL_ONE_SIDED, SeededRng(41))
            assert np.array_equal(fast, dense), (mode, n, w)
        # the last case saturates (row i holds tokens 0..i) by layer 4, so the
        # engine fills the layers after
        assert np.all(dense[4:] == np.arange(1, n + 1)), mode

    @given(st.sampled_from(list(RoutingMode)), st.integers(1, 64).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(0, 6),
                            st.integers(0, 2**32 - 1))))
    @example(RoutingMode.SA, (1, 1, 6, 0))
    @example(RoutingMode.SA, (64, 2, 6, 1))
    @example(RoutingMode.SA, (64, 64, 6, 2))    # saturated at layer 1
    @example(RoutingMode.FUSED, (40, 3, 0, 3))
    def test_circular_engine_matches_dense_propagation(self, mode, case):
        # an SA layer's rows stay in the slot order of its permutation: every
        # later layer, saturated or not, reads them through it
        n, w, layers, seed = case
        fast = _simulate_seed(n, w, layers, mode, _CIRCULAR, SeededRng(seed))
        dense = _dense_reachability(n, w, layers, mode, _CIRCULAR, SeededRng(seed))
        assert np.array_equal(fast, dense)

    @given(st.integers(1, 96).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n), st.integers(1, 3), st.integers(0, 2**32 - 1))))
    @example((1, 1, 1, 0))
    @example((96, 96, 2, 1))
    def test_window_or_matches_roll_version(self, case):
        n, w, words, seed = case
        rows = np.asarray(SeededRng(seed).integers(0, 256, size=(n, 8 * words)), dtype=np.uint8)
        back, fwd = WindowSpec(w).offsets()
        assert np.array_equal(_window_or(rows, window_keys(n, WindowSpec(w))),
                              _roll_window_or_circular(rows, back, fwd))

    def test_propagation_stops_at_saturation(self, monkeypatch):
        # an SA or FUSED layer draws one permutation, under either convention
        draws = []
        draw = graphs.sample_permutation

        def counted(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(graphs, "sample_permutation", counted)
        layers = 12
        for convention, mode in ((_CIRCULAR, RoutingMode.SA),
                                 (Convention.CAUSAL_ONE_SIDED, RoutingMode.FUSED)):
            draws.clear()
            curve = simulate_reachability(256, 16, layers, mode, convention, rng=SeededRng(8))
            # one seed, saturated when every row holds all it can: all 256
            # tokens, or tokens 0..i for row i
            full = 1.0 if convention is _CIRCULAR else 257 / 512
            depth = layers_to_coverage(curve, full)
            assert depth is not None and depth < layers and len(draws) == depth, convention
            assert np.all(curve.mean[depth:] == full)

    def test_layer_zero_is_self_only(self):
        for mode in RoutingMode:
            curve = simulate_reachability(32, 4, 0, mode, _CIRCULAR, rng=SeededRng(1),
                                          n_seeds=3)
            assert curve.mean[0] == 1 / 32
            assert curve.lo[0] == curve.hi[0] == 1 / 32

    def test_swa_circular_closed_form(self):
        n, w, layers = 64, 8, 12
        curve = simulate_reachability(n, w, layers, RoutingMode.SWA, _CIRCULAR, rng=SeededRng(2))
        for ell in range(layers + 1):
            assert curve.mean[ell] == min(1.0, (ell * (w - 1) + 1) / n)

    def test_monotone_and_fused_dominates(self):
        n, w, layers = 128, 8, 6
        swa = simulate_reachability(n, w, layers, RoutingMode.SWA, _CIRCULAR, rng=SeededRng(3))
        fused = simulate_reachability(n, w, layers, RoutingMode.FUSED, _CIRCULAR,
                                      rng=SeededRng(3), n_seeds=4)
        sa = simulate_reachability(n, w, layers, RoutingMode.SA, _CIRCULAR,
                                   rng=SeededRng(3), n_seeds=4)
        for curve in (swa, fused, sa):
            assert np.all(np.diff(curve.mean) >= 0)
        assert np.all(fused.mean >= swa.mean - 1e-15)
        assert np.all(fused.mean >= sa.mean - 1e-15)

    def test_causal_convention_source_zero_never_grows(self):
        curve = simulate_reachability(24, 6, 5, RoutingMode.SA,
                                      Convention.CAUSAL_ONE_SIDED,
                                      rng=SeededRng(4), n_seeds=2)
        # token 0 can only ever see itself under causality
        assert np.all(curve.lo == 1 / 24)

    def test_sa_first_layer_reaches_exactly_w(self):
        curve = simulate_reachability(256, 16, 1, RoutingMode.SA, _CIRCULAR,
                                      rng=SeededRng(5), n_seeds=3)
        assert curve.mean[1] == 16 / 256
        assert curve.lo[1] == curve.hi[1] == 16 / 256

    def test_layers_to_coverage(self):
        n, w = 256, 16
        curve = simulate_reachability(n, w, 20, RoutingMode.SWA, _CIRCULAR, rng=SeededRng(6))
        assert layers_to_coverage(curve, 1 / n) == 0
        # growth is (w-1) per layer: ceil((n-1)/(w-1)) layers to saturate
        assert layers_to_coverage(curve, 1.0) == -(-(n - 1) // (w - 1))
        short = simulate_reachability(n, w, 2, RoutingMode.SWA, _CIRCULAR, rng=SeededRng(6))
        assert layers_to_coverage(short, 1.0) is None

    def test_per_seed_depths(self):
        curve = simulate_reachability(128, 16, 6, RoutingMode.SA, _CIRCULAR,
                                      rng=SeededRng(7), n_seeds=5)
        depths = per_seed_layers_to_coverage(curve, 1.0)
        assert depths.shape == (5,)
        assert np.all(np.isfinite(depths))
        assert np.all(depths >= 2)  # need at least log_w n layers


class TestExpansionBound:
    def test_single_source_collapses_to_w(self):
        assert expansion_lower_bound(1, 100, 7) == pytest.approx(7.0, abs=1e-12)

    def test_saturated_set_stays_put(self):
        assert expansion_lower_bound(50, 50, 9) == 50.0

    def test_against_exact_rational_evaluation(self):
        n, w, r = 1024, 16, 10
        got = expansion_lower_bound(r, n, w)
        p = Fraction(w - 1, n - 1)
        want = Fraction(r) + (n - r) * (1 - (1 - p) ** r)
        assert abs(got - float(want)) <= 1e-12 * float(want)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            expansion_lower_bound(0, 10, 3)
        with pytest.raises(ValueError):
            expansion_lower_bound(11, 10, 3)


class TestConnectionProbability:
    def test_exhaustive_s6_exact(self):
        assert connection_probability_exhaustive(6, 3) == 2 / 5

    def test_exhaustive_matches_analytic_small(self):
        for n, w in [(4, 2), (5, 3), (6, 4), (7, 3)]:
            assert connection_probability_exhaustive(n, w) == pytest.approx(
                connection_probability_analytic(n, w), abs=1e-15)

    def test_full_window_is_certain(self):
        est, stderr = connection_probability_mc(12, 12, 200, rng=SeededRng(8))
        assert est == 1.0
        assert stderr == 0.0

    @pytest.mark.parametrize("w,expected", [(1, 0.0), (40, 1.0)])
    def test_degenerate_windows_pass_the_check(self, w, expected):
        # w = 1 never shares a window and w = n always does: the estimate
        # is exact, its stderr 0, and the check's gate holds with no slack
        report = checks.connprob(SeededRng(w), n=40, w=w, trials=500)
        assert report["passed"] is True
        assert (report["measured"]["mc_estimate"], report["measured"]["mc_stderr"]) == (
            expected, 0.0)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_each_draw_names_one_ordered_pair_of_distinct_slots(self, n):
        a, b = _slot_pairs(np.arange(n * (n - 1)), n)
        assert sorted(zip(a.tolist(), b.tolist())) == [
            (i, j) for i in range(n) for j in range(n) if i != j]

    def test_permutation_puts_tokens_0_and_1_on_each_slot_pair_equally(self):
        # the law the pair draw replaces: over all n! orders, (p[0], p[1])
        # takes each ordered pair of distinct slots (n - 2)! times
        n = 5
        counts = Counter(p[:2] for p in itertools.permutations(range(n)))
        assert counts == {(i, j): math.factorial(n - 2)
                          for i in range(n) for j in range(n) if i != j}

    def test_mc_within_three_stderr(self):
        n, w = 64, 8
        est, stderr = connection_probability_mc(n, w, 10_000, rng=SeededRng(9))
        assert abs(est - (w - 1) / (n - 1)) <= 3 * stderr

    def test_causal_analytic_is_half(self):
        assert connection_probability_analytic(64, 8, causal=True) == pytest.approx(
            0.5 * connection_probability_analytic(64, 8))

    def test_analytic_needs_a_pair(self):
        with pytest.raises(ValueError):
            connection_probability_analytic(1, 1)

    def test_causal_mc(self):
        n, w = 64, 8
        est, _ = connection_probability_mc(n, w, 1500, causal=True, rng=SeededRng(10))
        target = (w - 1) / (2 * (n - 1))
        assert abs(est - target) <= 0.15 * target

    @pytest.mark.parametrize("n,w", [(2, 1), (2, 2), (9, 4), (16, 5), (31, 31), (64, 8)])
    def test_causal_trial_count_is_mask_count(self, n, w):
        # one trial's density against the off-diagonal ones of the dense
        # causally intersected stochastic mask for the same permutation
        for seed in range(20):
            p = sample_permutation(n, SeededRng(seed))
            mask = intersect_causal(build_stochastic_mask(n, WindowSpec(w), p))
            est, stderr = connection_probability_mc(n, w, 1, causal=True, rng=SeededRng(seed))
            assert (est, stderr) == ((int(mask.sum()) - n) / (n * (n - 1)), 0.0)

    @pytest.mark.parametrize("chunk_bytes", [1, 3000, numerics.MC_CHUNK_BYTES])
    @pytest.mark.parametrize("causal", [False, True])
    # w > 255 counts a slot's window keys past one byte; w = n is the whole ring
    @pytest.mark.parametrize("n,w,trials", [(2, 1, 9), (9, 4, 301), (128, 8, 777),
                                            (300, 300, 5), (600, 257, 3)])
    def test_chunked_mc_equals_one_by_one_loop(self, monkeypatch, chunk_bytes, causal,
                                               n, w, trials):
        monkeypatch.setattr(numerics, "MC_CHUNK_BYTES", chunk_bytes)
        got = connection_probability_mc(n, w, trials, causal=causal, rng=SeededRng(n + w))
        assert got == _loop_connection_probability_mc(n, w, trials, causal, SeededRng(n + w))

    def test_mc_needs_a_pair(self):
        for causal in (False, True):
            with pytest.raises(ValueError):
                connection_probability_mc(1, 1, 10, causal=causal, rng=SeededRng(0))
        with pytest.raises(ValueError):
            connection_probability_exhaustive(1, 1)

    def test_causal_mc_matches_dense_route(self):
        n, w, trials = 48, 7, 300
        rng = SeededRng(18)
        densities = []
        for _ in range(trials):
            mask = intersect_causal(build_stochastic_mask(n, WindowSpec(w),
                                                          sample_permutation(n, rng)))
            densities.append((int(mask.sum()) - n) / (n * (n - 1)))
        densities = np.array(densities)
        est, stderr = connection_probability_mc(n, w, trials, causal=True, rng=SeededRng(18))
        assert est == float(densities.mean())
        assert stderr == float(densities.std(ddof=1) / np.sqrt(trials))


def _without_loops(adj):
    adj = adj.copy()
    np.fill_diagonal(adj, False)
    return adj


def _oracle_path_length(adj):
    dist = shortest_path(csr_matrix(_without_loops(adj)), method="D", unweighted=True,
                         directed=False)
    return float(dist.sum()) / (adj.shape[0] * (adj.shape[0] - 1))


def _oracle_clustering(adj):
    a = _without_loops(adj).astype(np.float64)
    closed = float(((a @ a) * a).sum())          # = trace(A^3)
    deg = a.sum(axis=1)
    wedges2 = float((deg * (deg - 1.0)).sum())
    return closed / wedges2 if wedges2 > 0 else 0.0


@st.composite
def _random_graph(draw, connected):
    """Symmetric boolean adjacency on n in [2, 96] nodes with no self loops;
    ``connected`` adds a random spanning tree under the random edges."""
    n = draw(st.integers(2, 96))
    density = draw(st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = rng.random((n, n)) < density
    if connected:
        order = rng.permutation(n)
        for k in range(1, n):
            adj[order[k], order[rng.integers(k)]] = True
    adj = adj | adj.T
    np.fill_diagonal(adj, False)
    return adj


class TestGraphRoutesAgainstDense:
    """Bitset BFS and packed-row clustering against scipy's all-pairs
    shortest paths and the dense trace(A^3) formula: equal, not close."""

    @given(_random_graph(connected=True))
    def test_connected_graphs_match(self, adj):
        assert graph_path_length(*_edges(adj)) == _oracle_path_length(adj)
        assert graph_clustering(*_edges(adj)) == _oracle_clustering(adj)

    @given(_random_graph(connected=False))
    @example(np.array([[False, False], [False, False]]))
    def test_disconnected_graphs_name_the_same_node(self, adj):
        n_comp, labels = connected_components(csr_matrix(adj), directed=False)
        if n_comp == 1:
            assert _first_unreachable(*_edges(adj)) is None
            assert graph_path_length(*_edges(adj)) == _oracle_path_length(adj)
            return
        node = int(np.nonzero(labels != labels[0])[0][0])
        assert _first_unreachable(*_edges(adj)) == node
        with pytest.raises(DisconnectedGraphError) as err:
            graph_path_length(*_edges(adj))
        assert err.value.node == node

    def test_first_unreachable_walks_a_long_ring(self):
        # a ring of 1001 nodes takes 500 BFS levels; cut twice, it loses the
        # arc 301..700
        n = 1001
        ring = [(i, (i + 1) % n) for i in range(n)]

        def edges(pairs):
            a, b = np.array(pairs).T
            rows, cols = np.concatenate([a, b]), np.concatenate([b, a])
            order = np.argsort(rows, kind="stable")
            return n, rows[order], cols[order]

        assert _first_unreachable(*edges(ring)) is None
        assert _first_unreachable(*edges(ring[:500] + ring[501:])) is None
        assert _first_unreachable(*edges([e for e in ring if e[0] not in (300, 700)])) == 301

    def test_union_graphs_match(self):
        for n, w in [(64, 4), (200, 16), (129, 7)]:
            union = symmetrize(layer_mask(n, w, RoutingMode.FUSED,
                                          Convention.SYMMETRIC_CIRCULAR, SeededRng(n)))
            assert graph_path_length(*_edges(union)) == _oracle_path_length(union)
            assert graph_clustering(*_edges(union)) == _oracle_clustering(union)

    @pytest.mark.parametrize("gather_bytes", [1, 200, 4096])
    def test_row_blocks_match(self, monkeypatch, gather_bytes):
        # the n = 96 graphs fit one gather block at the default size; force
        # many, down to one row per block
        from stochattn import graphs
        monkeypatch.setattr(graphs, "_GATHER_BYTES", gather_bytes)
        rng = np.random.default_rng(25)
        for n, density in [(96, 0.05), (70, 0.3), (33, 0.0)]:
            adj = rng.random((n, n)) < density
            adj[np.arange(1, n), rng.integers(np.arange(1, n))] = True    # a spanning tree
            adj = adj | adj.T
            assert graph_path_length(*_edges(adj)) == _oracle_path_length(adj)
            assert graph_clustering(*_edges(adj)) == _oracle_clustering(adj)
        for mode in RoutingMode:
            fast = _simulate_seed(50, 6, 4, mode, Convention.CAUSAL_ONE_SIDED, SeededRng(26))
            dense = _dense_reachability(50, 6, 4, mode, Convention.CAUSAL_ONE_SIDED,
                                        SeededRng(26))
            assert np.array_equal(fast, dense), mode

    @given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @example(1, 1, 0)
    @example(3, 70, 1)    # a full row of 4480 bits
    def test_word_popcount_matches_byte_table(self, rows, words, seed):
        packed = np.random.default_rng(seed).integers(0, 256, size=(rows, 8 * words),
                                                      dtype=np.uint8)
        packed[0] = 255    # every bit of every word set
        oracle = np.take(_BYTE_POPCOUNT, packed).sum(axis=1, dtype=np.int64)
        with np.errstate(all="raise"):
            assert np.array_equal(_popcount_rows(packed), oracle)

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match="needs n >= 2"):
            graph_path_length(*_edges(np.zeros((1, 1), dtype=bool)))

    def test_path_length_memory_is_bounded(self):
        # scipy's float64 distance matrix alone is 128 MB at n = 4096
        n, w = 4096, 16
        union = symmetrize(layer_mask(n, w, RoutingMode.FUSED, Convention.SYMMETRIC_CIRCULAR,
                                      SeededRng(23)))
        tracemalloc.start()
        try:
            length = graph_path_length(*_edges(union))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1.0 < length < 10.0
        assert peak < 64 * 2**20


class TestSmallWorld:
    def test_complete_graph(self):
        adj = ~np.eye(7, dtype=bool)
        m = smallworld_metrics(*_edges(adj), SeededRng(11), baselines=3)
        assert m.clustering == pytest.approx(1.0)
        assert m.path_length == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_ring_lattice_formula(self, k):
        n = 64
        adj = symmetrize(build_window_mask(n, WindowSpec(2 * k + 1,
                                                         Convention.SYMMETRIC_CIRCULAR)))
        np.fill_diagonal(adj, False)
        assert graph_clustering(*_edges(adj)) == pytest.approx(ring_lattice_clustering(k),
                                                               abs=1e-12)

    def test_path_length_oracle_chain(self):
        # path graph 0-1-2-3: ordered distances sum to 20 over 12 pairs
        adj = np.zeros((4, 4), dtype=bool)
        for i in range(3):
            adj[i, i + 1] = adj[i + 1, i] = True
        assert graph_path_length(*_edges(adj)) == pytest.approx(20 / 12)

    def test_clustering_oracle_square_with_diagonal(self):
        # 4-cycle plus one chord: 2 triangles, degree sequence [3,2,3,2]
        adj = np.zeros((4, 4), dtype=bool)
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        for i, j in edges:
            adj[i, j] = adj[j, i] = True
        assert graph_clustering(*_edges(adj)) == pytest.approx(12 / 16)

    def test_disconnected_graph_names_node(self):
        adj = np.zeros((5, 5), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[2, 3] = adj[3, 2] = True
        with pytest.raises(DisconnectedGraphError) as err:
            graph_path_length(*_edges(adj))
        assert err.value.node == 2

    def test_asymmetric_rejected(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            graph_clustering(*_edges(adj))

    def test_union_graph_shortcut_regime(self):
        # adding the permuted window keeps clustering comparable while
        # collapsing the path length; full-size medians are in acceptance
        n, w = 256, 16
        window = build_window_mask(n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR))
        ring = symmetrize(window)
        np.fill_diagonal(ring, False)
        rng = SeededRng(12)
        perm = sample_permutation(n, rng)
        from stochattn import build_stochastic_mask
        union = symmetrize(window | build_stochastic_mask(
            n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR), perm))
        np.fill_diagonal(union, False)
        ring, union = _edges(ring), _edges(union)
        c_ring, l_ring = graph_clustering(*ring), graph_path_length(*ring)
        c_union, l_union = graph_clustering(*union), graph_path_length(*union)
        assert l_union < l_ring / 2
        assert c_union > c_ring / 2

    def test_random_baseline_edges_match_dense_construction(self):
        # the edge lists against the pair table the baselines were drawn from;
        # a draw that leaves a node isolated is refused as None
        from stochattn.graphs import _random_graph_same_edges
        refused = 0
        for n, n_edges in [(2, 1), (9, 20), (40, 100), (64, 2016), (9, 4), (40, 60)]:
            edges = _random_graph_same_edges(n, n_edges, SeededRng(n))
            iu, ju = np.triu_indices(n, 1)
            sel = SeededRng(n).choice(iu.size, size=n_edges, replace=False)
            want = np.zeros((n, n), dtype=bool)
            want[iu[sel], ju[sel]] = True
            want |= want.T
            assert (edges is None) == (not want.any(axis=1).all())
            if edges is None:
                refused += 1
                continue
            rows, cols = edges
            got = np.zeros((n, n), dtype=bool)
            got[rows, cols] = True
            assert np.array_equal(got, want)
            assert rows.size == 2 * n_edges and np.all(np.diff(rows) >= 0)
        assert refused == 1

    def test_smallworld_names_the_node_the_path_length_names(self):
        # the O(n + m) connectivity test against the all-pairs BFS's report
        rng = np.random.default_rng(27)
        for n, density in [(30, 0.2), (50, 0.1), (12, 0.3), (40, 0.06), (64, 0.05)]:
            side = rng.random(n) < 0.3          # no edge joins the two sides
            side[0], side[-1] = False, True
            adj = (rng.random((n, n)) < density) & (side[:, None] == side)
            adj = adj | adj.T
            np.fill_diagonal(adj, False)
            with pytest.raises(DisconnectedGraphError) as want:
                graph_path_length(*_edges(adj))
            with pytest.raises(DisconnectedGraphError) as got:
                smallworld_metrics(*_edges(adj), SeededRng(n), baselines=2)
            assert got.value.node == want.value.node

    def test_too_sparse_for_a_connected_baseline(self):
        # a 64-cycle: a random graph with 64 edges on 64 nodes is almost never connected
        adj = symmetrize(build_window_mask(64, WindowSpec(2, Convention.SYMMETRIC_CIRCULAR)))
        np.fill_diagonal(adj, False)
        with pytest.raises(NoConnectedBaselineError, match="64 edges"):
            smallworld_metrics(*_edges(adj), SeededRng(24), baselines=2)

    def test_smallworldness_fields(self):
        n, w = 128, 10
        adj = symmetrize(build_window_mask(n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR)))
        np.fill_diagonal(adj, False)
        m = smallworld_metrics(*_edges(adj), SeededRng(13), baselines=5)
        assert m.clustering_rand == pytest.approx(m.mean_degree / (n - 1))
        assert m.path_length_rand > 1.0
        assert m.small_worldness > 0.0


def _dense_smallworld(rng, n=512, w=16, seeds=10):
    """Oracle: ``checks.smallworld`` on dense masks, the route it replaced."""
    ring = symmetrize(layer_mask(n, w, RoutingMode.SWA, Convention.SYMMETRIC_CIRCULAR, rng))
    ring_c = graph_clustering(*_edges(ring))
    formula = ring_lattice_clustering(w // 2)
    swa_l = graph_path_length(*_edges(ring))
    cs, ls = [], []
    for s in range(seeds):
        union = symmetrize(layer_mask(n, w, RoutingMode.FUSED, Convention.SYMMETRIC_CIRCULAR,
                                      rng.child(0, s)))
        cs.append(graph_clustering(*_edges(union)))
        ls.append(graph_path_length(*_edges(union)))
    med_c, med_l = float(np.median(cs)), float(np.median(ls))
    passed = abs(ring_c - formula) < 1e-12 and med_l < swa_l / 2 and med_c > ring_c / 2
    return {"name": "smallworld", "passed": passed,
            "measured": {"ring_clustering": ring_c, "ring_formula": formula,
                         "swa_path_length": swa_l, "union_median_clustering": med_c,
                         "union_median_path_length": med_l}}


_SMALLWORLD_POSITION = list(checks.CHECKS).index("smallworld")


class TestLayerEdges:
    """Edge lists built from neighbour tables against the dense masks they
    replace: equal arrays, and the same draws from the stream."""

    @given(st.sampled_from(list(RoutingMode)), st.sampled_from(list(Convention)),
           st.integers(2, 96).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))),
           st.integers(0, 2**32 - 1))
    @example(RoutingMode.FUSED, Convention.SYMMETRIC_CIRCULAR, (2, 2), 0)
    @example(RoutingMode.SA, Convention.SYMMETRIC_CIRCULAR, (96, 96), 1)
    @example(RoutingMode.SWA, Convention.SYMMETRIC_CIRCULAR, (5, 1), 2)
    def test_matches_symmetrized_layer_mask(self, mode, convention, size, seed):
        n, w = size
        fast_rng, dense_rng = SeededRng(seed), SeededRng(seed)
        got_n, got_rows, got_cols = layer_edges(n, w, mode, convention, fast_rng)
        want_n, want_rows, want_cols = _edges(symmetrize(layer_mask(n, w, mode, convention,
                                                                    dense_rng)))
        assert got_n == want_n
        assert np.array_equal(got_rows, want_rows) and np.array_equal(got_cols, want_cols)
        assert fast_rng.integers(0, 2**62) == dense_rng.integers(0, 2**62)

    @pytest.mark.parametrize("seed", range(8))
    def test_smallworld_check_matches_dense_route(self, seed):
        stream = SeededRng(seed).child(_SMALLWORLD_POSITION, 0)
        oracle_stream = SeededRng(seed).child(_SMALLWORLD_POSITION, 0)
        assert checks.smallworld(stream) == _dense_smallworld(oracle_stream)

    def test_smallworld_check_builds_no_dense_mask(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("the small-world check must not build a dense mask")

        for module, name in [(graphs, "layer_mask"), (graphs, "build_window_mask"),
                             (graphs, "build_stochastic_mask"), (masks, "build_window_mask"),
                             (masks, "build_stochastic_mask")]:
            monkeypatch.setattr(module, name, dense)
        assert checks.smallworld(SeededRng(0).child(_SMALLWORLD_POSITION, 0))["passed"]


def _dft(n):
    """The DFT columns f_j[k] = exp(2 pi i jk/n), built as the spectrum check builds them."""
    k = np.arange(n)
    return np.exp(2j * np.pi * (np.outer(k, k) % n) / n)


class TestSpectrum:
    def test_n4_w3_closed_values(self):
        report = circulant_spectrum(4, 3)
        got = np.sort(report.eigenvalues.real)
        np.testing.assert_allclose(got, [-1 / 3, 1 / 3, 1 / 3, 1.0], atol=1e-12)
        assert np.abs(report.eigenvalues.imag).max() <= 1e-12
        assert report.lambda2 == pytest.approx(1 / 3)

    def test_row_stochastic_top_eigenvalue(self):
        for n, w in [(16, 3), (32, 8), (11, 11)]:
            report = circulant_spectrum(n, w)
            assert abs(report.eigenvalues[0] - 1.0) <= 1e-9

    @pytest.mark.parametrize("n,w", [(32, 5), (32, 8), (48, 7)])
    def test_dft_matches_dense_eigensolver(self, n, w):
        report = circulant_spectrum(n, w)
        walk = build_window_mask(n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR)) / w
        assert checks._eigen_residual(walk, _dft(n), report.eigenvalues) <= 1e-12
        # the pairs' eigenvalues are the dense eigensolver's, in some order
        dense = np.linalg.eigvals(walk)
        gaps = np.abs(dense[:, None] - report.eigenvalues[None, :])
        assert gaps.min(axis=0).max() <= 1e-9 and gaps.min(axis=1).max() <= 1e-9

    def test_permutation_similarity_preserves_spectrum(self):
        rng = SeededRng(14)
        report = circulant_spectrum(32, 6)
        for _ in range(5):
            perm = sample_permutation(32, rng)
            walk = permuted_transition_matrix(32, 6, perm)
            assert checks._eigen_residual(walk, _dft(32)[perm.forward],
                                          report.eigenvalues) <= 1e-12

    def test_wrong_permutation_columns_are_no_eigenvectors(self):
        # the negative control: the DFT columns read at the slots of another
        # draw's tokens do not diagonalise the walk
        rng = SeededRng(15)
        report = circulant_spectrum(32, 6)
        for _ in range(5):
            perm, other = sample_permutation(32, rng), sample_permutation(32, rng)
            walk = permuted_transition_matrix(32, 6, perm)
            for slots in (other.forward, perm.inverse):
                assert checks._eigen_residual(walk, _dft(32)[slots], report.eigenvalues) >= 0.1

    def test_transition_matrix_rows_normalized(self):
        mask = build_window_mask(12, WindowSpec(5, Convention.SYMMETRIC_CIRCULAR))
        t = transition_matrix(mask)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)
        with pytest.raises(ValueError):
            transition_matrix(np.zeros((3, 3)))

    @pytest.mark.parametrize("module", ["scipy.optimize", "dataclasses"])
    def test_import_leaves_the_assignment_solver_unloaded(self, module):
        # scipy.optimize, the assignment solver an earlier spectrum check
        # used, is most of a cold import's time and memory. dataclasses builds
        # each class's methods with exec, which took about 1 ms a class and
        # most of a warm import
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import stochattn, stochattn.cli; "
                "print(sys.argv[2] in sys.modules)")
        src = str(Path(stochattn.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", code, src, module], capture_output=True,
                             text=True, timeout=120, check=True)
        assert run.stdout.strip() == "False"

    def test_commands_leave_scipy_unloaded(self, tmp_path):
        # scipy is the tests' oracle only: no command loads it, so a cold run
        # pays for numpy alone
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import stochattn.cli; "
                "codes = [stochattn.cli.main(['--out', sys.argv[2], *args]) for args in "
                "(['verify'], ['smallworld', '--n', '64', '--w', '4', '--seeds', '2', "
                "'--baselines', '2'])]; "
                "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(stochattn.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", code, src, str(tmp_path)],
                             capture_output=True, text=True, timeout=300, check=True)
        assert run.stdout.splitlines()[-1] == "[0, 0] []"


class _IdentityPermRng(SeededRng):
    def permutation(self, n):
        return np.arange(n)

    def child(self, layer, step):
        return _IdentityPermRng(0)


class TestMixing:
    def test_identity_permutations_give_circulant_power(self):
        n, w, depth = 24, 5, 3
        report = multilayer_mixing(n, w, depth, 1, _IdentityPermRng(0))
        circ = build_window_mask(n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR)).astype(float) / w
        power = np.linalg.matrix_power(circ, depth)
        lam2 = np.sort(np.abs(np.linalg.eigvals(power)))[-2]
        assert report.product_lambda2[0] == pytest.approx(lam2, abs=1e-9)

    def test_single_layer_is_similarity(self):
        report = multilayer_mixing(48, 6, 1, 6, SeededRng(15))
        np.testing.assert_allclose(report.product_lambda2, report.circulant_lambda2,
                                   atol=1e-9)

    def test_depth_three_mixes_faster(self):
        report = multilayer_mixing(128, 8, 3, 8, SeededRng(16))
        assert report.median_product_lambda2 < report.circulant_lambda2_pow_depth


class TestCostModel:
    def test_doubling_ratios(self):
        w, d = 64, 128
        for n in (1024, 4096, 16384):
            a, b = cost_model(n, w, d), cost_model(2 * n, w, d)
            assert b.flops["full"] / a.flops["full"] == pytest.approx(4.0, rel=0.01)
            assert b.flops["sa"] / a.flops["sa"] == pytest.approx(2.0, rel=0.01)
            assert b.flops["swa"] / a.flops["swa"] == pytest.approx(2.0, rel=0.01)

    def test_fused_attention_is_exactly_twice_sa(self):
        r = cost_model(2048, 128, 512)
        assert r.attention_flops["fused"] == 2 * r.attention_flops["sa"]
        assert r.flops["fused"] == r.attention_flops["fused"] + r.gate_flops

    def test_documented_formula(self):
        n, w, d = 100, 10, 8
        r = cost_model(n, w, d)
        assert r.flops["full"] == 4 * n * n * d + 5 * n * n
        assert r.flops["sa"] == 4 * n * w * d + 5 * n * w
        assert r.gate_flops == 4 * n * d * d + 5 * n * d

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            cost_model(0, 4, 4)

    def test_window_wider_than_sequence_rejected(self):
        assert cost_model(16, 16, 8).flops["sa"] == cost_model(16, 16, 8).flops["full"]
        with pytest.raises(ValueError):
            cost_model(16, 17, 8)


class TestConnectomeDepth:
    def test_reference_point(self):
        assert connectome_depth_prediction(130_000, 21) == 4

    def test_degenerate_cases(self):
        assert connectome_depth_prediction(50, 50) == 1
        assert connectome_depth_prediction(2048, 32) == 3
        assert connectome_depth_prediction(1024, 32) == 2  # exact power

    def test_validation(self):
        with pytest.raises(ValueError):
            connectome_depth_prediction(100, 1)
