"""Graph-level analysis of attention routing: receptive-field growth,
pairwise connection probability, small-world statistics, spectral mixing of
the induced random walks, and an analytic FLOP cost model.

Reachability and path lengths are exact multi-source BFS over packed
bitsets (one bit per token, one row per source). Under the circular
convention each layer gathers the rows of its ``masks.window_keys`` table
once and propagates with O(log w) shifted ORs; the causal convention ORs the
rows of each token's ``masks.window_neighbours`` entries, and arbitrary
graphs those of each node's neighbour list. Small-world graphs are edge
lists built from the same neighbour tables. No route builds an n x n array;
dense masks serve as test oracles and for mask images.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import NamedTuple

import numpy as np

from .masks import (Convention, WindowSpec, build_stochastic_mask, build_window_mask,
                    check_window, intersect_causal, window_keys, window_neighbours)
from .numerics import SeededRng, chunk_trials, trial_chunks
from .permute import Permutation, inverse_rows, sample_permutation


class RoutingMode(enum.Enum):
    SWA = "swa"
    SA = "sa"
    FUSED = "fused"


# ---------------------------------------------------------------------------
# Receptive-field simulation
# ---------------------------------------------------------------------------


class CoverageCurve(NamedTuple):
    """Per-layer receptive-field coverage, aggregated over sources and seeds.

    ``mean[l]`` is the mean coverage fraction |R_l(i)|/n over all sources i
    and all seeds; ``lo/median/hi`` are pooled percentiles over the same;
    ``seed_mean[s, l]`` is the per-seed mean over sources, which is what
    per-seed depth statistics and standard errors are computed from.
    """

    n: int
    w: int
    mode: RoutingMode
    convention: Convention
    n_seeds: int
    layers: np.ndarray
    mean: np.ndarray
    lo: np.ndarray
    median: np.ndarray
    hi: np.ndarray
    seed_mean: np.ndarray

    def mean_stderr(self) -> np.ndarray:
        """Standard error of the per-layer mean across seeds (0 for 1 seed)."""
        if self.n_seeds < 2:
            return np.zeros_like(self.mean)
        return self.seed_mean.std(axis=0, ddof=1) / math.sqrt(self.n_seeds)


def _packed_rows(n: int) -> np.ndarray:
    """n zeroed bit rows of n bits (bit j in byte j >> 3, bit j & 7), padded
    with zero bytes to whole 64-bit words, so they can be ORed and counted
    as ``np.uint64``."""
    return np.zeros((n, 8 * ((n + 63) // 64)), dtype=np.uint8)


def _pack_identity(n: int) -> np.ndarray:
    """Row i holds bit i."""
    r = _packed_rows(n)
    rows = np.arange(n)
    r[rows, rows >> 3] |= (np.uint8(1) << (rows & 7).astype(np.uint8))
    return r


def _popcount_rows(packed: np.ndarray) -> np.ndarray:
    """Set bits per row of word-padded packed rows."""
    return np.bitwise_count(packed.view(np.uint64)).sum(axis=1, dtype=np.int64)


# Bytes of neighbour rows gathered at once by _or_neighbours: bounds its
# memory whatever the graph's size or degree.
_GATHER_BYTES = 1 << 22


def _or_neighbours(reached: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
                   out: np.ndarray) -> None:
    """One BFS step over neighbour lists: ``out[i]`` is the OR of the rows
    ``reached[indices[indptr[i]:indptr[i+1]]]``. Every list must be non-empty
    (each holds the node itself)."""
    n, nbytes = reached.shape
    words, out_words = reached.view(np.uint64), out.view(np.uint64)
    per_block = max(1, _GATHER_BYTES // nbytes)
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(indptr, indptr[lo] + per_block, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        start = indptr[lo]
        gathered = words[indices[start:indptr[hi]]]
        out_words[lo:hi] = np.bitwise_or.reduceat(gathered, indptr[lo:hi] - start, axis=0)
        lo = hi


def _window_or(s: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Row p: the OR of rows ``keys[p .. p+w-1]`` of s, for the n = s.shape[0]
    slots of a ``window_keys`` table, gathered once and ORed in place."""
    n = s.shape[0]
    width = keys.size - n + 1
    buf = np.take(s, keys, axis=0)
    covered = 1
    while covered < width:
        step = min(covered, width - covered)
        buf[:-step] |= buf[step:]
        covered += step
    return buf[:n]


def layer_mask(n: int, w: int, mode: RoutingMode, convention: Convention,
               rng: SeededRng) -> np.ndarray:
    """Dense mask of one layer: the window (SWA), the permuted window drawn
    from ``rng`` and, under the one-sided convention, made causal (SA), or
    their union (FUSED). The test oracle of ``_layer_neighbours`` and
    ``layer_edges``, and what ``maskviz`` draws."""
    spec = WindowSpec(w, convention)
    window = build_window_mask(n, spec)
    if mode is RoutingMode.SWA:
        return window
    perm = sample_permutation(n, rng)
    stoch = build_stochastic_mask(n, spec, perm)
    if convention is Convention.CAUSAL_ONE_SIDED:
        stoch = intersect_causal(stoch)
    if mode is RoutingMode.SA:
        return stoch
    return window | stoch


def layer_mask_cost(n: int, svg: bool) -> tuple[int, int]:
    """Estimated (bytes, cell visits) of drawing a ``layer_mask`` or the full
    causal mask and writing it: at most four n x n boolean masks at once (the
    window, the permuted window, the causal filter and its result; a written
    copy comes after), about 64 bytes a token of permutation and band index
    arrays, for an SVG image about 300 bytes of text a cell (its element, the
    joined document and its copy), and about eight passes over the n^2 cells."""
    return 4 * n * n + 64 * n + (300 * n * n if svg else 0), 8 * n * n


def _layer_neighbours(n: int, w: int, mode: RoutingMode, convention: Convention,
                     rng: SeededRng) -> np.ndarray:
    """Row i lists the tokens that token i attends to in one layer (the
    nonzero columns of row i of ``layer_mask``), possibly repeated, and under
    the one-sided convention padded with i itself; SA and FUSED draw their
    permutation from ``rng`` as ``layer_mask`` does."""
    spec = WindowSpec(w, convention)
    local = window_neighbours(n, spec)
    if mode is RoutingMode.SWA:
        return local
    stoch = window_neighbours(n, spec, sample_permutation(n, rng))
    if convention is Convention.CAUSAL_ONE_SIDED:
        tokens = np.arange(n)[:, None]
        stoch = np.where(stoch <= tokens, stoch, tokens)
    if mode is RoutingMode.SA:
        return stoch
    return np.hstack([local, stoch])


def layer_edges(n: int, w: int, mode: RoutingMode, convention: Convention,
                rng: SeededRng) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, rows, cols) of the undirected graph of one layer, equal to
    ``_edges(symmetrize(layer_mask(...)))`` and drawing from ``rng`` as it
    does, built from ``_layer_neighbours`` in O(n*w log(n*w)): self-loops
    dropped, both directions of every (token, neighbour) pair keyed
    row * n + col, sorted once, repeats dropped."""
    table = _layer_neighbours(n, w, mode, convention, rng)
    tokens = np.repeat(np.arange(n), table.shape[1])
    nbrs = table.ravel()
    off = tokens != nbrs
    tokens, nbrs = tokens[off], nbrs[off]
    keys = np.concatenate([tokens * n + nbrs, nbrs * n + tokens])
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    rows, cols = np.divmod(keys, n)
    return n, rows, cols


def _simulate_seed(n: int, w: int, layers: int, mode: RoutingMode, convention: Convention,
                   rng: SeededRng) -> np.ndarray:
    """(layers + 1, n) reached counts of one seed, row l after l layers.

    A circular layer ORs the rows of each slot's ``window_keys`` in O(log w)
    shifted ORs, of the permuted table for SA (a permutation drawn from
    ``rng``); a causal layer ORs the rows of each token's
    ``_layer_neighbours``. Row i can reach every token (circular) or tokens
    0..i (causal); the run stops once every row holds all it can, which
    every later layer keeps, and fills the remaining rows with that count."""
    circular = convention is Convention.SYMMETRIC_CIRCULAR
    local = window_keys(n, WindowSpec(w)) if circular else None
    full = np.full(n, n) if circular else np.arange(1, n + 1)
    reached = _pack_identity(n)
    counts = np.empty((layers + 1, n), dtype=np.int64)
    counts[0] = 1
    for ell in range(1, layers + 1):
        if not circular:
            table = _layer_neighbours(n, w, mode, convention, rng)
            step = np.empty_like(reached)
            _or_neighbours(reached, np.arange(0, table.size + 1, table.shape[1]), table.ravel(),
                           step)
        elif mode is RoutingMode.SWA:
            step = _window_or(reached, local)
        else:
            perm = sample_permutation(n, rng)
            step = _window_or(reached, window_keys(n, WindowSpec(w), perm.inverse))[perm.forward]
            if mode is RoutingMode.FUSED:
                step |= _window_or(reached, local)
        reached = step
        counts[ell] = _popcount_rows(reached)
        if np.array_equal(counts[ell], full):
            counts[ell + 1:] = full
            break
    return counts


def simulate_reachability(
    n: int,
    w: int,
    layers: int,
    mode: RoutingMode,
    convention: Convention,
    rng: SeededRng,
    n_seeds=1,
) -> CoverageCurve:
    """Propagate exact per-source reachability through ``layers`` attention
    layers and report coverage fractions.

    SA and FUSED draw a fresh permutation per layer; FUSED propagates over
    the union of the local window and the permuted window. ``n_seeds`` is
    either a count (seed indices 0..N-1) or an explicit sequence of seed
    indices; each index s runs on the independent stream child(s, 0) of
    ``rng``. SWA is deterministic, so a single simulation is shared across
    seeds.

    A seed's simulation stops at saturation, once every source reaches every
    token it can (all n circular, tokens 0..i for source i causal): later
    layers cannot change the reached sets, so their counts are known. Only
    that seed's own stream then skips its remaining permutation draws, so no
    reported number changes; the cost grows with the saturation depth (about
    log_w n for SA), not with ``layers``.
    """
    if layers < 0:
        raise ValueError("layers must be >= 0")
    check_window(n, w)
    seed_indices = list(range(n_seeds)) if isinstance(n_seeds, int) else [int(s) for s in n_seeds]
    if not seed_indices:
        raise ValueError("need at least one seed")
    # layer-major, so each layer's seeds x n fractions are one contiguous row
    frac = np.empty((layers + 1, len(seed_indices), n))
    if mode is RoutingMode.SWA:
        frac[:] = _simulate_seed(n, w, layers, mode, convention,
                                 rng.child(seed_indices[0], 0))[:, None]
    else:
        for k, s in enumerate(seed_indices):
            frac[:, k] = _simulate_seed(n, w, layers, mode, convention, rng.child(s, 0))
    frac /= n
    pooled = frac.reshape(layers + 1, -1)
    mean, lo, hi = pooled.mean(axis=1), pooled.min(axis=1), pooled.max(axis=1)
    # C order: std over seeds (mean_stderr) then adds whole rows, one seed at a time
    seed_mean = np.ascontiguousarray(frac.mean(axis=2).T)
    return CoverageCurve(
        n=n, w=w, mode=mode, convention=convention, n_seeds=len(seed_indices),
        layers=np.arange(layers + 1), mean=mean, lo=lo,
        # last: it reorders each layer's row of frac in place
        median=np.median(pooled, axis=1, overwrite_input=True),
        hi=hi, seed_mean=seed_mean,
    )


def reachability_cost(n: int, w: int, layers: int, seeds: int, modes,
                      convention: Convention) -> tuple[int, int]:
    """Estimated (bytes, word ORs) of ``simulate_reachability`` over ``seeds``
    seeds for each mode in ``modes``. A curve holds its seeds'
    (layers + 1) x n float64 fractions once, one seed's int64 counts while
    that seed runs, and three seeds x (layers + 1) float64 arrays of per-seed
    means (the last curve's, the new means and their contiguous copy). A
    seed's simulation holds packed reachability rows of n bits in whole
    64-bit words: about 5n + 3w of them under the circular convention (the
    rows, the next rows, two gathered OR buffers of n + w - 1 rows and the
    overlap copy of an in-place OR) and four int64 arrays of about n (the
    layer's permutation, its inverse and two window-key tables), and two
    sets of n under the causal one, with three n x 2w (n x w
    without FUSED) int64 neighbour tables and two gathers of up to
    _GATHER_BYTES or one token's neighbour rows. Per seed and layer each row
    ORs about 2 log2(w) + 4 rows (circular: shifted doublings and gathers),
    or one row per neighbour (causal); every layer is counted, as a seed
    need not saturate before the last."""
    words = -(-n // 64)
    width = 2 * w if RoutingMode.FUSED in modes else w
    if convention is Convention.CAUSAL_ONE_SIDED:
        rows = 2 * n * 8 * words + 3 * n * width * 8 + 2 * max(_GATHER_BYTES, width * 8 * words)
        per_row = width
    else:
        rows = (5 * n + 3 * w) * 8 * words + 4 * n * 8
        per_row = 2 * w.bit_length() + 4
    return ((seeds + 1) * (layers + 1) * n * 8 + 3 * seeds * (layers + 1) * 8 + rows,
            len(modes) * seeds * layers * n * words * per_row)


def layers_to_coverage(curve: CoverageCurve, threshold: float) -> int | None:
    """First layer whose mean coverage reaches ``threshold``; None if never."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    hit = np.nonzero(curve.mean >= threshold)[0]
    return int(hit[0]) if hit.size else None


def per_seed_layers_to_coverage(curve: CoverageCurve, threshold: float) -> np.ndarray:
    """Per-seed first layer reaching ``threshold`` mean coverage (inf if never)."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    hit = curve.seed_mean >= threshold
    return np.where(hit.any(axis=1), hit.argmax(axis=1), np.inf)


def expansion_lower_bound(r: int, n: int, w: int) -> float:
    """Expected reachable-set size after one more stochastic layer, given the
    current set has size r: at least r + (n-r) * (1 - (1-(w-1)/(n-1))^r)."""
    if not 1 <= r <= n:
        raise ValueError(f"r must satisfy 1 <= r <= n, got r={r}, n={n}")
    p = (w - 1) / (n - 1)
    return r + (n - r) * (1.0 - (1.0 - p) ** r)


# ---------------------------------------------------------------------------
# Connection probability
# ---------------------------------------------------------------------------


def connection_probability_analytic(n: int, w: int, causal: bool = False) -> float:
    """(w-1)/(n-1) for a fixed token pair; halved when the mask is also
    filtered to causally accessible tokens."""
    if n < 2:
        raise ValueError(f"a token pair needs n >= 2, got n={n}")
    p = (w - 1) / (n - 1)
    return p / 2.0 if causal else p


def _circular_hits(a, b, n: int, back: int, fwd: int):
    """Whether slots b lie in the circular windows of slots a, elementwise."""
    off = (b - a) % n
    return (off <= fwd) | (off >= n - back)


def _slot_pairs(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ordered pairs (a, b) of distinct slots that draws k in
    [0, n(n-1)) index: a = k // (n-1), and b is the r = k % (n-1)-th slot
    other than a. Each pair has exactly one k."""
    a, b = np.divmod(k, n - 1)
    b += b >= a
    return a, b


def _connprob_trial_bytes(n: int, w: int, causal: bool) -> int:
    """A trial's largest array: its int64 pair draw, or causal, its n x w
    boolean window comparisons when they are larger."""
    return n * max(w, 8) if causal else 8


def connection_probability_mc(
    n: int, w: int, trials: int, causal: bool = False, *, rng: SeededRng,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the stochastic-window connection probability.

    Non-causal: the indicator that tokens 0 and 1 share a window, averaged
    over trials. The indicator reads only the two tokens' slots, so a trial
    draws that pair alone: one ``integers`` draw k, uniform on the n(n-1)
    ordered pairs of distinct slots (``_slot_pairs``). That is the law of
    (p[0], p[1]) under a uniform permutation p, as each pair is completed by
    the same (n-2)! orders of the other tokens. n(n-1) must fit an int64.
    Causal: the mean off-diagonal density of the causally intersected
    stochastic mask, counted in O(n*w) per trial with no mask built.
    Returns (estimate, stderr).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 2:
        raise ValueError(f"a token pair needs n >= 2, got n={n}")
    spec = WindowSpec(w, Convention.SYMMETRIC_CIRCULAR)
    per_trial = _connprob_trial_bytes(n, w, causal)
    if not causal:
        back, fwd = spec.offsets()
        hits = 0
        for lo, hi in trial_chunks(trials, per_trial):
            a, b = _slot_pairs(rng.integers(0, n * (n - 1), size=hi - lo), n)
            hits += int(np.count_nonzero(_circular_hits(a, b, n, back, fwd)))
        est = hits / trials
        stderr = math.sqrt(est * (1.0 - est) / trials)
        return est, stderr
    densities = np.empty(trials)
    off_cells = n * (n - 1)
    for lo, hi in trial_chunks(trials, per_trial):
        # the mask's ones are the (slot a, window slot) pairs whose slot holds
        # a token no later than slot a's; the n diagonal ones are a itself
        tok = inverse_rows(rng.permutations(hi - lo, n))
        keys = np.lib.stride_tricks.sliding_window_view(window_keys(n, spec, tok), w, axis=1)
        kept = keys <= tok[:, :, None]
        densities[lo:hi] = (np.count_nonzero(kept, axis=(1, 2)) - n) / off_cells
    est = float(densities.mean())
    stderr = float(densities.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return est, stderr


def connection_probability_cost(n: int, w: int, trials: int, causal: bool) -> tuple[int, int]:
    """Estimated (bytes, entries) of ``connection_probability_mc``, trials
    running in chunks of t. Non-causal, a trial draws one ordered pair of
    distinct slots, uniform as the slots of tokens 0 and 1 under a uniform
    permutation are, so no array grows with n: a chunk holds at most five
    t-long int64 arrays (its draw, its pair and the last chunk's pair) and
    three booleans (the two window tests and their OR), after the check's
    enumeration of the 720 orders of 6 tokens left about 100 KiB of tuples
    in the interpreter's free list. Causal, a chunk holds two t x n x w boolean comparisons (the
    last chunk's and its own, read through a sliding view of the window
    keys), about six t x n int64 arrays (the last chunk's and its own tokens
    and window keys, the draw and the identity that ``inverse_rows``
    scatters) with 2 t w int64 entries of key padding, and the run two
    floats a trial (the densities and their deviations), plus 256 KiB for
    the comparison's and the count's ufunc buffers. The work is, non-causal,
    five int64 entries a trial (the draw, the pair and the pair's offset),
    and causal, the permutation and window entries."""
    t = chunk_trials(_connprob_trial_bytes(n, w, causal))
    if not causal:
        return t * (5 * 8 + 3) + 100 * 1024, 5 * trials
    return 16 * trials + t * (2 * n * w + 8 * (6 * n + 2 * w)) + 256 * 1024, trials * n * w


def connection_probability_exhaustive(n: int, w: int) -> float:
    """Exact connection probability by enumerating the whole symmetric group
    (n <= 8)."""
    if n > 8:
        raise ValueError("exhaustive enumeration is capped at n <= 8")
    if n < 2:
        raise ValueError(f"a token pair needs n >= 2, got n={n}")
    back, fwd = WindowSpec(w, Convention.SYMMETRIC_CIRCULAR).offsets()
    p = np.array(list(itertools.permutations(range(n))))
    return int(np.count_nonzero(_circular_hits(p[:, 0], p[:, 1], n, back, fwd))) / len(p)


# ---------------------------------------------------------------------------
# Small-world metrics
# ---------------------------------------------------------------------------


class GraphMetrics(NamedTuple):
    n: int
    mean_degree: float
    clustering: float
    path_length: float
    clustering_rand: float
    path_length_rand: float
    small_worldness: float


class DisconnectedGraphError(ValueError):
    def __init__(self, node: int):
        self.node = node
        super().__init__(f"graph is disconnected; node {node} is not reachable from node 0")


class NoConnectedBaselineError(RuntimeError):
    """No edge-count-matched random graph drawn for ``smallworld_metrics`` was
    connected: the graph has too few edges for a random one to connect."""

    def __init__(self, n: int, n_edges: int, attempts: int):
        self.n, self.n_edges, self.attempts = n, n_edges, attempts
        super().__init__(f"none of {attempts} random graphs with n={n} and {n_edges} edges "
                         f"was connected")


def _edges(adjacency) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, rows, cols) of the off-diagonal edges of a square symmetric
    adjacency, sorted by row: the edge list the graph metrics take, from
    the dense adjacency the tests use as their oracle."""
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric; symmetrize directed masks first")
    rows, cols = np.nonzero(adj)
    off = rows != cols
    return adj.shape[0], rows[off], cols[off]


def graph_clustering(n: int, rows: np.ndarray, cols: np.ndarray) -> float:
    """Global clustering coefficient of the graph with edge list (n, rows,
    cols), as ``layer_edges`` returns it: closed wedges over all wedges,
    trace(A^3) / sum_i deg_i (deg_i - 1). trace(A^3) is counted exactly as
    the sum over edges (i, j) of |N(i) & N(j)|, on packed neighbour rows."""
    packed = _packed_rows(n)
    np.bitwise_or.at(packed, (rows, cols >> 3), np.left_shift(1, cols & 7).astype(np.uint8))
    # each undirected edge counts twice in trace(A^3)
    upper = rows < cols
    lo_end, hi_end = rows[upper], cols[upper]
    closed = 0
    step = max(1, _GATHER_BYTES // packed.shape[1])
    for lo in range(0, lo_end.size, step):
        common = packed[lo_end[lo:lo + step]] & packed[hi_end[lo:lo + step]]
        closed += 2 * int(_popcount_rows(common).sum())
    deg = np.bincount(rows, minlength=n)
    wedges2 = int((deg * (deg - 1)).sum())
    return closed / wedges2 if wedges2 > 0 else 0.0


def graph_path_length(n: int, rows: np.ndarray, cols: np.ndarray) -> float:
    """Average shortest-path length over all ordered pairs of the graph with
    edge list (n, rows, cols), rows sorted.

    All-sources BFS on packed bitsets: after step k row i holds the nodes
    within k hops of i, so the distance sum is the exact integer
    sum_k (n^2 - reached_k). Raises DisconnectedGraphError, naming the first
    node unreachable from node 0, when the reached count stalls short of n^2,
    and ValueError for fewer than two nodes.
    """
    if n < 2:
        raise ValueError(f"graph_path_length needs n >= 2, got n={n}")
    # neighbour lists with the node itself first, so none is empty
    first = np.searchsorted(rows, np.arange(n))
    indices = np.insert(cols, first, np.arange(n))
    indptr = np.append(first + np.arange(n), indices.size)
    reached = _pack_identity(n)
    spare = np.empty_like(reached)
    count, full = n, n * n
    dist_sum = 0
    while count < full:
        dist_sum += full - count
        _or_neighbours(reached, indptr, indices, spare)
        reached, spare = spare, reached
        grown = int(_popcount_rows(reached).sum())
        if grown == count:
            missing = np.unpackbits(reached[0], bitorder="little")[:n] == 0
            raise DisconnectedGraphError(int(np.argmax(missing)))
        count = grown
    return dist_sum / (n * (n - 1))


def _random_graph_same_edges(n: int, n_edges: int,
                             rng: SeededRng) -> tuple[np.ndarray, np.ndarray] | None:
    """Edges (rows, cols, sorted by row) of a uniform random graph with
    ``n_edges`` edges: ``n_edges`` distinct indices into the row-major list
    of the n(n-1)/2 pairs i < j. None, before any sort, if a node is isolated."""
    sel = rng.choice(n * (n - 1) // 2, size=n_edges, replace=False)
    i = np.arange(n)
    starts = i * (n - 1) - i * (i - 1) // 2          # first pair index of row i
    iu = np.searchsorted(starts, sel, side="right") - 1
    ju = iu + 1 + (sel - starts[iu])
    rows, cols = np.concatenate([iu, ju]), np.concatenate([ju, iu])
    if np.bincount(rows, minlength=n).min() == 0:
        return None
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order]


def _first_unreachable(n: int, rows: np.ndarray, cols: np.ndarray) -> int | None:
    """The first node unreachable from node 0 of the graph with both
    directions of its edges in (rows, cols), rows sorted; None if the graph
    is connected. A frontier BFS: each level reads only its nodes' edges,
    found by the rows' offsets, so every edge is read once, O(n + m) in
    total."""
    offsets = np.searchsorted(rows, np.arange(n + 1))
    seen = np.arange(n) == 0
    slot = np.empty(n, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        lo = offsets[frontier]
        counts = offsets[frontier + 1] - lo
        # the frontier's edge ranges lo..lo+count, laid end to end
        edges = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        ends = cols[edges]
        ends = ends[~seen[ends]]
        # a node reached by several edges enters the next level once: the
        # last of its copies keeps the slot it writes
        at = np.arange(ends.size)
        slot[ends] = at
        frontier = ends[slot[ends] == at]
        seen[frontier] = True
    return None if seen.all() else int(np.argmin(seen))


def smallworld_metrics(n: int, rows: np.ndarray, cols: np.ndarray, rng: SeededRng,
                       baselines: int) -> GraphMetrics:
    """Clustering, mean path length, and the small-worldness ratio
    (C/C_rand)/(L/L_rand) of the graph with edge list (n, rows, cols),
    rows sorted, against edge-count-matched uniform random graphs.

    C_rand is the analytic density mean_degree/(n-1); L_rand is averaged
    over ``baselines`` sampled random graphs (disconnected samples are
    redrawn, up to a bounded number of retries; NoConnectedBaselineError
    when they run out). A disconnected graph raises DisconnectedGraphError
    as ``graph_path_length`` does. Connectivity, of the graph and then of
    each baseline draw, is tested by one BFS in O(n + m) (a draw
    with an isolated node by its degrees alone), and the baselines are
    measured before the graph's own all-pairs BFS, so either failure is
    reported before the expensive work.
    """
    if n < 2:
        raise ValueError(f"smallworld_metrics needs n >= 2, got n={n}")
    node = _first_unreachable(n, rows, cols)
    if node is not None:
        raise DisconnectedGraphError(node)
    n_edges = rows.size // 2
    lengths = []
    attempts = 0
    while len(lengths) < baselines:
        if attempts > 20 * baselines:
            raise NoConnectedBaselineError(n, n_edges, attempts)
        attempts += 1
        edges = _random_graph_same_edges(n, n_edges, rng)
        if edges is None or _first_unreachable(n, *edges) is not None:
            continue
        lengths.append(graph_path_length(n, *edges))
    path_length = graph_path_length(n, rows, cols)
    clustering = graph_clustering(n, rows, cols)
    mean_degree = 2.0 * n_edges / n
    path_length_rand = float(np.mean(lengths))
    clustering_rand = mean_degree / (n - 1)
    sigma = (clustering / clustering_rand) / (path_length / path_length_rand)
    return GraphMetrics(
        n=n, mean_degree=mean_degree, clustering=clustering, path_length=path_length,
        clustering_rand=clustering_rand, path_length_rand=path_length_rand,
        small_worldness=sigma,
    )


def smallworld_cost(n: int, w: int, seeds: int, baselines: int) -> tuple[int, int]:
    """Estimated (bytes, word ORs) of ``smallworld_metrics`` on the ring and a
    union graph, and of the path lengths and clustering of ``seeds`` more
    union graphs. Building a union graph holds about ten copies of its n x 2w
    int64 neighbour table (the table, token and neighbour columns, both
    directions' edge keys and their deduplication). A graph has at most n w
    undirected edges, e, kept as int64 rows and columns of both directions;
    about 21 int64 words per edge are held at once while a baseline is
    measured (the last union graph, the measured graph, the baseline's draw,
    its pair arithmetic, sort and neighbour lists). The estimate adds the two
    phases. The draw is numpy's ``choice`` without replacement, which holds
    all n(n - 1)/2 pairs as int64 once e is over a 50th of them, else about
    four words per edge. Path lengths hold two sets of n packed rows of n bits
    and two arrays of up to _GATHER_BYTES (gathered rows and their ORs),
    clustering one set and three (two gathers and their AND). The work is the
    path-length BFS's word ORs: n(2w + 1) rows a step, about n / w steps on
    the ring and 2 log2(n) on each union and baseline graph."""
    words = -(-n // 64)
    pairs = n * (n - 1) // 2
    edges = min(pairs, n * w)
    draw = 8 * (pairs + edges) if edges > pairs // 50 else 32 * edges
    gather = max(_GATHER_BYTES, (2 * w + 1) * 8 * words)
    est_bytes = 8 * (20 * n * w + 21 * edges) + draw + 2 * n * 8 * words + 3 * gather
    steps = -(-n // w) + 2 * (seeds + 1 + baselines) * n.bit_length()
    return est_bytes, steps * n * (2 * w + 1) * words


def ring_lattice_clustering(k: int) -> float:
    """Closed-form clustering of a ring lattice with k neighbors per side:
    3(k-1) / (2(2k-1))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 3.0 * (k - 1) / (2.0 * (2 * k - 1))


# ---------------------------------------------------------------------------
# Spectral mixing
# ---------------------------------------------------------------------------


class SpectrumReport(NamedTuple):
    n: int
    w: int
    eigenvalues: np.ndarray
    lambda2: float


def _second_modulus(eigs: np.ndarray) -> float:
    mods = np.sort(np.abs(eigs))[::-1]
    return float(mods[1])


def circulant_spectrum(n: int, w: int) -> SpectrumReport:
    """Eigenvalues of the uniform-attention circular-window transition matrix
    W by the circulant DFT formula, lambda_j = (1/w) sum_delta
    exp(2*pi*i*j*delta/n) over the window's offsets delta, in DFT order:
    eigenvalues[j] belongs to the eigenvector f_j[k] = exp(2*pi*i*j*k/n),
    W f_j = lambda_j f_j (Gray, "Toeplitz and Circulant Matrices", 2006)."""
    back, fwd = WindowSpec(w, Convention.SYMMETRIC_CIRCULAR).offsets()
    deltas = np.arange(-back, fwd + 1)
    j = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(j, deltas) / n)
    eigs = phases.sum(axis=1) / w
    return SpectrumReport(n=n, w=w, eigenvalues=eigs, lambda2=_second_modulus(eigs))


def transition_matrix(mask: np.ndarray) -> np.ndarray:
    """Uniform-attention random-walk matrix: each row of the mask normalized
    by its degree."""
    m = np.asarray(mask, dtype=np.float64)
    deg = m.sum(axis=1, keepdims=True)
    if (deg == 0).any():
        raise ValueError("mask has an empty row; transition matrix undefined")
    return m / deg


def permuted_transition_matrix(n: int, w: int, p: Permutation) -> np.ndarray:
    """Transition matrix of one stochastic layer: the circulant walk
    conjugated by the permutation."""
    spec = WindowSpec(w, Convention.SYMMETRIC_CIRCULAR)
    return transition_matrix(build_stochastic_mask(n, spec, p))


class MixingReport(NamedTuple):
    n: int
    w: int
    depth: int
    n_seeds: int
    product_lambda2: np.ndarray
    median_product_lambda2: float
    circulant_lambda2: float
    circulant_lambda2_pow_depth: float


def multilayer_mixing(n: int, w: int, depth: int, n_seeds: int,
                      rng: SeededRng) -> MixingReport:
    """Second-eigenvalue modulus of depth-layer products of independent
    stochastic-layer walks, against the depth-th power of the single-layer
    circulant value.

    A single layer is a similarity transform of the circulant walk and mixes
    no faster; products over independent permutations are not similar to the
    circulant power, and their |lambda_2| is what this measures.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    circ = circulant_spectrum(n, w)
    lam2 = np.empty(n_seeds)
    for s in range(n_seeds):
        seed_rng = rng.child(s, 0)
        prod = np.eye(n)
        for _ in range(depth):
            perm = sample_permutation(n, seed_rng)
            prod = permuted_transition_matrix(n, w, perm) @ prod
        lam2[s] = _second_modulus(np.linalg.eigvals(prod))
    return MixingReport(
        n=n, w=w, depth=depth, n_seeds=n_seeds,
        product_lambda2=lam2,
        median_product_lambda2=float(np.median(lam2)),
        circulant_lambda2=circ.lambda2,
        circulant_lambda2_pow_depth=circ.lambda2 ** depth,
    )


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

SOFTMAX_FLOPS_PER_CELL = 5  # shift, exp, sum-accumulate, divide, mask test


class CostReport(NamedTuple):
    """Analytic per-layer FLOP counts at one (n, w, d) point.

    Attention over C score cells costs 4*C*d + 5*C (2*C*d for scores,
    2*C*d for the value combination, 5 per cell for the masked softmax);
    full attention has C = n^2, windowed and stochastic attention C = n*w
    (score cells only: the permutation's gathers and scatters are not
    counted), and the fused dual path pays both windowed
    paths plus 4*n*d^2 + 5*n*d for the two sigmoid gates and the combine.
    """

    n: int
    w: int
    d: int
    flops: dict
    attention_flops: dict
    gate_flops: float = 0.0


def cost_model(n: int, w: int, d: int) -> CostReport:
    if d < 1:
        raise ValueError(f"model width d must be positive, got d={d}")
    check_window(n, w)
    def attn(cells: float) -> float:
        return 4.0 * cells * d + SOFTMAX_FLOPS_PER_CELL * cells
    full_att = attn(float(n) * n)
    win_att = attn(float(n) * w)
    gate = 4.0 * n * d * d + 5.0 * n * d
    return CostReport(
        n=n, w=w, d=d,
        flops={"full": full_att, "swa": win_att, "sa": win_att,
               "fused": 2.0 * win_att + gate},
        attention_flops={"full": full_att, "swa": win_att, "sa": win_att,
                         "fused": 2.0 * win_att},
        gate_flops=gate,
    )


def connectome_depth_prediction(n: int, k: int) -> int:
    """Smallest depth l with k^l >= n, i.e. ceil(log_k n), in exact integer
    arithmetic."""
    if k < 2:
        raise ValueError("mean degree k must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    depth = 0
    reach = 1
    while reach < n:
        reach *= k
        depth += 1
    return depth
