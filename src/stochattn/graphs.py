"""Graph-level analysis of attention routing: receptive-field growth,
pairwise connection probability, small-world statistics, spectral mixing of
the induced random walks, and an analytic FLOP cost model.

Reachability and path lengths are exact multi-source BFS over packed
bitsets (one bit per token, one row per source). Under the circular
convention the permuted-window structure lets each layer be propagated with
O(log w) shifted ORs; the causal convention ORs the rows of each token's
``masks.window_neighbours`` entries, and arbitrary graphs those of each
node's neighbour list. Small-world graphs are edge lists built from the
same neighbour tables. No route builds an n x n array; dense masks serve as
test oracles and for mask images.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .masks import (Convention, WindowSpec, build_stochastic_mask, build_window_mask,
                    intersect_causal, window_neighbours)
from .numerics import SeededRng, trial_chunks
from .permute import Permutation, inverse_rows, sample_permutation


class RoutingMode(enum.Enum):
    SWA = "swa"
    SA = "sa"
    FUSED = "fused"


# ---------------------------------------------------------------------------
# Receptive-field simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageCurve:
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


def _window_or_circular(s: np.ndarray, back: int, fwd: int) -> np.ndarray:
    """Row p of the result is the OR of rows (p-back .. p+fwd) mod n.

    Row q of the wrap-padded buffer is row (q-back) mod n; after the
    doublings it holds the OR of buffer rows q .. q+width-1."""
    n = s.shape[0]
    width = back + fwd + 1
    buf = np.concatenate([s[n - back:], s, s[:fwd]])
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

    A circular layer ORs each row's window in O(log w) shifted ORs, of the
    rows in slot order for SA (a permutation drawn from ``rng``); a causal
    layer ORs the rows of each token's ``_layer_neighbours``. Row i can reach
    every token (circular) or tokens 0..i (causal); the run stops once every
    row holds all it can, which every later layer keeps, and fills the
    remaining rows with that count."""
    circular = convention is Convention.SYMMETRIC_CIRCULAR
    back, fwd = WindowSpec(w, convention).offsets()
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
            step = _window_or_circular(reached, back, fwd)
        else:
            perm = sample_permutation(n, rng)
            step = _window_or_circular(reached[perm.inverse], back, fwd)[perm.forward]
            if mode is RoutingMode.FUSED:
                step |= _window_or_circular(reached, back, fwd)
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
    if not 1 <= w <= n:
        raise ValueError(f"window size must satisfy 1 <= w <= n, got w={w}, n={n}")
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
    out = np.full(curve.n_seeds, np.inf)
    for s in range(curve.n_seeds):
        hit = np.nonzero(curve.seed_mean[s] >= threshold)[0]
        if hit.size:
            out[s] = hit[0]
    return out


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


def connection_probability_mc(
    n: int, w: int, trials: int, causal: bool = False, *, rng: SeededRng,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the stochastic-window connection probability.

    Non-causal: the indicator that a fixed pair shares a window, averaged
    over fresh permutations. Causal: the mean off-diagonal density of the
    causally intersected stochastic mask, counted in O(n*w) per trial with
    no mask built. Returns (estimate, stderr).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 2:
        raise ValueError(f"a token pair needs n >= 2, got n={n}")
    spec = WindowSpec(w, Convention.SYMMETRIC_CIRCULAR)
    if not causal:
        back, fwd = spec.offsets()
        hits = 0
        for lo, hi in trial_chunks(trials, n * 8):
            p = rng.permutations(hi - lo, n)
            hits += int(np.count_nonzero(_circular_hits(p[:, 0], p[:, 1], n, back, fwd)))
        est = hits / trials
        stderr = math.sqrt(est * (1.0 - est) / trials)
        return est, stderr
    slots = window_neighbours(n, spec)
    densities = np.empty(trials)
    off_cells = n * (n - 1)
    for lo, hi in trial_chunks(trials, n * w * 8):
        # the mask's ones are the (slot a, window slot) pairs whose slot holds
        # a token no later than slot a's; the n diagonal ones are a itself
        tok = inverse_rows(rng.permutations(hi - lo, n))
        kept = np.take(tok, slots, axis=1) <= tok[:, :, None]
        densities[lo:hi] = (np.count_nonzero(kept, axis=(1, 2)) - n) / off_cells
    est = float(densities.mean())
    stderr = float(densities.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return est, stderr


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


@dataclass(frozen=True)
class GraphMetrics:
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
    adjacency, sorted by row."""
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric; symmetrize directed masks first")
    rows, cols = np.nonzero(adj)
    off = rows != cols
    return adj.shape[0], rows[off], cols[off]


def _clustering(n: int, rows: np.ndarray, cols: np.ndarray) -> float:
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


def graph_clustering(adjacency: np.ndarray) -> float:
    """Global clustering coefficient: closed wedges over all wedges,
    trace(A^3) / sum_i deg_i (deg_i - 1). trace(A^3) is counted exactly as
    the sum over edges (i, j) of |N(i) & N(j)|, on packed neighbour rows."""
    return _clustering(*_edges(adjacency))


def _path_length(n: int, rows: np.ndarray, cols: np.ndarray) -> float:
    if n < 2:
        raise ValueError(f"graph_path_length needs n >= 2, got n={n}")
    # neighbour lists with the node itself first, so none is empty
    deg = np.bincount(rows, minlength=n)
    first = np.cumsum(deg) - deg
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


def graph_path_length(adjacency: np.ndarray) -> float:
    """Average shortest-path length over all ordered pairs.

    All-sources BFS on packed bitsets: after step k row i holds the nodes
    within k hops of i, so the distance sum is the exact integer
    sum_k (n^2 - reached_k). Raises DisconnectedGraphError, naming the first
    node unreachable from node 0, when the reached count stalls short of n^2,
    and ValueError for fewer than two nodes.
    """
    return _path_length(*_edges(adjacency))


def _random_graph_same_edges(n: int, n_edges: int,
                             rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """Edges (rows, cols, sorted by row) of a uniform random graph with
    ``n_edges`` edges: ``n_edges`` distinct indices into the row-major list
    of the n(n-1)/2 pairs i < j."""
    sel = rng.choice(n * (n - 1) // 2, size=n_edges, replace=False)
    i = np.arange(n)
    starts = i * (n - 1) - i * (i - 1) // 2          # first pair index of row i
    iu = np.searchsorted(starts, sel, side="right") - 1
    ju = iu + 1 + (sel - starts[iu])
    rows, cols = np.concatenate([iu, ju]), np.concatenate([ju, iu])
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order]


def _first_unreachable(n: int, rows: np.ndarray, cols: np.ndarray,
                       deg: np.ndarray) -> int | None:
    """The first node unreachable from node 0 of the graph with both
    directions of its edges in (rows, cols), sorted by row, and node degrees
    ``deg``; None if the graph is connected. One BFS, O(n + m)."""
    # imported here, not with the module: every program imports graphs
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order
    indptr = np.concatenate([[0], np.cumsum(deg)])
    graph = csr_array((np.ones(cols.size), cols, indptr), shape=(n, n))
    missing = np.ones(n, dtype=bool)
    missing[breadth_first_order(graph, 0, return_predecessors=False)] = False
    return int(np.argmax(missing)) if missing.any() else None


def smallworld_metrics(adjacency: np.ndarray, rng: SeededRng,
                       baselines: int = 10) -> GraphMetrics:
    """Clustering, mean path length, and the small-worldness ratio
    (C/C_rand)/(L/L_rand) against edge-count-matched uniform random graphs.

    C_rand is the analytic density mean_degree/(n-1); L_rand is averaged
    over ``baselines`` sampled random graphs (disconnected samples are
    redrawn, up to a bounded number of retries; NoConnectedBaselineError
    when they run out). A disconnected graph raises DisconnectedGraphError
    as ``graph_path_length`` does.
    """
    return _smallworld_metrics(*_edges(adjacency), rng, baselines)


def _smallworld_metrics(n: int, rows: np.ndarray, cols: np.ndarray, rng: SeededRng,
                        baselines: int) -> GraphMetrics:
    """``smallworld_metrics`` of the graph with edge list (n, rows, cols), as
    ``_edges`` returns it. Connectivity, of the graph and then of each
    baseline draw, is tested in O(n + m) (a draw with an isolated node by its
    degrees alone), and the baselines are measured before the graph's own
    all-pairs BFS, so either failure is reported before the expensive work."""
    if n < 2:
        raise ValueError(f"smallworld_metrics needs n >= 2, got n={n}")
    node = _first_unreachable(n, rows, cols, np.bincount(rows, minlength=n))
    if node is not None:
        raise DisconnectedGraphError(node)
    n_edges = rows.size // 2
    lengths = []
    attempts = 0
    while len(lengths) < baselines:
        if attempts > 20 * baselines:
            raise NoConnectedBaselineError(n, n_edges, attempts)
        attempts += 1
        r_rows, r_cols = _random_graph_same_edges(n, n_edges, rng)
        deg = np.bincount(r_rows, minlength=n)
        if deg.min() == 0 or _first_unreachable(n, r_rows, r_cols, deg) is not None:
            continue
        lengths.append(_path_length(n, r_rows, r_cols))
    path_length = _path_length(n, rows, cols)
    clustering = _clustering(n, rows, cols)
    mean_degree = 2.0 * n_edges / n
    path_length_rand = float(np.mean(lengths))
    clustering_rand = mean_degree / (n - 1)
    sigma = (clustering / clustering_rand) / (path_length / path_length_rand)
    return GraphMetrics(
        n=n, mean_degree=mean_degree, clustering=clustering, path_length=path_length,
        clustering_rand=clustering_rand, path_length_rand=path_length_rand,
        small_worldness=sigma,
    )


def ring_lattice_clustering(k: int) -> float:
    """Closed-form clustering of a ring lattice with k neighbors per side:
    3(k-1) / (2(2k-1))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 3.0 * (k - 1) / (2.0 * (2 * k - 1))


# ---------------------------------------------------------------------------
# Spectral mixing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    n: int
    w: int
    eigenvalues: np.ndarray
    lambda2: float


def _sorted_desc(eigs: np.ndarray) -> np.ndarray:
    order = np.lexsort((eigs.imag, eigs.real))[::-1]
    return eigs[order]


def eigenvalue_multiset_distance(a, b) -> float:
    """Largest matched distance between two eigenvalue multisets under the
    optimal pairing.

    Lexicographic sorting of complex spectra is unstable when conjugate
    pairs share real parts to rounding error, so multiset equality is
    checked through a minimum-cost assignment instead.
    """
    # imported here, not with the module: it alone would make up most of the
    # package's import time and memory
    from scipy.optimize import linear_sum_assignment
    a = np.asarray(a, dtype=np.complex128).ravel()
    b = np.asarray(b, dtype=np.complex128).ravel()
    if a.shape != b.shape:
        raise ValueError(f"multisets differ in size: {a.shape} vs {b.shape}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _second_modulus(eigs: np.ndarray) -> float:
    mods = np.sort(np.abs(eigs))[::-1]
    return float(mods[1])


def circulant_spectrum(n: int, w: int) -> SpectrumReport:
    """Eigenvalues of the uniform-attention circular-window transition matrix
    via the circulant DFT formula: lambda_j = (1/w) sum_delta exp(-2*pi*i*j*delta/n)."""
    back, fwd = WindowSpec(w, Convention.SYMMETRIC_CIRCULAR).offsets()
    deltas = np.arange(-back, fwd + 1)
    j = np.arange(n)
    phases = np.exp(-2j * np.pi * np.outer(j, deltas) / n)
    eigs = phases.sum(axis=1) / w
    return SpectrumReport(n=n, w=w, eigenvalues=_sorted_desc(eigs),
                          lambda2=_second_modulus(eigs))


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


@dataclass(frozen=True)
class MixingReport:
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


@dataclass(frozen=True)
class CostReport:
    """Analytic per-layer FLOP counts at one (n, w, d) point.

    Attention over C score cells costs 4*C*d + 5*C (2*C*d for scores,
    2*C*d for the value combination, 5 per cell for the masked softmax);
    full attention has C = n^2, windowed and stochastic attention C = n*w
    (index permutation is free), and the fused dual path pays both windowed
    paths plus 4*n*d^2 + 5*n*d for the two sigmoid gates and the combine.
    """

    n: int
    w: int
    d: int
    flops: dict = field(default_factory=dict)
    attention_flops: dict = field(default_factory=dict)
    gate_flops: float = 0.0


def cost_model(n: int, w: int, d: int) -> CostReport:
    if n < 1 or w < 1 or d < 1:
        raise ValueError("n, w, d must all be positive")
    if w > n:
        raise ValueError(f"a window of {w} tokens is wider than the sequence (n={n})")
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
