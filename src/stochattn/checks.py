"""The verification criteria, one function per claim.

``stochattn verify`` and the acceptance suite run the same functions. Each
takes a seeded stream and the sizes it runs at, and returns
``{"name", "passed", "measured"}``. The keyword defaults are the sizes
``verify`` runs; the acceptance suite passes larger ones.

``CHECKS`` keeps verify's order. ``verify`` hands the check at position i
the stream ``root.child(i, 0)`` of its root seed, so reordering the registry
changes every report.
"""

from __future__ import annotations

import numpy as np

from .attention import (
    AttentionInputs,
    GateParams,
    attention_backward,
    attention_forward,
    sa_forward,
)
from .graphs import (
    RoutingMode,
    circulant_spectrum,
    connection_probability_analytic,
    connection_probability_exhaustive,
    connection_probability_mc,
    connectome_depth_prediction,
    cost_model,
    expansion_lower_bound,
    graph_clustering,
    graph_path_length,
    layer_edges,
    layers_to_coverage,
    multilayer_mixing,
    per_seed_layers_to_coverage,
    permuted_transition_matrix,
    ring_lattice_clustering,
    simulate_reachability,
)
from .masks import (
    Convention,
    WindowSpec,
    build_stochastic_mask,
    build_window_mask,
    intersect_causal,
)
from .numerics import MC_CHUNK_BYTES, SeededRng, trial_chunks
from .permute import sample_permutation
from .stats import fusion_bv_decompose, sa_bias_mc, sa_variance_exact, sa_variance_mc

_CIRCULAR = Convention.SYMMETRIC_CIRCULAR


def _result(name: str, passed: bool, measured: dict) -> dict:
    return {"name": name, "passed": bool(passed), "measured": measured}


def equivalence(rng: SeededRng, cases: int = 100, n_min: int = 4, n_max: int = 48) -> dict:
    """The permuted-route SA kernel equals dense attention under the
    stochastic mask, to 1e-12, on random sizes and both conventions."""
    worst = 0.0
    for case in range(cases):
        r = rng.child(0, case)
        n = int(r.integers(n_min, n_max + 1))
        d_h = int(r.integers(1, 9))
        w = int(r.integers(2, n + 1))
        convention = _CIRCULAR if case % 2 == 0 else Convention.CAUSAL_ONE_SIDED
        q, k, v = (np.asarray(r.normal(size=(n, d_h))) for _ in range(3))
        perm = sample_permutation(n, r)
        inp = AttentionInputs(q, k, v)
        direct = sa_forward(inp, w, perm, convention)
        mask = intersect_causal(build_stochastic_mask(n, WindowSpec(w, convention), perm))
        worst = max(worst, float(np.abs(direct - attention_forward(inp, mask)).max()))
    return _result("equivalence", worst <= 1e-12, {"max_abs_diff": worst, "cases": cases})


def _coordinate_bytes(n: int, d_h: int) -> int:
    """A coordinate's plus and minus (n, max(n, d_h)) float64 arrays, in bytes."""
    return 2 * 8 * n * max(n, d_h)


def _central_differences(inp: AttentionInputs, mask: np.ndarray, upstream: np.ndarray,
                         field: str, h: float) -> np.ndarray:
    """d(sum(attention_forward(inp, mask) * upstream)) / d(field), by central
    differences with step h at every coordinate of ``inp.<field>``.

    Coordinate i is bumped to x_i + h and to (x_i + h) - 2h. The plus and
    minus bumps of a chunk of coordinates (sized by ``trial_chunks``) run as
    one stacked forward, whose every matrix equals its own call."""
    x = getattr(inp, field)
    flat = x.reshape(-1)
    numeric = np.empty(flat.size)
    for lo, hi in trial_chunks(flat.size, _coordinate_bytes(inp.n, inp.d_h)):
        c = hi - lo
        coords = np.arange(lo, hi)
        bumped = np.tile(flat, (2 * c, 1))
        plus = flat[coords] + h
        bumped[np.arange(c), coords] = plus
        bumped[np.arange(c, 2 * c), coords] = plus - 2 * h
        stack = {f: np.broadcast_to(getattr(inp, f), (2 * c, *x.shape)) for f in ("q", "k", "v")}
        stack[field] = bumped.reshape(2 * c, *x.shape)
        y = attention_forward(AttentionInputs(**stack), mask)
        numeric[lo:hi] = ((y[:c] - y[c:]) * upstream).reshape(c, -1).sum(axis=1) / (2 * h)
    return numeric.reshape(x.shape)


def gradcheck(rng: SeededRng, n: int = 8, d_h: int = 4, instances: int = 10,
              perturb: bool = False) -> dict:
    """The analytic backward pass matches central finite differences of the
    public forward on random causal stochastic masks (relative error <= 1e-6
    per input). ``perturb`` shifts dq by 1e-3 first, a negative control that
    must fail."""
    h = 1e-5
    worst = {"dq": 0.0, "dk": 0.0, "dv": 0.0}
    for inst in range(instances):
        r = rng.child(0, inst)
        q, k, v, upstream = (np.asarray(r.normal(size=(n, d_h))) for _ in range(4))
        perm = sample_permutation(n, r)
        mask = intersect_causal(build_stochastic_mask(
            n, WindowSpec(max(2, n // 2), _CIRCULAR), perm))
        inp = AttentionInputs(q, k, v)
        dq, dk, dv = attention_backward(inp, mask, upstream)
        if perturb:
            dq = dq + 1e-3
        for field, label, analytic in (("q", "dq", dq), ("k", "dk", dk), ("v", "dv", dv)):
            numeric = _central_differences(inp, mask, upstream, field, h)
            denom = max(float(np.linalg.norm(numeric)), 1e-12)
            worst[label] = max(worst[label], float(np.linalg.norm(analytic - numeric)) / denom)
    return _result("gradcheck", all(err <= 1e-6 for err in worst.values()), worst)


def gradcheck_cost(n: int, d_h: int, instances: int) -> tuple[int, int]:
    """Estimated (bytes, flops) of ``gradcheck``: each instance runs a plus
    and a minus dense forward of n^2 score cells for each of its 3 n d_h
    input coordinates, at 4 d_h flops a cell (scores and values). It holds
    about six n x (n + d_h) float64 arrays (the dense backward's) and six
    arrays of a chunk of coordinates (at least MC_CHUNK_BYTES) for the
    stacked forwards: the last chunk's outputs, the bumped inputs, the
    scores, two softmax work arrays and the outputs."""
    cells = instances * 6 * n ** 3 * d_h
    chunk = max(MC_CHUNK_BYTES, _coordinate_bytes(n, d_h))
    return 6 * 8 * n * (n + d_h) + 6 * chunk, 4 * d_h * cells


def connprob(rng: SeededRng, n: int = 128, w: int = 8, trials: int = 20_000) -> dict:
    """A token pair shares a window with probability (w-1)/(n-1): exactly 2/5
    by enumeration at n=6, w=3, and within 3 stderr by Monte Carlo (the
    analytic stderr when a run draws no hit, whose own stderr is 0)."""
    exact = connection_probability_exhaustive(6, 3)
    est, stderr = connection_probability_mc(n, w, trials, causal=False, rng=rng)
    analytic = connection_probability_analytic(n, w)
    gate = 3 * (stderr if stderr > 0.0 else np.sqrt(analytic * (1.0 - analytic) / trials))
    return _result("connprob", exact == 2 / 5 and abs(est - analytic) <= gate,
                   {"exhaustive_n6_w3": exact, "mc_estimate": est, "mc_stderr": stderr,
                    "analytic": analytic})


def connprob_causal(rng: SeededRng, n: int = 128, w: int = 8, trials: int = 2000) -> dict:
    """Under the causal filter the density is (w-1)/(2(n-1)), within 15%."""
    est, stderr = connection_probability_mc(n, w, trials, causal=True, rng=rng)
    analytic = connection_probability_analytic(n, w, causal=True)
    return _result("connprob_causal", abs(est - analytic) <= 0.15 * analytic,
                   {"estimate": est, "stderr": stderr, "analytic": analytic})


def coverage(rng: SeededRng, n: int = 1024, w: int = 32, seeds: int = 40,
             sa_layers: int = 8, swa_layers: int = 8) -> dict:
    """SA reaches every token in a median of at most 4 layers and stays above
    the one-layer expansion bound (within 3 stderr); SWA coverage equals its
    closed form min(1, (l(w-1)+1)/n) exactly, full depth included."""
    sa = simulate_reachability(n, w, sa_layers, RoutingMode.SA, _CIRCULAR, rng.child(0, 0),
                               n_seeds=seeds)
    swa = simulate_reachability(n, w, swa_layers, RoutingMode.SWA, _CIRCULAR, rng.child(1, 0))
    median_depth = float(np.median(per_seed_layers_to_coverage(sa, 1.0)))
    closed = [min(1.0, (ell * (w - 1) + 1) / n) for ell in range(swa_layers + 1)]
    closed_depth = next((ell for ell, c in enumerate(closed) if c == 1.0), None)
    swa_exact = (np.array_equal(swa.mean, closed)
                 and layers_to_coverage(swa, 1.0) == closed_depth)
    stderr = sa.mean_stderr()
    worst_margin = float("inf")
    for ell in range(sa_layers):
        r = int(round(sa.mean[ell] * n))
        bound = expansion_lower_bound(max(1, min(n, r)), n, w) / n
        worst_margin = min(worst_margin,
                           float(sa.mean[ell + 1] - (bound - 3.0 * stderr[ell + 1])))
    # the bound is exactly tight at layer 1 (both sides equal w/n), so allow
    # float roundoff on top of the 3-stderr band
    passed = median_depth <= 4.0 and swa_exact and worst_margin >= -1e-12
    return _result("coverage", passed,
                   {"sa_median_layers_to_full": median_depth,
                    "swa_matches_closed_form": swa_exact,
                    "expansion_bound_worst_margin": worst_margin,
                    "n": n, "w": w, "seeds": seeds})


def _eigen_residual(walk: np.ndarray, vectors: np.ndarray, eigenvalues: np.ndarray) -> float:
    """max |walk @ vectors - vectors diag(eigenvalues)|: 0 when each column j
    of ``vectors`` is an eigenvector of ``walk`` with eigenvalue
    ``eigenvalues[j]``."""
    residual = walk @ vectors
    residual -= vectors * eigenvalues
    return float(np.abs(residual).max())


def spectrum(rng: SeededRng, n: int = 64, w: int = 8, perms: int = 20, mixing_n: int = 128,
             depth: int = 3, mixing_seeds: int = 10) -> dict:
    """The circulant window's DFT eigenpairs (``circulant_spectrum``'s
    eigenvalues with the columns f_j[k] = exp(2 pi i jk/n)) are eigenpairs of
    the dense window walk, and the same columns read at each token's slot,
    F[p.forward], are those of every permuted walk (residuals <= 1e-9; the
    columns are independent, so this pins the whole spectrum). ``depth``
    stochastic layers mix faster than as many circulant ones."""
    eigenvalues = circulant_spectrum(n, w).eigenvalues
    k = np.arange(n)
    dft = np.exp(2j * np.pi * (np.outer(k, k) % n) / n)
    dft_dev = _eigen_residual(build_window_mask(n, WindowSpec(w, _CIRCULAR)) / w, dft,
                              eigenvalues)
    sim_dev = 0.0
    for s in range(perms):
        perm = sample_permutation(n, rng.child(0, s))
        sim_dev = max(sim_dev, _eigen_residual(permuted_transition_matrix(n, w, perm),
                                               dft[perm.forward], eigenvalues))
    mixing = multilayer_mixing(mixing_n, w, depth, mixing_seeds, rng.child(1, 0))
    passed = (dft_dev <= 1e-9 and sim_dev <= 1e-9
              and mixing.median_product_lambda2 < mixing.circulant_lambda2_pow_depth)
    return _result("spectrum", passed,
                   {"dft_vs_dense_max_abs": dft_dev, "similarity_max_abs": sim_dev,
                    "median_product_lambda2": mixing.median_product_lambda2,
                    "circulant_lambda2_pow_depth": mixing.circulant_lambda2_pow_depth})


def spectrum_cost(n: int, perms: int, depth: int, seeds: int) -> tuple[int, int]:
    """Estimated (bytes, flops) of ``spectrum`` at n = mixing_n and
    mixing_seeds = seeds. At a permuted walk's residual it holds nine n x n
    arrays' worth of 8-byte entries: the complex DFT columns F (two), their
    copy F[p.forward] (two), the float64 walk (one), the complex copy of it
    that the mixed-type product makes (two) and the product (two). The
    estimate adds a tenth for the boolean masks that build the walk; the
    mixing part holds about four float64 ones. The flops are perms + 1
    complex products of about 8 n^3, seeds dense eigen-solves of about
    10 n^3 and seeds products of depth n x n layers at 2 n^3 each."""
    return 10 * 8 * n * n, (8 * (perms + 1) + 10 * seeds + 2 * depth * seeds) * n ** 3


def variance(rng: SeededRng, n: int = 64, d: int = 4, w: int = 8, trials: int = 4000,
             bound_cases: int = 50) -> dict:
    """The Monte-Carlo variance of uniform SA is within 5% of the exact one, and
    the exact variance stays under 4B^2/w on random shapes and windows."""
    v = rng.child(0, 0).uniform(-1.0, 1.0, size=(n, d))
    report = sa_variance_mc(v, w, trials, rng.child(1, 0))
    rel = abs(report.mc_variance - report.exact) / report.exact
    bound_ok = True
    for case in range(bound_cases):
        r = rng.child(2, case)
        case_n = int(r.integers(4, 64))
        case_d = int(r.integers(1, 8))
        case_w = int(r.integers(1, case_n + 1))
        case_report = sa_variance_exact(r.normal(size=(case_n, case_d)), case_w)
        bound_ok = bound_ok and case_report.exact <= case_report.bound + 1e-15
    return _result("variance", rel <= 0.05 and bound_ok,
                   {"mc": report.mc_variance, "exact": report.exact, "relative_error": rel,
                    f"bound_holds_on_{bound_cases}_cases": bound_ok})


def bias(rng: SeededRng, n: int = 128, d: int = 4, w: int = 8, trials: int = 4000) -> dict:
    """SA's mean deviation from full attention matches its closed form
    (n-w)/(w(n-1)) * (V_i - mean V) at w and 2w (mean z^2 <= 1.5 at each),
    and doubling the window about halves it (ratio in [0.3, 0.8])."""
    v = rng.child(0, 0).uniform(-1.0, 1.0, size=(n, d))
    report = sa_bias_mc(v, [w, 2 * w], trials, rng.child(1, 0))
    ratio = report.deviations[1] / report.deviations[0]
    model_holds = all(z_sq is not None and z_sq <= 1.5 for z_sq in report.mean_z_sq)
    return _result("bias", 0.3 <= ratio <= 0.8 and model_holds,
                   {"ws": report.ws, "deviations": report.deviations, "halving_ratio": ratio,
                    "mean_z_sq": report.mean_z_sq})


def bvdecomp(rng: SeededRng, n: int = 32, d: int = 4, w: int = 8, trials: int = 4000) -> dict:
    """The gated dual path's mean squared error equals bias^2 plus variance,
    within 3 combined stderr."""
    v = rng.child(0, 0).uniform(-1.0, 1.0, size=(n, d))
    gates = GateParams(np.zeros((d, d)), np.zeros((d, d)))
    report = fusion_bv_decompose(v, gates, w, trials, rng.child(1, 0))
    return _result("bvdecomp", abs(report.residual) <= 3.0 * report.combined_stderr,
                   {"mse": report.mse, "bias_sq": report.bias_sq,
                    "variance_term": report.variance_term, "residual": report.residual,
                    "combined_stderr": report.combined_stderr})


def cost(rng: SeededRng, lengths=(1024, 2048, 4096, 8192), w: int = 64, d: int = 128) -> dict:
    """Doubling n multiplies full attention's flops by 4 and SA's by 2 (within
    1%), and fused attention costs exactly twice SA at every length."""
    del rng
    ratios_full, ratios_sa = [], []
    fused_exact = True
    for n in lengths:
        a, b = cost_model(n, w, d), cost_model(2 * n, w, d)
        ratios_full.append(b.flops["full"] / a.flops["full"])
        ratios_sa.append(b.flops["sa"] / a.flops["sa"])
        fused_exact = fused_exact and a.attention_flops["fused"] == 2 * a.attention_flops["sa"]
    passed = (all(abs(r - 4.0) <= 0.04 for r in ratios_full)
              and all(abs(r - 2.0) <= 0.02 for r in ratios_sa) and fused_exact)
    return _result("cost", passed,
                   {"full_doubling_ratios": ratios_full, "sa_doubling_ratios": ratios_sa,
                    "fused_attention_is_twice_sa": fused_exact})


def smallworld(rng: SeededRng, n: int = 512, w: int = 16, seeds: int = 10) -> dict:
    """The SWA ring has the ring-lattice clustering 3(k-1)/(2(2k-1)); adding
    the permuted window keeps more than half of it while halving the mean
    path length (medians over seeds)."""
    ring = layer_edges(n, w, RoutingMode.SWA, _CIRCULAR, rng)
    ring_c = graph_clustering(*ring)
    formula = ring_lattice_clustering(w // 2)
    swa_l = graph_path_length(*ring)
    cs, ls = [], []
    for s in range(seeds):
        union = layer_edges(n, w, RoutingMode.FUSED, _CIRCULAR, rng.child(0, s))
        cs.append(graph_clustering(*union))
        ls.append(graph_path_length(*union))
    med_c, med_l = float(np.median(cs)), float(np.median(ls))
    passed = abs(ring_c - formula) < 1e-12 and med_l < swa_l / 2 and med_c > ring_c / 2
    return _result("smallworld", passed,
                   {"ring_clustering": ring_c, "ring_formula": formula, "swa_path_length": swa_l,
                    "union_median_clustering": med_c, "union_median_path_length": med_l})


def connectome(rng: SeededRng) -> dict:
    """ceil(log_k n) layers connect a connectome-sized graph: 4 at
    n=130000, k=21 and 3 at n=2048, k=32."""
    del rng
    big = connectome_depth_prediction(130000, 21)
    small = connectome_depth_prediction(2048, 32)
    return _result("connectome", big == 4 and small == 3,
                   {"depth_130000_21": big, "depth_2048_32": small})


CHECKS = {check.__name__: check for check in (
    equivalence, gradcheck, connprob, connprob_causal, coverage, spectrum,
    variance, bias, bvdecomp, cost, smallworld, connectome)}
