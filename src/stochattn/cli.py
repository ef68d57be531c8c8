"""Command-line front end.

Runs the verification suites and emits the analytic artifacts (coverage
curves, cost curves, mask images, metric tables) as CSV / JSON / SVG / PGM
files. Exit codes: 0 success, 1 usage error, 2 verification failure.

All outputs are deterministic for a fixed ``--seed``: files carry the seed
in a metadata comment (CSV/PGM) or field (JSON) and never carry timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import svgplot
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
    eigenvalue_multiset_distance,
    expansion_lower_bound,
    graph_clustering,
    graph_path_length,
    layers_to_coverage,
    multilayer_mixing,
    per_seed_layers_to_coverage,
    permuted_transition_matrix,
    ring_lattice_clustering,
    simulate_reachability,
    smallworld_metrics,
)
from .masks import (
    Convention,
    WindowSpec,
    build_stochastic_mask,
    build_window_mask,
    intersect_causal,
    mask_to_csv,
    mask_to_pgm,
    symmetrize,
)
from .numerics import SeededRng
from .permute import sample_permutation
from .stats import fusion_bv_decompose, sa_bias_mc, sa_variance_exact, sa_variance_mc

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2

MAX_N = 8192
OUT_DIR_ENV = "STOCHATTN_OUT"

_CONVENTIONS = {"causal": Convention.CAUSAL_ONE_SIDED, "circular": Convention.SYMMETRIC_CIRCULAR}
_MODES = {"swa": RoutingMode.SWA, "sa": RoutingMode.SA, "fused": RoutingMode.FUSED}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _check_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        if value is None:
            continue
        if value <= 0:
            raise UsageError(f"--{name} must be positive, got {value}")
    n = kwargs.get("n")
    if n is not None and n > MAX_N:
        raise UsageError(f"--n is capped at {MAX_N} for desk-scale runs, got {n}")


def _out_path(args, filename: str) -> Path:
    base = args.out or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path / filename


def _fmt(value: float, precision: int) -> str:
    return format(value, f".{precision}g")


def _write_csv(path: Path, meta: str, header: list[str], rows: list[list], precision: int) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# {meta}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                _fmt(x, precision) if isinstance(x, float) else str(x) for x in row))
            fh.write("\n")


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def _parse_seeds(raw: str):
    """'N' derives seed indices 0..N-1; 'a,b,c' uses the listed indices."""
    try:
        if "," in raw:
            seeds = [int(tok) for tok in raw.split(",") if tok.strip()]
        else:
            seeds = int(raw)
    except ValueError as exc:
        raise UsageError(f"--seeds must be a count or comma-separated indices: {exc}")
    if (isinstance(seeds, int) and seeds <= 0) or (isinstance(seeds, list) and not seeds):
        raise UsageError("--seeds needs at least one seed")
    return seeds


def cmd_coverage(args) -> int:
    _check_positive(n=args.n, w=args.w)
    seeds = _parse_seeds(args.seeds)
    if args.layers < 0:
        raise UsageError("--layers must be >= 0")
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    for m in modes:
        if m not in _MODES:
            raise UsageError(f"unknown mode '{m}' (choose from swa,sa,fused)")
    convention = _CONVENTIONS[args.convention]
    mode_stream = {"swa": 0, "sa": 1, "fused": 2}
    rng = SeededRng(args.seed)
    rows = []
    chart = {}
    for m in modes:
        curve = simulate_reachability(args.n, args.w, args.layers, _MODES[m],
                                      convention, rng.child(mode_stream[m], 0),
                                      n_seeds=seeds)
        for ell in range(args.layers + 1):
            rows.append([int(ell), m, float(curve.mean[ell]), float(curve.lo[ell]),
                         float(curve.median[ell]), float(curve.hi[ell])])
        chart[m] = (curve.layers.astype(float), curve.mean)
    meta = (f"stochattn coverage seed={args.seed} n={args.n} w={args.w} "
            f"layers={args.layers} seeds={args.seeds} convention={args.convention}")
    csv_path = _out_path(args, "coverage.csv")
    _write_csv(csv_path, meta, ["layer", "mode", "mean_coverage", "min", "median", "max"],
               rows, args.precision)
    print(f"wrote {csv_path}")
    if args.format == "svg":
        svg_path = _out_path(args, "coverage.svg")
        svgplot.line_chart(chart, f"coverage vs depth (n={args.n}, w={args.w})",
                           "layer", "mean coverage", svg_path)
        print(f"wrote {svg_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# connprob
# ---------------------------------------------------------------------------


def cmd_connprob(args) -> int:
    _check_positive(n=args.n, w=args.w, trials=args.trials)
    if args.n < 2:
        raise UsageError("--n must be at least 2: the probability is about a pair of tokens")
    if args.w > args.n:
        raise UsageError("--w must not exceed --n")
    rng = SeededRng(args.seed)
    analytic = connection_probability_analytic(args.n, args.w, causal=args.causal)
    result: dict = {
        "command": "connprob", "seed": args.seed, "n": args.n, "w": args.w,
        "causal": args.causal, "analytic": analytic,
    }
    if args.exhaustive:
        if args.causal:
            raise UsageError("--exhaustive supports only the non-causal estimate")
        est = connection_probability_exhaustive(args.n, args.w)
        result.update(trials=math.factorial(args.n), estimate=est, stderr=0.0)
        passed = abs(est - analytic) < 1e-15
    else:
        est, stderr = connection_probability_mc(args.n, args.w, args.trials,
                                                causal=args.causal, rng=rng)
        result.update(trials=args.trials, estimate=est, stderr=stderr)
        if args.causal:
            passed = abs(est - analytic) <= 0.15 * analytic
        else:
            passed = abs(est - analytic) <= max(3.0 * stderr, 1e-15)
    result["passed"] = bool(passed)
    path = _out_path(args, "connprob.json")
    _write_json(path, result)
    print(f"wrote {path} (estimate={result['estimate']:.6g}, analytic={analytic:.6g})")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# smallworld
# ---------------------------------------------------------------------------


def _swa_graph(n: int, w: int) -> np.ndarray:
    return symmetrize(build_window_mask(n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR)))


def _union_graph(n: int, w: int, rng: SeededRng) -> np.ndarray:
    window = build_window_mask(n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR))
    perm = sample_permutation(n, rng)
    stoch = build_stochastic_mask(n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR), perm)
    return symmetrize(window | stoch)


def cmd_smallworld(args) -> int:
    _check_positive(n=args.n, w=args.w, seeds=args.seeds, baselines=args.baselines)
    if args.w > args.n:
        raise UsageError("--w must not exceed --n")
    rng = SeededRng(args.seed)
    swa = _swa_graph(args.n, args.w)
    swa_metrics = smallworld_metrics(swa, rng.child(0, 0), baselines=args.baselines)
    union_c, union_l = [], []
    for s in range(args.seeds):
        union = _union_graph(args.n, args.w, rng.child(1, s))
        union_c.append(graph_clustering(union))
        union_l.append(graph_path_length(union))
    union_metrics = smallworld_metrics(_union_graph(args.n, args.w, rng.child(2, 0)),
                                       rng.child(3, 0), baselines=args.baselines)
    result = {
        "command": "smallworld", "seed": args.seed, "n": args.n, "w": args.w,
        "seeds": args.seeds,
        "swa": {"clustering": swa_metrics.clustering,
                "path_length": swa_metrics.path_length,
                "small_worldness": swa_metrics.small_worldness},
        "union_sample": {"clustering": union_metrics.clustering,
                         "path_length": union_metrics.path_length,
                         "small_worldness": union_metrics.small_worldness},
        "union_median_clustering": float(np.median(union_c)),
        "union_median_path_length": float(np.median(union_l)),
    }
    path = _out_path(args, "smallworld.json")
    _write_json(path, result)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    _check_positive(n=args.n, w=args.w, perms=args.perms, depth=args.depth, seeds=args.seeds)
    if args.w > args.n:
        raise UsageError("--w must not exceed --n")
    rng = SeededRng(args.seed)
    report = circulant_spectrum(args.n, args.w)
    dense = np.linalg.eigvals(
        build_window_mask(args.n, WindowSpec(args.w, Convention.SYMMETRIC_CIRCULAR))
        .astype(np.float64) / args.w)
    dft_vs_dense = eigenvalue_multiset_distance(report.eigenvalues, dense)
    sim_dev = 0.0
    for s in range(args.perms):
        perm = sample_permutation(args.n, rng.child(0, s))
        eigs = np.linalg.eigvals(permuted_transition_matrix(args.n, args.w, perm))
        sim_dev = max(sim_dev, eigenvalue_multiset_distance(eigs, report.eigenvalues))
    mixing = multilayer_mixing(args.n, args.w, args.depth, args.seeds, rng.child(1, 0))
    result = {
        "command": "spectrum", "seed": args.seed, "n": args.n, "w": args.w,
        "lambda2": report.lambda2,
        "dft_vs_dense_max_abs": dft_vs_dense,
        "similarity_max_abs": sim_dev,
        "mixing": {
            "depth": args.depth, "seeds": args.seeds,
            "median_product_lambda2": mixing.median_product_lambda2,
            "circulant_lambda2_pow_depth": mixing.circulant_lambda2_pow_depth,
        },
    }
    path = _out_path(args, "spectrum.json")
    _write_json(path, result)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# maskviz
# ---------------------------------------------------------------------------


def _build_viz_mask(kind: str, n: int, w: int, convention: Convention,
                    rng: SeededRng) -> np.ndarray:
    if kind == "full":
        return intersect_causal(np.ones((n, n), dtype=bool))
    spec = WindowSpec(w, convention)
    window = build_window_mask(n, spec)
    if kind == "swa":
        return window
    perm = sample_permutation(n, rng)
    stoch = build_stochastic_mask(n, spec, perm)
    if convention is Convention.CAUSAL_ONE_SIDED:
        stoch = intersect_causal(stoch)
    if kind == "sa":
        return stoch
    return window | stoch


def cmd_maskviz(args) -> int:
    _check_positive(n=args.n, w=args.w)
    if args.w > args.n:
        raise UsageError("--w must not exceed --n")
    if args.format == "pgm" and args.n > 512:
        raise UsageError("image output is capped at n <= 512")
    if args.format == "svg" and args.n > 128:
        raise UsageError("svg mask output is capped at n <= 128")
    rng = SeededRng(args.seed)
    mask = _build_viz_mask(args.kind, args.n, args.w, _CONVENTIONS[args.convention], rng)
    meta = (f"stochattn maskviz kind={args.kind} seed={args.seed} n={args.n} "
            f"w={args.w} convention={args.convention}")
    path = _out_path(args, f"mask_{args.kind}.{args.format}")
    if args.format == "pgm":
        mask_to_pgm(mask, path, meta)
    elif args.format == "csv":
        mask_to_csv(mask, path, meta)
    else:
        svgplot.mask_image(mask, path)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def cmd_cost(args) -> int:
    _check_positive(w=args.w, d=args.d)
    try:
        lengths = [int(tok) for tok in args.lengths.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--lengths must be comma-separated integers: {exc}")
    if not lengths or any(n <= 0 for n in lengths):
        raise UsageError("--lengths needs at least one positive length")
    rows = []
    chart: dict = {}
    prev: dict = {}
    for n in lengths:
        report = cost_model(n, args.w, args.d)
        for mode in ("full", "swa", "sa", "fused"):
            flops = report.flops[mode]
            ratio = flops / prev[mode] if mode in prev else float("nan")
            rows.append([n, mode, float(flops), float(ratio)])
            prev[mode] = flops
            chart.setdefault(mode, ([], []))
            chart[mode][0].append(float(n))
            chart[mode][1].append(float(flops))
    meta = f"stochattn cost seed={args.seed} w={args.w} d={args.d} lengths={args.lengths}"
    csv_path = _out_path(args, "cost.csv")
    _write_csv(csv_path, meta, ["n", "mode", "flops", "doubling_ratio"], rows, args.precision)
    print(f"wrote {csv_path}")
    if args.format == "svg":
        svg_path = _out_path(args, "cost.svg")
        svgplot.line_chart(chart, f"per-layer flops (w={args.w}, d={args.d})",
                           "sequence length", "flops", svg_path)
        print(f"wrote {svg_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def _finite_difference_grads(inp: AttentionInputs, mask, upstream, h: float = 1e-5):
    grads = []
    for name in ("q", "k", "v"):
        base = getattr(inp, name)
        g = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            bumped = {f: getattr(inp, f).copy() for f in ("q", "k", "v")}
            bumped[name][idx] += h
            y_plus = attention_forward(AttentionInputs(**bumped), mask)
            bumped[name][idx] -= 2 * h
            y_minus = attention_forward(AttentionInputs(**bumped), mask)
            g[idx] = ((y_plus - y_minus) * upstream).sum() / (2 * h)
        grads.append(g)
    return tuple(grads)


def run_gradcheck(n: int, d_h: int, instances: int, rng: SeededRng,
                  perturb: bool = False) -> dict:
    """Compare the analytic backward pass with central finite differences on
    random causal stochastic masks. Returns max relative errors per input."""
    worst = {"dq": 0.0, "dk": 0.0, "dv": 0.0}
    for inst in range(instances):
        r = rng.child(0, inst)
        q, k, v = (r.normal(size=(n, d_h)) for _ in range(3))
        upstream = r.normal(size=(n, d_h))
        perm = sample_permutation(n, r)
        mask = intersect_causal(build_stochastic_mask(
            n, WindowSpec(max(2, n // 2), Convention.SYMMETRIC_CIRCULAR), perm))
        inp = AttentionInputs(np.asarray(q), np.asarray(k), np.asarray(v))
        dq, dk, dv = attention_backward(inp, mask, np.asarray(upstream))
        if perturb:
            dq = dq + 1e-3
        fd = _finite_difference_grads(inp, mask, np.asarray(upstream))
        for label, analytic, numeric in (("dq", dq, fd[0]), ("dk", dk, fd[1]), ("dv", dv, fd[2])):
            denom = max(float(np.linalg.norm(numeric)), 1e-12)
            rel = float(np.linalg.norm(analytic - numeric)) / denom
            worst[label] = max(worst[label], rel)
    worst["passed"] = all(worst[k] <= 1e-6 for k in ("dq", "dk", "dv"))
    return worst


def cmd_gradcheck(args) -> int:
    _check_positive(n=args.n, dh=args.dh, instances=args.instances)
    rng = SeededRng(args.seed)
    result = run_gradcheck(args.n, args.dh, args.instances, rng, perturb=args.perturb_backward)
    result.update(command="gradcheck", seed=args.seed, n=args.n, d_h=args.dh,
                  instances=args.instances)
    path = _out_path(args, "gradcheck.json")
    _write_json(path, result)
    print(f"wrote {path} (passed={result['passed']})")
    return EXIT_OK if result["passed"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def cmd_stats(args) -> int:
    _check_positive(n=args.n, w=args.w, d=args.d, trials=args.trials)
    if args.w > args.n:
        raise UsageError("--w must not exceed --n")
    rng = SeededRng(args.seed)
    v = rng.child(7, 0).uniform(-1.0, 1.0, size=(args.n, args.d))
    if args.stat == "bias":
        report = sa_bias_mc(v, [args.w, 2 * args.w] if 2 * args.w <= args.n else [args.w],
                            args.trials, rng)
        result = {"ws": report.ws, "deviations": report.deviations,
                  "stderrs": report.stderrs, "trials": report.trials}
    elif args.stat == "variance":
        report = sa_variance_mc(v, args.w, args.trials, rng)
        result = {"exact": report.exact, "mc_variance": report.mc_variance,
                  "mc_stderr": report.mc_stderr, "bound": report.bound,
                  "sigma_v2": report.sigma_v2, "trials": report.trials}
    else:
        gates = GateParams(np.zeros((args.d, args.d)), np.zeros((args.d, args.d)))
        report = fusion_bv_decompose(v, gates, args.w, args.trials, rng)
        result = {"mse": report.mse, "bias_sq": report.bias_sq,
                  "variance_term": report.variance_term, "residual": report.residual,
                  "combined_stderr": report.combined_stderr,
                  "dim_variance_ratio": report.dim_variance_ratio, "trials": report.trials}
    result.update(command=f"stats-{args.stat}", seed=args.seed, n=args.n,
                  w=args.w, d=args.d)
    path = _out_path(args, f"stats_{args.stat}.json")
    _write_json(path, result)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _check_equivalence(rng: SeededRng) -> dict:
    worst = 0.0
    for case in range(100):
        r = rng.child(0, case)
        n = int(r.integers(4, 49))
        d_h = int(r.integers(1, 9))
        w = int(r.integers(2, n + 1))
        convention = (Convention.SYMMETRIC_CIRCULAR if case % 2 == 0
                      else Convention.CAUSAL_ONE_SIDED)
        q, k, v = (np.asarray(r.normal(size=(n, d_h))) for _ in range(3))
        perm = sample_permutation(n, r)
        inp = AttentionInputs(q, k, v)
        direct = sa_forward(inp, w, perm, convention)
        mask = intersect_causal(build_stochastic_mask(n, WindowSpec(w, convention), perm))
        oracle = attention_forward(inp, mask)
        worst = max(worst, float(np.abs(direct - oracle).max()))
    return {"name": "equivalence", "passed": worst <= 1e-12,
            "measured": {"max_abs_diff": worst, "cases": 100}}


def _check_gradcheck(rng: SeededRng, perturb: bool) -> dict:
    result = run_gradcheck(8, 4, 10, rng, perturb=perturb)
    passed = result.pop("passed")
    return {"name": "gradcheck", "passed": passed, "measured": result}


def _check_connprob(rng: SeededRng) -> dict:
    exact = connection_probability_exhaustive(6, 3)
    est, stderr = connection_probability_mc(128, 8, 20000, causal=False, rng=rng)
    analytic = connection_probability_analytic(128, 8)
    passed = (abs(exact - 0.4) < 1e-15) and (abs(est - analytic) <= 3 * stderr)
    return {"name": "connprob", "passed": passed,
            "measured": {"exhaustive_n6_w3": exact, "mc_estimate": est,
                         "mc_stderr": stderr, "analytic": analytic}}


def _check_connprob_causal(rng: SeededRng) -> dict:
    est, stderr = connection_probability_mc(128, 8, 2000, causal=True, rng=rng)
    analytic = connection_probability_analytic(128, 8, causal=True)
    passed = abs(est - analytic) <= 0.15 * analytic
    return {"name": "connprob_causal", "passed": passed,
            "measured": {"estimate": est, "stderr": stderr, "analytic": analytic}}


def _check_coverage(rng: SeededRng) -> dict:
    n, w, layers, seeds = 1024, 32, 8, 40
    sa = simulate_reachability(n, w, layers, RoutingMode.SA,
                               Convention.SYMMETRIC_CIRCULAR, rng.child(0, 0), n_seeds=seeds)
    swa = simulate_reachability(n, w, layers, RoutingMode.SWA,
                                Convention.SYMMETRIC_CIRCULAR, rng.child(1, 0), n_seeds=1)
    median_depth = float(np.median(per_seed_layers_to_coverage(sa, 1.0)))
    swa_exact = all(
        abs(swa.mean[ell] - min(1.0, (ell * (w - 1) + 1) / n)) < 1e-15
        for ell in range(layers + 1))
    stderr = sa.mean_stderr()
    bound_ok = True
    worst_margin = float("inf")
    for ell in range(layers):
        r = int(round(sa.mean[ell] * n))
        bound = expansion_lower_bound(max(1, min(n, r)), n, w) / n
        margin = sa.mean[ell + 1] - (bound - 3.0 * stderr[ell + 1])
        worst_margin = min(worst_margin, float(margin))
        if margin < -1e-12:  # float roundoff guard; the bound is tight at layer 1
            bound_ok = False
    passed = (median_depth <= 4.0) and swa_exact and bound_ok
    return {"name": "coverage", "passed": passed,
            "measured": {"sa_median_layers_to_full": median_depth,
                         "swa_matches_closed_form": swa_exact,
                         "expansion_bound_worst_margin": worst_margin,
                         "n": n, "w": w, "seeds": seeds}}


def _check_spectrum(rng: SeededRng) -> dict:
    report = circulant_spectrum(64, 8)
    dense = np.linalg.eigvals(
        build_window_mask(64, WindowSpec(8, Convention.SYMMETRIC_CIRCULAR))
        .astype(np.float64) / 8)
    dft_dev = eigenvalue_multiset_distance(report.eigenvalues, dense)
    sim_dev = 0.0
    for s in range(20):
        perm = sample_permutation(64, rng.child(0, s))
        eigs = np.linalg.eigvals(permuted_transition_matrix(64, 8, perm))
        sim_dev = max(sim_dev, eigenvalue_multiset_distance(eigs, report.eigenvalues))
    mixing = multilayer_mixing(128, 8, 3, 10, rng.child(1, 0))
    mixing_ok = mixing.median_product_lambda2 < mixing.circulant_lambda2_pow_depth
    passed = dft_dev <= 1e-9 and sim_dev <= 1e-9 and mixing_ok
    return {"name": "spectrum", "passed": passed,
            "measured": {"dft_vs_dense_max_abs": dft_dev,
                         "similarity_max_abs": sim_dev,
                         "median_product_lambda2": mixing.median_product_lambda2,
                         "circulant_lambda2_pow_depth": mixing.circulant_lambda2_pow_depth}}


def _check_variance(rng: SeededRng) -> dict:
    v = rng.child(0, 0).uniform(-1.0, 1.0, size=(64, 4))
    report = sa_variance_mc(v, 8, 4000, rng.child(1, 0))
    rel = abs(report.mc_variance - report.exact) / report.exact
    bound_ok = True
    for case in range(50):
        vv = rng.child(2, case).uniform(-1.0, 1.0, size=(32, 4))
        rep = sa_variance_exact(vv, 4)
        if not rep.exact <= rep.bound + 1e-15:
            bound_ok = False
    passed = rel <= 0.05 and bound_ok
    return {"name": "variance", "passed": passed,
            "measured": {"mc": report.mc_variance, "exact": report.exact,
                         "relative_error": rel, "bound_holds_on_50_cases": bound_ok}}


def _check_bias(rng: SeededRng) -> dict:
    v = rng.child(0, 0).uniform(-1.0, 1.0, size=(128, 4))
    report = sa_bias_mc(v, [8, 16], 4000, rng.child(1, 0))
    ratio = report.deviations[1] / report.deviations[0]
    passed = 0.3 <= ratio <= 0.8
    return {"name": "bias", "passed": passed,
            "measured": {"ws": report.ws, "deviations": report.deviations,
                         "halving_ratio": ratio}}


def _check_bvdecomp(rng: SeededRng) -> dict:
    v = rng.child(0, 0).uniform(-1.0, 1.0, size=(32, 4))
    gates = GateParams(np.zeros((4, 4)), np.zeros((4, 4)))
    report = fusion_bv_decompose(v, gates, 8, 4000, rng.child(1, 0))
    passed = abs(report.residual) <= 3.0 * report.combined_stderr
    return {"name": "bvdecomp", "passed": passed,
            "measured": {"mse": report.mse, "bias_sq": report.bias_sq,
                         "variance_term": report.variance_term,
                         "residual": report.residual,
                         "combined_stderr": report.combined_stderr}}


def _check_cost(rng: SeededRng) -> dict:
    del rng
    w, d = 64, 128
    ratios_full, ratios_sa = [], []
    for n in (1024, 2048, 4096, 8192):
        a, b = cost_model(n, w, d), cost_model(2 * n, w, d)
        ratios_full.append(b.flops["full"] / a.flops["full"])
        ratios_sa.append(b.flops["sa"] / a.flops["sa"])
    fused_exact = all(
        cost_model(n, w, d).attention_flops["fused"]
        == 2 * cost_model(n, w, d).attention_flops["sa"]
        for n in (1024, 4096))
    passed = (all(abs(r - 4.0) <= 0.04 for r in ratios_full)
              and all(abs(r - 2.0) <= 0.02 for r in ratios_sa)
              and fused_exact)
    return {"name": "cost", "passed": passed,
            "measured": {"full_doubling_ratios": ratios_full,
                         "sa_doubling_ratios": ratios_sa,
                         "fused_attention_is_twice_sa": fused_exact}}


def _check_smallworld(rng: SeededRng) -> dict:
    n, w, seeds = 512, 16, 10
    k = w // 2
    ring = _swa_graph(n, w)
    ring_c = graph_clustering(ring)
    formula = ring_lattice_clustering(k)
    ring_ok = abs(ring_c - formula) < 1e-12
    swa_l = graph_path_length(ring)
    cs, ls = [], []
    for s in range(seeds):
        union = _union_graph(n, w, rng.child(0, s))
        cs.append(graph_clustering(union))
        ls.append(graph_path_length(union))
    med_c, med_l = float(np.median(cs)), float(np.median(ls))
    passed = ring_ok and med_l < swa_l / 2 and med_c > ring_c / 2
    return {"name": "smallworld", "passed": passed,
            "measured": {"ring_clustering": ring_c, "ring_formula": formula,
                         "swa_path_length": swa_l, "union_median_clustering": med_c,
                         "union_median_path_length": med_l}}


def _check_connectome(rng: SeededRng) -> dict:
    del rng
    big = connectome_depth_prediction(130000, 21)
    small = connectome_depth_prediction(2048, 32)
    passed = big == 4 and small == 3
    return {"name": "connectome", "passed": passed,
            "measured": {"depth_130000_21": big, "depth_2048_32": small}}


_VERIFY_CHECKS = [
    ("equivalence", _check_equivalence),
    ("gradcheck", _check_gradcheck),
    ("connprob", _check_connprob),
    ("connprob_causal", _check_connprob_causal),
    ("coverage", _check_coverage),
    ("spectrum", _check_spectrum),
    ("variance", _check_variance),
    ("bias", _check_bias),
    ("bvdecomp", _check_bvdecomp),
    ("cost", _check_cost),
    ("smallworld", _check_smallworld),
    ("connectome", _check_connectome),
]


def cmd_verify(args) -> int:
    names = [name for name, _ in _VERIFY_CHECKS]
    selected = names
    if args.only:
        selected = [s.strip() for s in args.only.split(",") if s.strip()]
        unknown = [s for s in selected if s not in names]
        if unknown:
            raise UsageError(f"unknown check(s): {', '.join(unknown)} "
                             f"(choose from {', '.join(names)})")
    root = SeededRng(args.seed)
    checks = []
    for index, (name, fn) in enumerate(_VERIFY_CHECKS):
        if name not in selected:
            continue
        rng = root.child(index, 0)
        if name == "gradcheck":
            checks.append(fn(rng, args.perturb_backward))
        else:
            checks.append(fn(rng))
    all_passed = all(c["passed"] for c in checks)
    result = {"command": "verify", "seed": args.seed, "only": args.only,
              "checks": checks, "all_passed": all_passed}
    path = _out_path(args, "verify.json")
    _write_json(path, result)
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}")
    print(f"wrote {path}")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="stochattn",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=("output schemas v1: coverage.csv 'layer,mode,mean_coverage,min,median,max'; "
                "cost.csv 'n,mode,flops,doubling_ratio'; mask CSV rows of 0/1; "
                "PGM binary P5 with 0=masked, 255=unmasked; JSON objects carry "
                "'command' and 'seed' fields"),
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    parser.add_argument("--out", type=str, default=None,
                        help=f"output directory (default ${OUT_DIR_ENV} or cwd)")
    parser.add_argument("--format", choices=["csv", "json", "svg", "pgm"], default=None,
                        help="output format where a command supports several")
    parser.add_argument("--precision", type=int, default=12,
                        help="significant digits for CSV floats")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coverage", help="receptive-field coverage vs depth")
    p.add_argument("--n", type=int, default=2048)
    p.add_argument("--w", type=int, default=32)
    p.add_argument("--layers", type=int, default=8)
    p.add_argument("--modes", type=str, default="swa,sa")
    p.add_argument("--seeds", type=str, default="20",
                   help="count N (indices 0..N-1) or explicit comma list of indices")
    p.add_argument("--convention", choices=list(_CONVENTIONS), default="circular")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("connprob", help="pairwise connection probability")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--w", type=int, default=16)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--causal", action="store_true")
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate all permutations (n <= 8)")
    p.set_defaults(func=cmd_connprob)

    p = sub.add_parser("smallworld", help="clustering / path-length / small-worldness")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--w", type=int, default=16)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--baselines", type=int, default=10)
    p.set_defaults(func=cmd_smallworld)

    p = sub.add_parser("spectrum", help="circulant spectrum and multi-layer mixing")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--w", type=int, default=8)
    p.add_argument("--perms", type=int, default=20)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("maskviz", help="render a mask as PGM/CSV/SVG")
    p.add_argument("--kind", choices=["full", "swa", "sa", "union"], default="sa")
    p.add_argument("--n", type=int, default=27)
    p.add_argument("--w", type=int, default=8)
    p.add_argument("--convention", choices=list(_CONVENTIONS), default="causal")
    p.set_defaults(func=cmd_maskviz)

    p = sub.add_parser("cost", help="analytic flop counts vs sequence length")
    p.add_argument("--lengths", type=str, default="1024,2048,4096,8192,16384,32768")
    p.add_argument("--w", type=int, default=256)
    p.add_argument("--d", type=int, default=64)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("verify", help="run every verification suite")
    p.add_argument("--only", type=str, default=None,
                   help="comma-separated subset of checks to run")
    p.add_argument("--perturb-backward", action="store_true",
                   help="inject a fault into the backward pass (negative control)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the backward pass")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--dh", type=int, default=4)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--perturb-backward", dest="perturb_backward", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("stats", help="bias / variance / decomposition reports")
    p.add_argument("stat", choices=["bias", "variance", "bvdecomp"])
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--w", type=int, default=16)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # normalize default formats per command
    if args.format is None:
        args.format = "pgm" if args.command == "maskviz" else "csv"
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
