"""Command-line front end.

Runs the verification suites and emits the analytic artifacts (coverage
curves, cost curves, mask images, metric tables) as CSV / JSON / SVG / PGM
files. Exit codes: 0 success, 1 usage error, 2 verification failure.

All outputs are deterministic for a fixed ``--seed``: files carry the seed
in a metadata comment (CSV/PGM) or field (JSON) and never carry timestamps.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .attention import GateParams
from .checks import (CHECKS, connprob, connprob_causal, gradcheck, gradcheck_cost, spectrum,
                     spectrum_cost)
from .graphs import (NoConnectedBaselineError, RoutingMode, circulant_spectrum,
                     connection_probability_analytic, connection_probability_cost,
                     connection_probability_exhaustive, cost_model, graph_clustering,
                     graph_path_length, layer_edges, layer_mask, layer_mask_cost,
                     reachability_cost, simulate_reachability, smallworld_cost,
                     smallworld_metrics)
from .masks import Convention, intersect_causal, mask_to_csv, mask_to_pgm
from .numerics import SeededRng
from .stats import (fusion_bv_cost, fusion_bv_decompose, sa_bias_cost, sa_bias_mc,
                    sa_variance_cost, sa_variance_mc)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2

# Caps on the bytes one command holds at once and on its elementary
# operations (flops, score cells x flops per cell, permutation and window
# entries, 64-bit word ORs), as the *_cost estimate beside each routine has it.
MAX_BYTES = 1 << 28
MAX_WORK = 10**12
OUT_DIR_ENV = "STOCHATTN_OUT"

_MASK_KINDS = {"swa": RoutingMode.SWA, "sa": RoutingMode.SA, "union": RoutingMode.FUSED}
# the formats each command writes, its default first; the others write JSON only
_FORMATS = {"maskviz": ("pgm", "csv", "svg"), "coverage": ("csv", "svg"), "cost": ("csv", "svg")}


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
    n, w = kwargs.get("n"), kwargs.get("w")
    if n is not None and w is not None and w > n:
        raise UsageError("--w must not exceed --n")


def _check_cost(command: str, cost: tuple[int, int], lower: str) -> None:
    """Refuse, before anything is allocated, a run whose estimated (bytes,
    work) passes MAX_BYTES or MAX_WORK; ``lower`` names the flags to lower."""
    est_bytes, est_work = cost
    if est_bytes > MAX_BYTES or est_work > MAX_WORK:
        # ints convert to float for printing, which overflows past about 1e308
        raise UsageError(f"{command} would hold about {min(est_bytes, 10**300) / 2**20:.4g} MiB "
                         f"and take about {min(est_work, 10**300):.3g} operations, over the "
                         f"{MAX_BYTES >> 20} MiB / {MAX_WORK:.0e} operation cap; lower {lower}")


def _out_path(args, filename: str) -> Path:
    path = Path(args.out or os.environ.get(OUT_DIR_ENV) or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path / filename


def _write_csv(args, filename: str, meta: str, header: list[str], rows: list[list]) -> None:
    """Write ``filename`` to the output directory, floats at ``--precision``
    significant digits, and report it."""
    path = _out_path(args, filename)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# {meta}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                format(x, f".{args.precision}g") if isinstance(x, float) else str(x)
                for x in row))
            fh.write("\n")
    print(f"wrote {path}")


def _write_json(args, filename: str, obj: dict, note: str = "") -> None:
    """Write ``filename`` to the output directory as strict JSON (a NaN or
    infinite value raises rather than being written as a token that strict
    parsers reject) and report it, followed by ``note``."""
    path = _out_path(args, filename)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False))
        fh.write("\n")
    print(f"wrote {path}{note}")


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def _parse_seeds(raw: str):
    """'N' derives seed indices 0..N-1; 'a,b,c' uses the listed indices."""
    try:
        seeds = [int(tok) for tok in raw.split(",") if tok.strip()] if "," in raw else int(raw)
    except ValueError as exc:
        raise UsageError(f"--seeds must be a count or comma-separated indices: {exc}")
    if (isinstance(seeds, int) and seeds <= 0) or (isinstance(seeds, list) and not seeds):
        raise UsageError("--seeds needs at least one seed")
    if isinstance(seeds, list) and len(set(seeds)) < len(seeds):
        raise UsageError("--seeds lists a seed index more than once")
    return seeds


def cmd_coverage(args) -> int:
    _check_positive(n=args.n, w=args.w)
    seeds = _parse_seeds(args.seeds)
    if args.layers < 0:
        raise UsageError("--layers must be >= 0")
    known = [mode.value for mode in RoutingMode]
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise UsageError(f"--modes names no mode (choose from {','.join(known)})")
    for m in modes:
        if m not in known:
            raise UsageError(f"unknown mode '{m}' (choose from {','.join(known)})")
    convention = Convention(args.convention)
    n_seeds = seeds if isinstance(seeds, int) else len(seeds)
    _check_cost("coverage", reachability_cost(args.n, args.w, args.layers, n_seeds,
                                              [RoutingMode(m) for m in modes], convention),
                "--layers, --seeds or --n")
    rng = SeededRng(args.seed)
    rows = []
    chart = {}
    for m in modes:
        curve = simulate_reachability(args.n, args.w, args.layers, RoutingMode(m),
                                      convention, rng.child(known.index(m), 0),
                                      n_seeds=seeds)
        for ell in range(args.layers + 1):
            rows.append([int(ell), m, float(curve.mean[ell]), float(curve.lo[ell]),
                         float(curve.median[ell]), float(curve.hi[ell])])
        chart[m] = (curve.layers.astype(float), curve.mean)
    meta = (f"stochattn coverage seed={args.seed} n={args.n} w={args.w} "
            f"layers={args.layers} seeds={args.seeds} convention={args.convention}")
    _write_csv(args, "coverage.csv", meta,
               ["layer", "mode", "mean_coverage", "min", "median", "max"], rows)
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
    analytic = connection_probability_analytic(args.n, args.w, causal=args.causal)
    result: dict = {
        "command": "connprob", "seed": args.seed, "n": args.n, "w": args.w,
        "causal": args.causal, "analytic": analytic,
    }
    if args.exhaustive:
        if args.causal:
            raise UsageError("--exhaustive supports only the non-causal estimate")
        if args.n > 8:
            raise UsageError("--exhaustive enumerates all n! orders and is capped at n <= 8")
        est = connection_probability_exhaustive(args.n, args.w)
        result.update(trials=math.factorial(args.n), estimate=est, stderr=0.0)
        passed = abs(est - analytic) < 1e-15
    else:
        if not args.causal and args.n * (args.n - 1) > np.iinfo(np.int64).max:
            raise UsageError("--n is too large: the non-causal estimate draws one of the "
                             "n(n-1) ordered slot pairs as an int64, so n(n-1) must be < 2**63")
        _check_cost("connprob",
                    connection_probability_cost(args.n, args.w, args.trials, args.causal),
                    "--n, --w or --trials")
        check, keys = ((connprob_causal, ("estimate", "stderr")) if args.causal
                       else (connprob, ("mc_estimate", "mc_stderr")))
        report = check(SeededRng(args.seed), n=args.n, w=args.w, trials=args.trials)
        result.update(trials=args.trials, estimate=report["measured"][keys[0]],
                      stderr=report["measured"][keys[1]])
        passed = report["passed"]
    result["passed"] = bool(passed)
    _write_json(args, "connprob.json", result,
                f" (estimate={result['estimate']:.6g}, analytic={analytic:.6g})")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# smallworld
# ---------------------------------------------------------------------------


def cmd_smallworld(args) -> int:
    _check_positive(n=args.n, w=args.w, seeds=args.seeds, baselines=args.baselines)
    if args.w < 2:
        raise UsageError("--w must be at least 2: a one-token window has no edges")
    _check_cost("smallworld", smallworld_cost(args.n, args.w, args.seeds, args.baselines),
                "--n, --w, --seeds or --baselines")
    rng = SeededRng(args.seed)

    def graph(mode: RoutingMode, r: SeededRng):
        return layer_edges(args.n, args.w, mode, Convention.SYMMETRIC_CIRCULAR, r)

    def metrics(edges, r: SeededRng):
        try:
            return smallworld_metrics(*edges, r, args.baselines)
        except NoConnectedBaselineError as exc:
            raise UsageError(f"{exc}, so the graph is too sparse for a small-world "
                             f"baseline; use a larger --w") from exc

    swa_metrics = metrics(graph(RoutingMode.SWA, rng), rng.child(0, 0))
    union_c, union_l = [], []
    for s in range(args.seeds):
        union = graph(RoutingMode.FUSED, rng.child(1, s))
        union_c.append(graph_clustering(*union))
        union_l.append(graph_path_length(*union))
    union_metrics = metrics(graph(RoutingMode.FUSED, rng.child(2, 0)), rng.child(3, 0))
    fields = ("clustering", "path_length", "small_worldness")
    result = {
        "command": "smallworld", "seed": args.seed, "n": args.n, "w": args.w,
        "seeds": args.seeds,
        "swa": {f: getattr(swa_metrics, f) for f in fields},
        "union_sample": {f: getattr(union_metrics, f) for f in fields},
        "union_median_clustering": float(np.median(union_c)),
        "union_median_path_length": float(np.median(union_l)),
    }
    _write_json(args, "smallworld.json", result)
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    _check_positive(n=args.n, w=args.w, perms=args.perms, depth=args.depth, seeds=args.seeds)
    if args.n < 2:
        raise UsageError("--n must be at least 2: the spectrum needs a second eigenvalue")
    _check_cost("spectrum", spectrum_cost(args.n, args.perms, args.depth, args.seeds),
                "--n, --perms, --seeds or --depth")
    measured = spectrum(SeededRng(args.seed), n=args.n, w=args.w, perms=args.perms,
                        mixing_n=args.n, depth=args.depth, mixing_seeds=args.seeds)["measured"]
    result = {
        "command": "spectrum", "seed": args.seed, "n": args.n, "w": args.w,
        "lambda2": circulant_spectrum(args.n, args.w).lambda2,
        "dft_vs_dense_max_abs": measured["dft_vs_dense_max_abs"],
        "similarity_max_abs": measured["similarity_max_abs"],
        "mixing": {
            "depth": args.depth, "seeds": args.seeds,
            "median_product_lambda2": measured["median_product_lambda2"],
            "circulant_lambda2_pow_depth": measured["circulant_lambda2_pow_depth"],
        },
    }
    _write_json(args, "spectrum.json", result)
    return EXIT_OK


# ---------------------------------------------------------------------------
# maskviz
# ---------------------------------------------------------------------------


def cmd_maskviz(args) -> int:
    # the full causal mask has no window
    _check_positive(n=args.n, w=None if args.kind == "full" else args.w)
    if args.format == "pgm" and args.n > 512:
        raise UsageError("image output is capped at n <= 512")
    if args.format == "svg" and args.n > 128:
        raise UsageError("svg mask output is capped at n <= 128")
    _check_cost("maskviz", layer_mask_cost(args.n, args.format == "svg"), "--n")
    meta = f"stochattn maskviz kind={args.kind} seed={args.seed} n={args.n}"
    if args.kind == "full":
        mask = intersect_causal(np.ones((args.n, args.n), dtype=bool))
    else:
        mask = layer_mask(args.n, args.w, _MASK_KINDS[args.kind],
                          Convention(args.convention), SeededRng(args.seed))
        meta += f" w={args.w} convention={args.convention}"
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
    if args.w > min(lengths):
        raise UsageError(f"--w must not exceed the shortest of --lengths ({min(lengths)})")
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
    _write_csv(args, "cost.csv", meta, ["n", "mode", "flops", "doubling_ratio"], rows)
    if args.format == "svg":
        svg_path = _out_path(args, "cost.svg")
        svgplot.line_chart(chart, f"per-layer flops (w={args.w}, d={args.d})",
                           "sequence length", "flops", svg_path)
        print(f"wrote {svg_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    _check_positive(n=args.n, dh=args.dh, instances=args.instances)
    if args.n < 2:
        raise UsageError("--n must be at least 2: the audited window spans two tokens")
    _check_cost("gradcheck", gradcheck_cost(args.n, args.dh, args.instances),
                "--n, --dh or --instances")
    report = gradcheck(SeededRng(args.seed), n=args.n, d_h=args.dh, instances=args.instances,
                       perturb=args.perturb_backward)
    result = dict(report["measured"], passed=report["passed"], command="gradcheck",
                  seed=args.seed, n=args.n, d_h=args.dh, instances=args.instances)
    _write_json(args, "gradcheck.json", result, f" (passed={result['passed']})")
    return EXIT_OK if result["passed"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def cmd_stats(args) -> int:
    _check_positive(n=args.n, w=args.w, d=args.d, trials=args.trials)
    if args.stat == "bvdecomp" and args.trials < 100:
        raise UsageError("--trials must be at least 100 for bvdecomp's pilot and audit batches")
    if args.trials < 2:
        raise UsageError("--trials must be at least 2 to estimate a standard error")
    cost = {"bias": sa_bias_cost, "variance": sa_variance_cost, "bvdecomp": fusion_bv_cost}
    _check_cost(f"stats {args.stat}", cost[args.stat](args.n, args.w, args.d, args.trials),
                "--n, --w, --d or --trials")
    rng = SeededRng(args.seed)
    v = rng.child(7, 0).uniform(-1.0, 1.0, size=(args.n, args.d))
    if args.stat == "bias":
        report = sa_bias_mc(v, [args.w, 2 * args.w] if 2 * args.w <= args.n else [args.w],
                            args.trials, rng)
        fields = ("ws", "deviations", "stderrs")
    elif args.stat == "variance":
        report = sa_variance_mc(v, args.w, args.trials, rng)
        fields = ("exact", "mc_variance", "mc_stderr", "bound", "sigma_v2")
    else:
        gates = GateParams(np.zeros((args.d, args.d)), np.zeros((args.d, args.d)))
        report = fusion_bv_decompose(v, gates, args.w, args.trials, rng)
        fields = ("mse", "bias_sq", "variance_term", "residual", "combined_stderr",
                  "dim_variance_ratio")
    result = {f: getattr(report, f) for f in (*fields, "trials")}
    result.update(command=f"stats-{args.stat}", seed=args.seed, n=args.n,
                  w=args.w, d=args.d)
    _write_json(args, f"stats_{args.stat}.json", result)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    names = list(CHECKS)
    selected = names
    if args.only is not None:
        selected = [s.strip() for s in args.only.split(",") if s.strip()]
        if not selected:
            raise UsageError(f"--only names no check (choose from {', '.join(names)})")
        unknown = [s for s in selected if s not in names]
        if unknown:
            raise UsageError(f"unknown check(s): {', '.join(unknown)} "
                             f"(choose from {', '.join(names)})")
    root = SeededRng(args.seed)
    results = []
    for index, (name, check) in enumerate(CHECKS.items()):
        if name in selected:
            extra = {"perturb": args.perturb_backward} if name == "gradcheck" else {}
            results.append(check(root.child(index, 0), **extra))
    all_passed = all(r["passed"] for r in results)
    result = {"command": "verify", "seed": args.seed, "only": args.only,
              "checks": results, "all_passed": all_passed}
    for r in results:
        print(f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}")
    _write_json(args, "verify.json", result)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The process's one parser, built on the first call. Parsing does not
    change it, so ``main`` reuses it rather than rebuilding nine subcommands
    on every call; callers must not modify it."""
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
                        help="maskviz: pgm|csv|svg; coverage, cost: csv|svg; others: json")
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
    p.add_argument("--convention", choices=[c.value for c in Convention], default="circular")
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
    p.add_argument("--kind", choices=["full", *_MASK_KINDS], default="sa")
    p.add_argument("--n", type=int, default=27)
    p.add_argument("--w", type=int, default=8)
    p.add_argument("--convention", choices=[c.value for c in Convention], default="causal")
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
    formats = _FORMATS.get(args.command, ("json",))
    try:
        if args.format is None:
            args.format = formats[0]
        elif args.format not in formats:
            raise UsageError(f"--format must be one of {', '.join(formats)} for "
                             f"{args.command}, got {args.format}")
        if args.precision < 0:
            raise UsageError(f"--precision must be >= 0, got {args.precision}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
