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
from .attention import GateParams
from .checks import CHECKS, connprob, connprob_causal, gradcheck, spectrum
from .graphs import (
    _GATHER_BYTES,
    NoConnectedBaselineError,
    RoutingMode,
    _clustering,
    _path_length,
    _smallworld_metrics,
    circulant_spectrum,
    connection_probability_analytic,
    connection_probability_exhaustive,
    cost_model,
    layer_edges,
    layer_mask,
    simulate_reachability,
)
from .masks import Convention, intersect_causal, mask_to_csv, mask_to_pgm
from .numerics import MC_CHUNK_BYTES, SeededRng
from .stats import fusion_bv_decompose, sa_bias_mc, sa_variance_mc

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2

# Caps on the bytes one command holds at once and on its elementary
# operations (flops, score cells x flops per cell, permutation and window
# entries, 64-bit word ORs), as the command's _<command>_cost estimates them.
MAX_BYTES = 1 << 28
MAX_WORK = 10**12
OUT_DIR_ENV = "STOCHATTN_OUT"

_CONVENTIONS = {"causal": Convention.CAUSAL_ONE_SIDED, "circular": Convention.SYMMETRIC_CIRCULAR}
_MODES = {"swa": RoutingMode.SWA, "sa": RoutingMode.SA, "fused": RoutingMode.FUSED}
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
    if isinstance(seeds, list) and len(set(seeds)) < len(seeds):
        raise UsageError("--seeds lists a seed index more than once")
    return seeds


def _coverage_cost(n: int, w: int, layers: int, seeds: int, modes: list[str],
                   causal: bool) -> tuple[int, int]:
    """Estimated (bytes, word ORs) of a coverage run. A curve holds its seeds'
    (layers + 1) x n int64 counts five times at once: the per-seed list,
    their stack, the fractions, the pooled copy and the median's copy. A
    seed's simulation holds packed reachability rows of n bits in whole
    64-bit words: about 5n + 3w of them under the circular convention (the
    rows, their permuted copy, two wrap-padded OR buffers and the overlap
    copy of an in-place OR), and two sets of n under the causal one, with
    three n x 2w (n x w without fused) int64 neighbour tables and two
    gathers of up to _GATHER_BYTES or one token's neighbour rows. Per seed
    and layer each row ORs about 2 log2(w) + 4 rows (circular: shifted
    doublings and gathers), or one row per neighbour (causal)."""
    words = -(-n // 64)
    width = 2 * w if "fused" in modes else w
    if causal:
        rows = 2 * n * 8 * words + 3 * n * width * 8 + 2 * max(_GATHER_BYTES, width * 8 * words)
        per_row = width
    else:
        rows = (5 * n + 3 * w) * 8 * words
        per_row = 2 * w.bit_length() + 4
    return (5 * seeds * (layers + 1) * n * 8 + rows,
            len(modes) * seeds * layers * n * words * per_row)


def cmd_coverage(args) -> int:
    _check_positive(n=args.n, w=args.w)
    seeds = _parse_seeds(args.seeds)
    if args.layers < 0:
        raise UsageError("--layers must be >= 0")
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise UsageError("--modes names no mode (choose from swa,sa,fused)")
    for m in modes:
        if m not in _MODES:
            raise UsageError(f"unknown mode '{m}' (choose from swa,sa,fused)")
    convention = _CONVENTIONS[args.convention]
    n_seeds = seeds if isinstance(seeds, int) else len(seeds)
    _check_cost("coverage", _coverage_cost(args.n, args.w, args.layers, n_seeds, modes,
                                           convention is Convention.CAUSAL_ONE_SIDED),
                "--layers, --seeds or --n")
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


def _connprob_cost(n: int, w: int, trials: int, causal: bool) -> tuple[int, int]:
    """Estimated (bytes, entries) of a Monte-Carlo connprob run. Trials run in
    chunks of t, as many as fit MC_CHUNK_BYTES at the bytes of a trial's
    largest array (at least one). Non-causal, a chunk holds t x n int64
    permutations three times (the last chunk's, the tiled identity and its
    shuffle), after the check's enumeration of the 720 orders of 6 tokens
    left about 100 KiB of tuples in the interpreter's free list. Causal, a
    chunk holds the permutations and their inverses about eight times, the
    t x n x w int64 window tokens and two t x n x w boolean comparisons (the
    last chunk's and its own); the run also holds the n x w int64 window
    table and two floats a trial (the densities and their deviations). The
    work is the permutation entries and, causal, the window entries of every
    trial."""
    if not causal:
        t = max(1, MC_CHUNK_BYTES // (n * 8))
        return t * 8 * (3 * n + 5) + 100 * 1024, trials * n
    t = max(1, MC_CHUNK_BYTES // (n * w * 8))
    return n * w * 8 + 16 * trials + t * n * (10 * w + 64), trials * n * w


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
        _check_cost("connprob", _connprob_cost(args.n, args.w, args.trials, args.causal),
                    "--n, --w or --trials")
        check, keys = ((connprob_causal, ("estimate", "stderr")) if args.causal
                       else (connprob, ("mc_estimate", "mc_stderr")))
        report = check(SeededRng(args.seed), n=args.n, w=args.w, trials=args.trials)
        result.update(trials=args.trials, estimate=report["measured"][keys[0]],
                      stderr=report["measured"][keys[1]])
        passed = report["passed"]
    result["passed"] = bool(passed)
    path = _out_path(args, "connprob.json")
    _write_json(path, result)
    print(f"wrote {path} (estimate={result['estimate']:.6g}, analytic={analytic:.6g})")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# smallworld
# ---------------------------------------------------------------------------


def _smallworld_cost(n: int, w: int, seeds: int, baselines: int) -> tuple[int, int]:
    """Estimated (bytes, word ORs) of a smallworld run. Building a union
    graph holds about ten copies of its n x 2w int64 neighbour table (the
    table, token and neighbour columns, both directions' edge keys and their
    deduplication). A graph has at most n w undirected edges, e, kept as
    int64 rows and columns of both directions; about 21 int64 words per edge
    are held at once while a baseline is measured (the last union graph,
    the measured graph, the baseline's draw, its pair arithmetic, sort and
    neighbour lists). The estimate adds the two phases. The draw is numpy's
    ``choice`` without replacement, which holds all n(n - 1)/2 pairs as
    int64 once e is over a 50th of them, else about four words per edge.
    Path lengths hold two sets of n packed rows of n bits and two arrays of
    up to _GATHER_BYTES (gathered rows and their ORs), clustering one set
    and three (two gathers and their AND). The work is the path-length
    BFS's word ORs: n(2w + 1) rows a step, about n / w steps on the ring and
    2 log2(n) on each union and baseline graph."""
    words = -(-n // 64)
    pairs = n * (n - 1) // 2
    edges = min(pairs, n * w)
    draw = 8 * (pairs + edges) if edges > pairs // 50 else 32 * edges
    gather = max(_GATHER_BYTES, (2 * w + 1) * 8 * words)
    est_bytes = 8 * (20 * n * w + 21 * edges) + draw + 2 * n * 8 * words + 3 * gather
    steps = -(-n // w) + 2 * (seeds + 1 + baselines) * n.bit_length()
    return est_bytes, steps * n * (2 * w + 1) * words


def cmd_smallworld(args) -> int:
    _check_positive(n=args.n, w=args.w, seeds=args.seeds, baselines=args.baselines)
    if args.w < 2:
        raise UsageError("--w must be at least 2: a one-token window has no edges")
    _check_cost("smallworld", _smallworld_cost(args.n, args.w, args.seeds, args.baselines),
                "--n, --w, --seeds or --baselines")
    rng = SeededRng(args.seed)

    def graph(mode: RoutingMode, r: SeededRng):
        return layer_edges(args.n, args.w, mode, Convention.SYMMETRIC_CIRCULAR, r)

    def metrics(edges, r: SeededRng):
        try:
            return _smallworld_metrics(*edges, r, args.baselines)
        except NoConnectedBaselineError as exc:
            raise UsageError(f"{exc}, so the graph is too sparse for a small-world "
                             f"baseline; use a larger --w") from exc

    swa_metrics = metrics(graph(RoutingMode.SWA, rng), rng.child(0, 0))
    union_c, union_l = [], []
    for s in range(args.seeds):
        union = graph(RoutingMode.FUSED, rng.child(1, s))
        union_c.append(_clustering(*union))
        union_l.append(_path_length(*union))
    union_metrics = metrics(graph(RoutingMode.FUSED, rng.child(2, 0)), rng.child(3, 0))
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


def _spectrum_cost(n: int, perms: int, depth: int, seeds: int) -> tuple[int, int]:
    """Estimated (bytes, flops) of a spectrum run: perms + 1 + seeds dense
    eigen-solves of about 10 n^3 flops, seeds products of depth n x n layers
    at 2 n^3 each, and about four n x n float64 arrays held at once."""
    return 4 * 8 * n * n, (10 * (perms + 1 + seeds) + 2 * depth * seeds) * n ** 3


def cmd_spectrum(args) -> int:
    _check_positive(n=args.n, w=args.w, perms=args.perms, depth=args.depth, seeds=args.seeds)
    if args.n < 2:
        raise UsageError("--n must be at least 2: the spectrum needs a second eigenvalue")
    _check_cost("spectrum", _spectrum_cost(args.n, args.perms, args.depth, args.seeds),
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
    path = _out_path(args, "spectrum.json")
    _write_json(path, result)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# maskviz
# ---------------------------------------------------------------------------


def _maskviz_cost(n: int, svg: bool) -> tuple[int, int]:
    """Estimated (bytes, cell visits) of a maskviz run: at most four n x n
    boolean masks at once (the window, the permuted window, the causal
    filter and its result; a written copy comes after), about 64 bytes a
    token of permutation and band index arrays, for SVG about 300 bytes of
    text a cell (its element, the joined document and its copy), and about
    eight passes over the n^2 cells."""
    return 4 * n * n + 64 * n + (300 * n * n if svg else 0), 8 * n * n


def cmd_maskviz(args) -> int:
    # the full causal mask has no window
    _check_positive(n=args.n, w=None if args.kind == "full" else args.w)
    if args.format == "pgm" and args.n > 512:
        raise UsageError("image output is capped at n <= 512")
    if args.format == "svg" and args.n > 128:
        raise UsageError("svg mask output is capped at n <= 128")
    _check_cost("maskviz", _maskviz_cost(args.n, args.format == "svg"), "--n")
    if args.kind == "full":
        mask = intersect_causal(np.ones((args.n, args.n), dtype=bool))
    else:
        mask = layer_mask(args.n, args.w, _MASK_KINDS[args.kind],
                          _CONVENTIONS[args.convention], SeededRng(args.seed))
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


def _gradcheck_cost(n: int, d_h: int, instances: int) -> tuple[int, int]:
    """Estimated (bytes, flops) of a gradcheck run: each instance runs a plus
    and a minus dense forward of n^2 score cells for each of its 3 n d_h
    input coordinates, at 4 d_h flops a cell (scores and values). It holds
    about six n x (n + d_h) float64 arrays (the dense backward's) and, for
    the forwards, stacked over as many coordinates as fit MC_CHUNK_BYTES at
    16 n max(n, d_h) bytes a coordinate (at least one), about six arrays of
    a chunk's size: the last chunk's outputs, the bumped inputs, the scores,
    two softmax work arrays and the outputs."""
    cells = instances * 6 * n ** 3 * d_h
    chunk = max(MC_CHUNK_BYTES, 16 * n * max(n, d_h))
    return 6 * 8 * n * (n + d_h) + 6 * chunk, 4 * d_h * cells


def cmd_gradcheck(args) -> int:
    _check_positive(n=args.n, dh=args.dh, instances=args.instances)
    if args.n < 2:
        raise UsageError("--n must be at least 2: the audited window spans two tokens")
    _check_cost("gradcheck", _gradcheck_cost(args.n, args.dh, args.instances),
                "--n, --dh or --instances")
    report = gradcheck(SeededRng(args.seed), n=args.n, d_h=args.dh, instances=args.instances,
                       perturb=args.perturb_backward)
    result = dict(report["measured"], passed=report["passed"], command="gradcheck",
                  seed=args.seed, n=args.n, d_h=args.dh, instances=args.instances)
    path = _out_path(args, "gradcheck.json")
    _write_json(path, result)
    print(f"wrote {path} (passed={result['passed']})")
    return EXIT_OK if result["passed"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def _stats_cost(stat: str, n: int, w: int, d: int, trials: int) -> tuple[int, int]:
    """Estimated (bytes, entries) of a stats run. Trials run in chunks of as
    many as fit MC_CHUNK_BYTES at a trial's bytes below (at least one); a
    chunk holds about eight arrays of that size. With V the bytes of the
    n x d float64 values:
    - bias: seven V-sized arrays (the values, two running sums, the final
      moments) and (n + 2w) d float64 window sums a trial, about ten
      passes over each window's (n + w) d sums;
    - variance: three V-sized arrays, the whole n x w int64 window table
      (one row is read), the (trials, d) float64 sample means five times
      (the samples, shifted, centred, squared, per-trial sums), and
      max(n, w d) entries a trial, about 2n + 4wd of them touched;
    - bvdecomp: about sixteen V-sized arrays (the values, reference outputs,
      gates and biases), the right-hand batch of (trials - anchor) / 2 samples
      twice (the batch and its variance's copy), the two d x d float64 gate
      matrices with a finite check, and n w d gathered values a trial, about
      n w (2d + 4) entries a trial and 4 n d^2 flops of gate products."""
    value = n * d * 8
    if stat == "bias":
        per_trial, held, work = (n + 2 * w) * d * 8, 7 * value, 10 * trials * (2 * n + 3 * w) * d
    elif stat == "variance":
        per_trial = max(n, w * d) * 8
        held = 3 * value + n * w * 8 + 5 * trials * d * 8
        work = trials * (2 * n + 4 * w * d)
    else:
        n_rhs = (trials - max(50, trials // 10)) // 2
        per_trial = n * w * d * 8
        held = (2 * n_rhs + 16) * value + 17 * d * d
        work = trials * n * w * (2 * d + 4) + 4 * n * d * d
    return held + 8 * max(MC_CHUNK_BYTES, per_trial), work


def cmd_stats(args) -> int:
    _check_positive(n=args.n, w=args.w, d=args.d, trials=args.trials)
    if args.stat == "bvdecomp" and args.trials < 100:
        raise UsageError("--trials must be at least 100 for bvdecomp's pilot and audit batches")
    if args.trials < 2:
        raise UsageError("--trials must be at least 2 to estimate a standard error")
    _check_cost(f"stats {args.stat}", _stats_cost(args.stat, args.n, args.w, args.d, args.trials),
                "--n, --w, --d or --trials")
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
    path = _out_path(args, "verify.json")
    _write_json(path, result)
    for r in results:
        print(f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}")
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
    p.add_argument("--kind", choices=["full", *_MASK_KINDS], default="sa")
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
