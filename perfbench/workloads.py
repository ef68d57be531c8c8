"""The three workloads of the stochattn benchmark and their measurement.

A run sets the program up (import plus building the layer's parameters),
warms up, then repeats whole rounds of operations until ``seconds`` have
passed, setting up again at moments spread over that time; it reports the
median set-up time. A round is the same mix of
operations in every run: inputs change with the seed, the amount of work does
not. Each operation is timed on its own; its outputs are checked only after
the timed phase, against references computed apart from the program.

Traced runs do a fixed amount of work instead, so that counts repeat exactly
for a seed: round 0 without the tracer, then round 0 again with every listed
public function wrapped (see ``tracing.py``); the difference in their summed
operation times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import tracing

# The twelve `stochattn verify` checks, in the order the CLI runs them.
CHECKS = ("equivalence", "gradcheck", "connprob", "connprob_causal", "coverage", "spectrum",
          "variance", "bias", "bvdecomp", "cost", "smallworld", "connectome")
# Root seeds every check passes on; --seed sets only the order they run in.
VERIFY_SEEDS = tuple(range(8))
# Set-up is sampled SETUP_PER_POINT times at up to SETUP_POINTS moments spread
# over the timed phase: the machine's speed changes within seconds, and a
# set-up lasts only ~30 ms.
SETUP_POINTS = 10
SETUP_PER_POINT = 2


@dataclass(frozen=True)
class ForwardShape:
    """One dual-path sublayer configuration and the sequence lengths of a round."""

    lengths: tuple
    d: int = 256
    h: int = 4
    w: int = 64
    checked_rows: int = 8


FORWARD_LONG = ForwardShape(lengths=(4096,), checked_rows=32)
FORWARD_SHORT = ForwardShape(lengths=tuple(range(128, 513, 64)) * 6)


@dataclass
class Outcome:
    """What a run measured and checked."""

    op_s: list = field(default_factory=list)      # one entry per completed operation
    round_s: list = field(default_factory=list)   # summed operation time per round
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # wrong outputs of operations that ran
    failures: list = field(default_factory=list)  # operations that raised or reported failure
    tokens: int = 0
    max_error: float = 0.0


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, *keys])


def _import_program(with_cli: bool):
    """Import stochattn afresh, as a new process would (numpy/scipy stay loaded)."""
    for name in [m for m in sys.modules if m == "stochattn" or m.startswith("stochattn.")]:
        del sys.modules[name]
    package = importlib.import_module("stochattn")
    if with_cli:
        importlib.import_module("stochattn.cli")
    return package


def _timed_setup(setup) -> float:
    """Time one ``setup``, whose state the workload keeps.

    The collector is emptied before and paused during it: otherwise it
    charges a set-up, at random, for freeing the previous import's modules in
    a heap far larger than a fresh process has.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        setup()
        return time.perf_counter() - start
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# forward_long / forward_short
# ---------------------------------------------------------------------------


class ForwardWorkload:
    """``dual_path_layer`` on fresh random sequences of a fixed length mix."""

    def __init__(self, shape: ForwardShape, seed: int):
        self.shape = shape
        self.seed = seed
        self.records = []

    def setup(self):
        sa = _import_program(with_cli=False)
        self.attention = sa.attention
        self.permute = sa.permute
        shape, r = self.shape, _rng(self.seed, 0)
        scale = 1.0 / math.sqrt(shape.d)
        self.projections = tuple(r.normal(size=(shape.d, shape.d)) * scale for _ in range(3))
        self.gate_weights = tuple(r.normal(size=(shape.d, shape.d)) * scale for _ in range(2))
        self.cfg = sa.LayerConfig(shape.d, shape.h, shape.w)
        self.gates = sa.GateParams(*self.gate_weights)
        self.seeded_rng = sa.SeededRng

    def capture_permutations(self):
        """Record each permutation the layer draws, where the layer looks it up.

        Called again after the tracer is installed, to record through the
        traced function.
        """
        draw = self.permute.sample_permutation
        self.drawn = []

        def recording(n, rng):
            p = draw(n, rng)
            self.drawn.append(p)
            return p

        self.attention.sample_permutation = recording

    def _input(self, rnd: int, slot: int, n: int):
        x = _rng(self.seed, 1, rnd, slot).normal(size=(n, self.shape.d))
        layer_seed = int(_rng(self.seed, 2, rnd, slot).integers(2**63))
        return x, layer_seed

    def round_lengths(self, rnd: int):
        order = _rng(self.seed, 3, rnd).permutation(len(self.shape.lengths))
        return [self.shape.lengths[i] for i in order]

    def warm_up(self):
        # Every distinct length up to 512 runs each code path without a 5-s call.
        for n in sorted({n for n in self.shape.lengths if n <= 512} | {512}):
            x = _rng(self.seed, 6, n).normal(size=(n, self.shape.d))
            self.attention.dual_path_layer(x, self.cfg, self.gates, self.seeded_rng(n),
                                           self.projections)

    def run_round(self, rnd: int, out: Outcome, span=None, before_op=None):
        total = 0.0
        for slot, n in enumerate(self.round_lengths(rnd)):
            if before_op:
                before_op()
            x, layer_seed = self._input(rnd, slot, n)
            rng = self.seeded_rng(layer_seed)
            self.drawn.clear()
            out.attempted += 1
            start = time.perf_counter()
            try:
                y = self.attention.dual_path_layer(x, self.cfg, self.gates, rng, self.projections)
            except Exception as exc:  # one failed operation; the run goes on
                out.failed += 1
                out.failures.append(f"round {rnd} slot {slot} n={n}: {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            total += elapsed
            out.op_s.append(elapsed)
            out.tokens += n
            rows = self._checked_rows(rnd, slot, n)
            self.records.append((rnd, slot, n, [p.forward.copy() for p in self.drawn],
                                 rows, y[rows].copy(), bool(np.isfinite(y).all())))
        out.round_s.append(total)

    def _checked_rows(self, rnd: int, slot: int, n: int):
        inner = _rng(self.seed, 4, rnd, slot).choice(np.arange(1, n - 1),
                                                    self.shape.checked_rows - 2, replace=False)
        return np.sort(np.concatenate(([0, n - 1], inner)))

    def check(self, out: Outcome) -> None:
        """Compare every kept output row with the reference; runs after timing."""
        shape = self.shape
        for rnd, slot, n, drawn, rows, got, finite in self.records:
            where = f"round {rnd} slot {slot} n={n}"
            if not finite:
                out.problems.append(f"{where}: output is not finite")
                continue
            if len(drawn) != 1:
                out.problems.append(f"{where}: layer drew {len(drawn)} permutations, expected 1")
                continue
            x, _ = self._input(rnd, slot, n)
            want = reference.dual_path_rows(x, self.projections, self.gate_weights, shape.h,
                                            shape.w, self.cfg.rope_base, drawn[0], rows)
            err = float(np.abs(want - got).max())
            out.max_error = max(out.max_error, err)
            if not err <= reference.TOLERANCE:
                out.problems.append(f"{where}: max abs error {err!r} > {reference.TOLERANCE}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class VerifyWorkload:
    """``stochattn verify`` for fixed root seeds, one check per operation."""

    def __init__(self, seed: int, out_dir: Path, seeds=VERIFY_SEEDS, checks=CHECKS,
                 perturb_backward: bool = False):
        self.seed = seed
        self.out_dir = out_dir / "verify"
        self.seeds = [seeds[i] for i in _rng(seed, 5).permutation(len(seeds))]
        self.checks = checks
        self.extra = ["--perturb-backward"] if perturb_backward else []

    def setup(self):
        self.cli = _import_program(with_cli=True).cli
        self.cli.build_parser()
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def capture_permutations(self):
        pass

    def _op(self, root_seed: int, check: str):
        argv = ["--seed", str(root_seed), "--out", str(self.out_dir), "verify",
                "--only", check, *self.extra]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        return code, elapsed

    def warm_up(self):
        for check in self.checks:
            self._op(self.seeds[0], check)

    def run_round(self, rnd: int, out: Outcome, span=None, before_op=None):
        total = 0.0
        for root_seed in self.seeds:
            for check in self.checks:
                if before_op:
                    before_op()
                out.attempted += 1
                with span(f"cli.verify.{check}") if span else contextlib.nullcontext():
                    code, elapsed = self._op(root_seed, check)
                total += elapsed
                if code != 0:
                    out.failed += 1
                    out.failures.append(f"seed {root_seed} {check}: exit {code}")
                    continue
                report = json.loads((self.out_dir / "verify.json").read_text())
                entry = report["checks"][0]
                if (report["seed"], entry["name"]) != (root_seed, check) \
                        or not report["all_passed"] or not entry["passed"]:
                    out.problems.append(f"seed {root_seed} {check}: exit 0 but report says "
                                        f"{entry['name']} passed={entry['passed']}")
                    continue
                out.op_s.append(elapsed)
                out.problems.extend(f"seed {root_seed}: {p}"
                                    for p in reference.verify_closed_forms(check,
                                                                           entry["measured"]))
        out.round_s.append(total)

    def check(self, out: Outcome) -> None:
        """Closed forms are checked as each report is read."""


WORKLOADS = {
    "forward_long": lambda seed, out_dir: ForwardWorkload(FORWARD_LONG, seed),
    "forward_short": lambda seed, out_dir: ForwardWorkload(FORWARD_SHORT, seed),
    "verify": lambda seed, out_dir: VerifyWorkload(seed, out_dir),
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def calibration_ms() -> float:
    """Median time of a fixed in-place numpy loop; a diagnostic of machine speed.

    It allocates nothing, so it neither moves peak RSS nor pays page faults.
    """
    a = np.random.default_rng(0).normal(size=(192, 192)) / 14.0
    buf = np.empty_like(a)
    samples = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(20):
            np.dot(a, a, out=buf)
            np.exp(buf, out=buf)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def _openblas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _openblas_threads()}


def _p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(name: str, seed: int, seconds: float, traced: bool, out_dir: Path,
        workload=None):
    """Run one workload; return (result line, report written beside it)."""
    workload = workload or WORKLOADS[name](seed, out_dir)
    calibration_before = calibration_ms()
    workload.setup()  # the first import loads scipy too; not a sample
    workload.capture_permutations()
    workload.warm_up()
    out = Outcome()
    report = {"workload": name, "seed": seed, "environment": environment()}

    if traced:
        workload.run_round(0, out)
        untraced_s = out.round_s[-1]
        tracer = tracing.Tracer()
        tracer.install()
        workload.capture_permutations()
        workload.run_round(0, out, span=tracer.span)
        metrics = tracing.per_layer_metrics(tracer, CHECKS, out.round_s[-1] - untraced_s)
    else:
        setup_samples = []
        start = next_point = time.perf_counter()

        def before_op():
            nonlocal next_point
            if time.perf_counter() >= next_point:
                setup_samples.extend(_timed_setup(workload.setup)
                                     for _ in range(SETUP_PER_POINT))
                workload.capture_permutations()
                next_point = time.perf_counter() + seconds / SETUP_POINTS

        rnd = 0
        while rnd == 0 or time.perf_counter() - start < seconds:
            workload.run_round(rnd, out, before_op=before_op)
            rnd += 1
        if not out.op_s:
            raise RuntimeError(f"no operation completed: {out.failures[:3]}")
        metrics = {
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "ops_per_s": _metric(len(out.op_s) / sum(out.op_s), "1/s"),
            "op_p50_ms": _metric(statistics.median(out.op_s) * 1e3, "ms"),
            "op_p90_ms": _metric(_p90(out.op_s) * 1e3, "ms"),
            "wall_s": _metric(statistics.median(out.round_s), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MB"),
        }
        report.update(rounds=rnd, samples=len(out.op_s), round_s=out.round_s,
                      setup_samples=len(setup_samples),
                      tokens_per_s=out.tokens / sum(out.op_s) if out.tokens else None)

    workload.check(out)
    correct = not out.problems
    report.update(calibration_ms={"before": calibration_before, "after": calibration_ms()},
                  max_reference_error=out.max_error, problems=out.problems[:20],
                  failures=out.failures[:20], metrics=metrics)
    result = {"correct": correct, "attempted": out.attempted, "failed": out.failed,
              "metrics": metrics}
    return result, report
