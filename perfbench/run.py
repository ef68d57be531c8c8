"""Benchmark entry point for stochattn.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload forward_long --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs a fixed amount of work with every listed public function
wrapped and prints the per-layer metrics instead. The last line of standard
output is always one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The same object, with diagnostics, is written to
``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

# BLAS and OpenMP pools read these once, when numpy loads its BLAS, so they
# are set before anything imports numpy. With one BLAS thread the run never
# uses more than one core, and its spread does not depend on how many cores
# the machine has free (README: spread with one thread and with two).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "stochattn" / "__init__.py").is_file():
        print(f"error: no stochattn sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 1
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 1
    # Set-up is timed as an installed package loads, from bytecode. Imports
    # here may not write bytecode (PYTHONDONTWRITEBYTECODE), and compiling the
    # source on every import would add a noisier 20 ms; so compile it once,
    # into src/stochattn/__pycache__.
    compileall.compile_dir(str(SRC / "stochattn"), quiet=1)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads  # noqa: E402  (numpy must load after the thread pins above)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 1
    out_dir = BENCH_DIR / "out"
    result, report = workloads.run(args.workload, args.seed, args.seconds,
                                   bool(args.trace), out_dir)
    suffix = "trace" if args.trace else "e2e"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-{suffix}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
