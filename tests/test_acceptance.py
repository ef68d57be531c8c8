"""Acceptance suite: every release criterion at its stated tolerance.

C1-C12 run the ``stochattn.checks`` registry, the same code as
``stochattn verify``, at larger sizes: each row names a criterion, its check,
a root seed, the sizes and a runtime budget. C13 runs the CLI itself.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion alongside the measured values; ``-k C4`` runs one criterion.
Budgets are asserted too; they are generous on current hardware.
"""

import json
import time

import pytest

from stochattn import SeededRng
from stochattn.checks import CHECKS
from stochattn.cli import main as cli_main


def _report(criterion: str, passed: bool, detail: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    verdict = "PASS" if passed else "FAIL"
    print(f"[{criterion}] {verdict} ({elapsed:.1f}s/{budget:.0f}s) {detail}")
    assert passed, f"{criterion}: {detail}"
    assert elapsed < budget, f"{criterion}: exceeded {budget}s budget ({elapsed:.1f}s)"


# (criterion, check, root seed, sizes, budget in seconds)
CRITERIA = [
    ("C1 equivalence", "equivalence", 101, {"n_min": 2, "n_max": 64}, 10.0),
    ("C2 connection probability", "connprob", 102,
     {"n": 256, "w": 16, "trials": 100_000}, 30.0),
    ("C3 causal connection probability", "connprob_causal", 103,
     {"n": 256, "w": 16, "trials": 10_000}, 30.0),
    ("C4 coverage depth", "coverage", 104,
     {"n": 2048, "w": 32, "seeds": 100, "sa_layers": 6, "swa_layers": 70}, 120.0),
    ("C5 connectome prediction", "connectome", 105, {}, 5.0),
    ("C6 spectral similarity", "spectrum", 106, {"mixing_n": 256, "mixing_seeds": 20}, 120.0),
    ("C7 variance", "variance", 107, {"trials": 10_000, "bound_cases": 100}, 60.0),
    ("C8 bias decay", "bias", 108, {"n": 256, "w": 16, "trials": 10_000}, 60.0),
    ("C9 bias-variance decomposition", "bvdecomp", 109, {"trials": 10_000}, 60.0),
    ("C10 gradient correctness", "gradcheck", 110, {"instances": 20}, 10.0),
    ("C11 cost scaling", "cost", 111, {"lengths": (512, 1024, 2048, 4096, 8192, 16384)}, 5.0),
    ("C12 small-world regime", "smallworld", 112, {"n": 1024, "seeds": 20}, 120.0),
]


@pytest.mark.parametrize("criterion, check, seed, sizes, budget", CRITERIA,
                         ids=[row[0].split()[0] for row in CRITERIA])
def test_criterion(criterion, check, seed, sizes, budget):
    t0 = time.monotonic()
    result = CHECKS[check](SeededRng(seed), **sizes)
    _report(criterion, result["passed"], json.dumps(result["measured"], sort_keys=True),
            t0, budget)


def test_c13_determinism(tmp_path):
    t0 = time.monotonic()
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        code = cli_main(["--seed", "31415", "--out", str(out), "verify"])
        assert code == 0
    verify_same = ((outs[0] / "verify.json").read_bytes()
                   == (outs[1] / "verify.json").read_bytes())
    for out in outs:
        assert cli_main(["--seed", "31415", "--out", str(out), "maskviz",
                         "--kind", "sa", "--n", "96", "--w", "8"]) == 0
        assert cli_main(["--seed", "31415", "--out", str(out), "maskviz",
                         "--kind", "union", "--n", "96", "--w", "8"]) == 0
    pgm_same = all(
        (outs[0] / f"mask_{kind}.pgm").read_bytes()
        == (outs[1] / f"mask_{kind}.pgm").read_bytes()
        for kind in ("sa", "union"))
    payload = json.loads((outs[0] / "verify.json").read_text())
    _report("C13 determinism", verify_same and pgm_same and payload["all_passed"],
            f"verify byte-identical: {verify_same}; mask images byte-identical: "
            f"{pgm_same}; verify all_passed: {payload['all_passed']}",
            t0, 120.0)
