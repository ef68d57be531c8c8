"""Tests of the benchmark itself, at reduced sizes.

Run from the repository root:  python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SMALL_LONG = workloads.ForwardShape(lengths=(192,), d=32, h=2, w=16, checked_rows=8)
SMALL_SHORT = workloads.ForwardShape(lengths=(32, 48, 64), d=32, h=2, w=16)
CHEAP_CHECKS = ("equivalence", "connprob", "cost", "connectome")


def small(name, seed, out_dir, **verify_options):
    if name == "verify":
        return workloads.VerifyWorkload(seed, out_dir, seeds=(0, 1), checks=CHEAP_CHECKS,
                                        **verify_options)
    return workloads.ForwardWorkload(SMALL_LONG if name == "forward_long" else SMALL_SHORT, seed)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_to_its_end(name, tmp_path):
    result, report = workloads.run(name, 3, 0.2, False, tmp_path,
                                   workload=small(name, 3, tmp_path))
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    if name != "verify":
        assert report["max_reference_error"] <= reference.TOLERANCE


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    runs = [workloads.run(name, 5, 0.2, True, tmp_path, workload=small(name, 5, tmp_path))[0]
            for _ in range(2)]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    first, second = (r["metrics"] for r in runs)
    counted = [k for k, v in first.items() if v["unit"] in ("count", "B")]
    assert any(first[k]["value"] > 0 for k in counted)
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}


def test_perturbed_output_row_fails_reference(tmp_path):
    workload = small("forward_short", 7, tmp_path)
    workload.setup()
    workload.capture_permutations()
    layer = workload.attention.dual_path_layer

    def perturbed(*args, **kwargs):
        y = layer(*args, **kwargs)
        y[-1, 0] += 1e-9  # the last row is always among the checked rows
        return y

    workload.attention.dual_path_layer = perturbed
    out = workloads.Outcome()
    workload.run_round(0, out)
    workload.check(out)
    assert out.failed == 0
    assert len(out.problems) == len(SMALL_SHORT.lengths)
    assert all("max abs error" in p for p in out.problems)


def test_reference_matches_clean_output(tmp_path):
    workload = small("forward_long", 11, tmp_path)
    workload.setup()
    workload.capture_permutations()
    out = workloads.Outcome()
    workload.run_round(0, out)
    workload.check(out)
    assert out.problems == [] and 0.0 <= out.max_error <= reference.TOLERANCE


def test_perturbed_backward_counts_as_failed(tmp_path):
    workload = workloads.VerifyWorkload(1, tmp_path, seeds=(0,), checks=("gradcheck", "cost"),
                                        perturb_backward=True)
    result, report = workloads.run("verify", 1, 0.1, False, tmp_path, workload=workload)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["correct"]
    assert report["failures"] == ["seed 0 gradcheck: exit 2"]


def test_closed_forms():
    assert reference.exhaustive_probability(6, 3) == 0.4
    assert reference.ceil_log(130000, 21) == 4 and reference.ceil_log(2048, 32) == 3
    assert reference.verify_closed_forms("connectome", {"depth_130000_21": 5,
                                                        "depth_2048_32": 3})
    assert not reference.verify_closed_forms("equivalence", {"max_abs_diff": 1e-15})


def test_rope_reference_preserves_norms_and_relative_offsets():
    x = np.random.default_rng(0).normal(size=(2, 8))
    pos = np.array([3, 10])
    rotated = reference._rope_rows(x, pos, 10000.0)
    assert np.allclose(np.linalg.norm(rotated, axis=1), np.linalg.norm(x, axis=1))
    shifted = reference._rope_rows(x, pos + 5, 10000.0)
    assert np.isclose(rotated[0] @ rotated[1], shifted[0] @ shifted[1])
