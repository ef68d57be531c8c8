"""CLI contracts: exit codes, schemas, determinism of emitted files."""

import json

import numpy as np
import pytest

from stochattn.cli import main


def run(args):
    return main([str(a) for a in args])


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["--out", tmp_path, "coverage", "--bogus"])
        assert err.value.code == 1

    def test_validation_failure_is_usage_error(self, tmp_path):
        assert run(["--out", tmp_path, "coverage", "--n", -5]) == 1
        assert run(["--out", tmp_path, "connprob", "--n", 8, "--w", 9]) == 1
        assert run(["--out", tmp_path, "coverage", "--n", 100000]) == 1

    def test_verify_unknown_check_is_usage_error(self, tmp_path):
        assert run(["--out", tmp_path, "verify", "--only", "nonsense"]) == 1

    @pytest.mark.parametrize("args", [
        ["connprob", "--n", 1, "--w", 1],
        ["connprob", "--exhaustive", "--n", 9, "--w", 3],
        ["gradcheck", "--n", 1],
        ["stats", "bvdecomp", "--trials", 50],
        ["smallworld", "--n", 64, "--w", 1],
        ["smallworld", "--n", 64, "--w", 2],
        ["smallworld", "--n", 64, "--w", 3],
        ["--precision", -1, "cost"],
        ["coverage", "--n", 64, "--seeds", "0,0"],
        ["verify", "--only", ","],
        ["--format", "json", "maskviz", "--n", 16, "--w", 4],
        ["--format", "json", "coverage", "--n", 16, "--w", 4],
        ["--format", "pgm", "coverage", "--n", 16, "--w", 4],
        ["--format", "json", "cost"],
        ["--format", "pgm", "cost"],
        ["--format", "csv", "verify", "--only", "cost"],
        ["coverage", "--n", 10, "--w", 100],
        ["coverage", "--n", 16, "--w", 4, "--modes", ","],
        ["spectrum", "--n", 1, "--w", 1],
        ["stats", "bias", "--n", 16, "--w", 4, "--trials", 1],
        ["stats", "variance", "--n", 16, "--w", 4, "--trials", 1],
        ["cost", "--lengths", "16,32", "--w", 256],
        ["coverage", "--n", 64, "--w", 8, "--layers", 1000000, "--seeds", 1],
        ["coverage", "--n", 8192, "--w", 8192, "--layers", 1, "--seeds", 1,
         "--convention", "causal", "--modes", "fused"],
        ["spectrum", "--n", 8192],
        ["spectrum", "--n", 256, "--perms", 100000],
        ["gradcheck", "--n", 4096, "--dh", 64],
        ["gradcheck", "--n", 128, "--dh", 64, "--instances", 100000],
    ], ids=["connprob-n1", "exhaustive-n9", "gradcheck-n1", "bvdecomp-trials50",
            "smallworld-w1", "smallworld-w2", "smallworld-w3", "precision-negative",
            "duplicate-seeds", "verify-only-empty", "maskviz-json", "coverage-json",
            "coverage-pgm", "cost-json", "cost-pgm", "verify-csv", "coverage-w-over-n",
            "coverage-modes-empty", "spectrum-n1", "bias-trials1", "variance-trials1",
            "cost-w-over-length", "coverage-layers-bytes", "coverage-causal-table-bytes",
            "spectrum-n-bytes", "spectrum-perms-flops", "gradcheck-n-bytes",
            "gradcheck-instances-flops"])
    def test_bad_input_is_one_line_usage_error(self, tmp_path, capsys, args):
        assert run(["--out", tmp_path, *args]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_spectrum_guard_refuses_before_any_solve(self, tmp_path, monkeypatch):
        from stochattn import cli

        def never(*args, **kwargs):
            raise AssertionError("the guard must refuse before the check runs")

        monkeypatch.setattr(cli, "spectrum", never)
        assert run(["--out", tmp_path, "spectrum", "--n", 4096]) == 1
        assert run(["--out", tmp_path, "spectrum", "--n", 64, "--depth", 10**6]) == 1

    def test_spectrum_cost_estimates(self):
        from stochattn.cli import MAX_SPECTRUM_BYTES, MAX_SPECTRUM_FLOPS, _spectrum_cost
        assert _spectrum_cost(256, 20, 3, 20) == (2 * 2**20, 530 * 256**3)
        # the command's defaults and verify's sizes stay far inside the caps
        for sizes in [(256, 20, 3, 20), (64, 20, 3, 10), (128, 20, 3, 10)]:
            est_bytes, est_flops = _spectrum_cost(*sizes)
            assert est_bytes < MAX_SPECTRUM_BYTES and est_flops < MAX_SPECTRUM_FLOPS / 100
        assert _spectrum_cost(8192, 1, 1, 1)[0] > MAX_SPECTRUM_BYTES

    def test_gradcheck_guard_refuses_before_any_forward(self, tmp_path, monkeypatch):
        from stochattn import cli

        def never(*args, **kwargs):
            raise AssertionError("the guard must refuse before the check runs")

        monkeypatch.setattr(cli, "gradcheck", never)
        assert run(["--out", tmp_path, "gradcheck", "--n", 4096, "--dh", 64]) == 1
        assert run(["--out", tmp_path, "gradcheck", "--n", 8, "--instances", 10**9]) == 1

    def test_gradcheck_cost_estimates(self):
        from stochattn.cli import MAX_GRADCHECK_BYTES, MAX_GRADCHECK_FLOPS, _gradcheck_cost
        # 20 instances x 6 n^3 d_h score cells at n = 8, d_h = 4; 4 d_h flops a cell
        assert _gradcheck_cost(8, 4, 20) == (48 * 8 * 12, 245_760, 16 * 245_760)
        # the command's defaults and the sizes the checks run stay far inside the caps
        for sizes in [(8, 4, 20), (8, 4, 10), (5, 3, 10), (64, 16, 1)]:
            est_bytes, _, est_flops = _gradcheck_cost(*sizes)
            assert est_bytes < MAX_GRADCHECK_BYTES and est_flops < MAX_GRADCHECK_FLOPS / 100
        assert _gradcheck_cost(4096, 1, 1)[0] > MAX_GRADCHECK_BYTES
        assert _gradcheck_cost(128, 64, 1)[2] < MAX_GRADCHECK_FLOPS < _gradcheck_cost(256, 64, 1)[2]

    def test_perturbed_backward_fails_gradcheck(self, tmp_path):
        assert run(["--out", tmp_path, "gradcheck", "--instances", 2,
                    "--perturb-backward"]) == 2
        assert run(["--out", tmp_path, "verify", "--only", "gradcheck",
                    "--perturb-backward"]) == 2

    def test_gradcheck_passes_clean(self, tmp_path):
        assert run(["--out", tmp_path, "gradcheck", "--instances", 2]) == 0
        data = json.loads((tmp_path / "gradcheck.json").read_text())
        assert data["passed"] is True
        assert data["dq"] <= 1e-6


class TestCoverage:
    def test_csv_schema_and_rows(self, tmp_path):
        assert run(["--seed", 5, "--out", tmp_path, "coverage", "--n", 64, "--w", 8,
                    "--layers", 3, "--modes", "swa,sa", "--seeds", 4]) == 0
        lines = (tmp_path / "coverage.csv").read_text().splitlines()
        assert lines[0].startswith("# stochattn coverage seed=5")
        assert lines[1] == "layer,mode,mean_coverage,min,median,max"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 2 * 4  # two modes, layers 0..3
        swa_layer0 = [r for r in rows if r[0] == "0" and r[1] == "swa"][0]
        assert float(swa_layer0[2]) == pytest.approx(1 / 64)

    def test_zero_layers_single_row_per_mode(self, tmp_path):
        assert run(["--out", tmp_path, "coverage", "--n", 32, "--w", 4,
                    "--layers", 0, "--modes", "swa,sa,fused", "--seeds", 2]) == 0
        lines = (tmp_path / "coverage.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3
        assert all(float(r[2]) == 1 / 32 for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["--seed", 9, "--out", out, "coverage", "--n", 64, "--w", 8,
                        "--layers", 3, "--seeds", 3]) == 0
        assert (a / "coverage.csv").read_bytes() == (b / "coverage.csv").read_bytes()

    def test_svg_emitted(self, tmp_path):
        assert run(["--seed", 2, "--out", tmp_path, "--format", "svg", "coverage",
                    "--n", 32, "--w", 4, "--layers", 2, "--seeds", 2]) == 0
        svg = (tmp_path / "coverage.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_explicit_seed_list_matches_count(self, tmp_path):
        a, b = tmp_path / "count", tmp_path / "list"
        assert run(["--seed", 4, "--out", a, "coverage", "--n", 64, "--w", 8,
                    "--layers", 3, "--modes", "sa", "--seeds", 3]) == 0
        assert run(["--seed", 4, "--out", b, "coverage", "--n", 64, "--w", 8,
                    "--layers", 3, "--modes", "sa", "--seeds", "0,1,2"]) == 0
        # seed indices 0..2 and the explicit list are the same streams; only
        # the metadata line records the different spellings
        rows = lambda p: (p / "coverage.csv").read_text().splitlines()[1:]
        assert rows(a) == rows(b)

    def test_bad_seed_list_rejected(self, tmp_path):
        assert run(["--out", tmp_path, "coverage", "--n", 32, "--w", 4,
                    "--seeds", "1,x"]) == 1


class TestSmallworld:
    def test_matches_dense_route_byte_for_byte(self, tmp_path):
        # the command's JSON against the same report built from dense masks
        from stochattn import (Convention, RoutingMode, SeededRng, graph_clustering,
                               graph_path_length, smallworld_metrics, symmetrize)
        from stochattn.graphs import layer_mask
        n, w, seeds, baselines, seed = 64, 8, 2, 2, 4
        assert run(["--seed", seed, "--out", tmp_path, "smallworld", "--n", n, "--w", w,
                    "--seeds", seeds, "--baselines", baselines]) == 0
        rng = SeededRng(seed)

        def graph(mode, r):
            return symmetrize(layer_mask(n, w, mode, Convention.SYMMETRIC_CIRCULAR, r))

        swa = smallworld_metrics(graph(RoutingMode.SWA, rng), rng.child(0, 0), baselines)
        unions = [graph(RoutingMode.FUSED, rng.child(1, s)) for s in range(seeds)]
        sample = smallworld_metrics(graph(RoutingMode.FUSED, rng.child(2, 0)), rng.child(3, 0),
                                    baselines)
        oracle = {
            "command": "smallworld", "seed": seed, "n": n, "w": w, "seeds": seeds,
            "swa": {"clustering": swa.clustering, "path_length": swa.path_length,
                    "small_worldness": swa.small_worldness},
            "union_sample": {"clustering": sample.clustering,
                             "path_length": sample.path_length,
                             "small_worldness": sample.small_worldness},
            "union_median_clustering": float(np.median([graph_clustering(u) for u in unions])),
            "union_median_path_length": float(np.median([graph_path_length(u)
                                                         for u in unions])),
        }
        want = json.dumps(oracle, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "smallworld.json").read_bytes() == want.encode("ascii")


class TestConnprob:
    def test_mc_json(self, tmp_path):
        assert run(["--seed", 3, "--out", tmp_path, "connprob", "--n", 64, "--w", 8,
                    "--trials", 4000]) == 0
        data = json.loads((tmp_path / "connprob.json").read_text())
        assert data["analytic"] == pytest.approx(7 / 63)
        assert abs(data["estimate"] - data["analytic"]) <= 3 * data["stderr"]

    def test_exhaustive_exact(self, tmp_path):
        assert run(["--out", tmp_path, "connprob", "--n", 6, "--w", 3,
                    "--exhaustive"]) == 0
        data = json.loads((tmp_path / "connprob.json").read_text())
        assert data["estimate"] == 0.4
        assert data["trials"] == 720

    def test_causal_tolerance(self, tmp_path):
        assert run(["--seed", 3, "--out", tmp_path, "connprob", "--n", 64, "--w", 8,
                    "--trials", 800, "--causal"]) == 0
        data = json.loads((tmp_path / "connprob.json").read_text())
        assert data["analytic"] == pytest.approx(7 / 126)


class TestMaskviz:
    def _expected_swa_pgm(self, n, w, meta):
        rows = []
        for i in range(n):
            row = bytearray(n)
            for j in range(max(0, i - w + 1), i + 1):
                row[j] = 255
            rows.append(bytes(row))
        header = f"P5\n# {meta}\n{n} {n}\n255\n".encode()
        return header + b"".join(rows)

    def test_swa_band_matches_independent_construction(self, tmp_path):
        assert run(["--seed", 4, "--out", tmp_path, "maskviz", "--kind", "swa",
                    "--n", 27, "--w", 8]) == 0
        got = (tmp_path / "mask_swa.pgm").read_bytes()
        meta = "stochattn maskviz kind=swa seed=4 n=27 w=8 convention=causal"
        assert got == self._expected_swa_pgm(27, 8, meta)

    def test_full_causal_is_lower_triangle(self, tmp_path):
        assert run(["--out", tmp_path, "maskviz", "--kind", "full", "--n", 9,
                    "--w", 4]) == 0
        body = (tmp_path / "mask_full.pgm").read_bytes().split(b"255\n", 1)[1]
        pix = np.frombuffer(body, dtype=np.uint8).reshape(9, 9)
        assert np.array_equal(pix == 255, np.tril(np.ones((9, 9), dtype=bool)))

    def test_stochastic_mask_reaches_off_band(self, tmp_path):
        assert run(["--seed", 6, "--out", tmp_path, "maskviz", "--kind", "sa",
                    "--n", 27, "--w", 8]) == 0
        body = (tmp_path / "mask_sa.pgm").read_bytes().split(b"255\n", 1)[1]
        pix = np.frombuffer(body, dtype=np.uint8).reshape(27, 27)
        i, j = np.nonzero(pix == 255)
        assert np.all(j <= i)  # causal
        assert np.any(i - j >= 8)  # and visibly beyond the band

    def test_golden_stability_across_runs(self, tmp_path):
        blobs = []
        for sub in ("x", "y"):
            out = tmp_path / sub
            assert run(["--seed", 8, "--out", out, "maskviz", "--kind", "sa",
                        "--n", 64, "--w", 8]) == 0
            blobs.append((out / "mask_sa.pgm").read_bytes())
        assert blobs[0] == blobs[1]

    def test_oversize_image_rejected(self, tmp_path):
        assert run(["--out", tmp_path, "maskviz", "--kind", "swa", "--n", 600,
                    "--w", 8]) == 1


class TestCost:
    def test_ratio_columns(self, tmp_path):
        assert run(["--out", tmp_path, "cost", "--lengths", "1024,2048,4096",
                    "--w", 64, "--d", 32]) == 0
        lines = (tmp_path / "cost.csv").read_text().splitlines()
        assert lines[1] == "n,mode,flops,doubling_ratio"
        ratios = {}
        for line in lines[2:]:
            n, mode, _, ratio = line.split(",")
            if n != "1024":
                ratios.setdefault(mode, []).append(float(ratio))
        assert all(r == pytest.approx(4.0, rel=0.01) for r in ratios["full"])
        assert all(r == pytest.approx(2.0, rel=0.01) for r in ratios["sa"])

    def test_bad_lengths_rejected(self, tmp_path):
        assert run(["--out", tmp_path, "cost", "--lengths", "12,ab"]) == 1


class TestVerify:
    def test_only_filter(self, tmp_path):
        assert run(["--seed", 3, "--out", tmp_path, "verify",
                    "--only", "cost,connectome"]) == 0
        data = json.loads((tmp_path / "verify.json").read_text())
        assert [c["name"] for c in data["checks"]] == ["cost", "connectome"]
        assert data["all_passed"] is True

    def test_streams_keyed_by_registry_position(self, tmp_path):
        entries = []
        for only in ("bias", "variance,bias"):
            assert run(["--seed", 3, "--out", tmp_path, "verify", "--only", only]) == 0
            entries.append(json.loads((tmp_path / "verify.json").read_text())["checks"][-1])
        assert entries[0]["name"] == "bias"
        assert entries[0] == entries[1]

    def test_seed_recorded(self, tmp_path):
        assert run(["--seed", 123, "--out", tmp_path, "verify", "--only", "cost"]) == 0
        data = json.loads((tmp_path / "verify.json").read_text())
        assert data["seed"] == 123


class TestStatsCommands:
    def test_bias_report(self, tmp_path):
        assert run(["--seed", 2, "--out", tmp_path, "stats", "bias", "--n", 64,
                    "--w", 8, "--trials", 500]) == 0
        data = json.loads((tmp_path / "stats_bias.json").read_text())
        assert data["ws"] == [8, 16]
        assert data["deviations"][1] < data["deviations"][0]

    def test_variance_report(self, tmp_path):
        assert run(["--seed", 2, "--out", tmp_path, "stats", "variance", "--n", 64,
                    "--w", 8, "--trials", 1500]) == 0
        data = json.loads((tmp_path / "stats_variance.json").read_text())
        assert abs(data["mc_variance"] - data["exact"]) <= 0.1 * data["exact"]

    def test_bvdecomp_report(self, tmp_path):
        assert run(["--seed", 2, "--out", tmp_path, "stats", "bvdecomp", "--n", 32,
                    "--w", 8, "--d", 4, "--trials", 1000]) == 0
        data = json.loads((tmp_path / "stats_bvdecomp.json").read_text())
        assert abs(data["residual"]) <= 4 * data["combined_stderr"]


class TestOutputDirEnv:
    def test_env_var_used_when_no_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STOCHATTN_OUT", str(tmp_path / "envout"))
        assert run(["verify", "--only", "connectome"]) == 0
        assert (tmp_path / "envout" / "verify.json").exists()
