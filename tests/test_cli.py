"""CLI contracts: exit codes, schemas, determinism of emitted files."""

import json
import time

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
        ["coverage", "--n", 100000],
        ["spectrum", "--n", 8192],
        ["spectrum", "--n", 256, "--perms", 100000],
        ["gradcheck", "--n", 4096, "--dh", 64],
        ["gradcheck", "--n", 128, "--dh", 64, "--instances", 100000],
        ["stats", "bias", "--d", 1_000_000_000],
        ["stats", "bvdecomp", "--n", 16, "--w", 4, "--d", 200_000, "--trials", 100],
        ["stats", "variance", "--n", 16, "--w", 4, "--trials", 2_000_000_000],
        ["stats", "bvdecomp", "--n", 8192, "--w", 16, "--trials", 10000],
        ["smallworld", "--n", 8192, "--w", 8192],
        # refused by work, 100 000 default trials x n w = 6.7e12; it would hold 130 MiB
        ["connprob", "--causal", "--n", 8192, "--w", 8192],
        # the pair draw indexes n(n - 1) pairs by one int64; 10**19 is past int64 itself
        ["connprob", "--n", 10**12],
        ["connprob", "--n", 10**19],
        ["--format", "csv", "maskviz", "--n", 8192],
        ["stats", "bias", "--d", 10**400],
    ], ids=["connprob-n1", "exhaustive-n9", "gradcheck-n1", "bvdecomp-trials50",
            "smallworld-w1", "smallworld-w2", "smallworld-w3", "precision-negative",
            "duplicate-seeds", "verify-only-empty", "maskviz-json", "coverage-json",
            "coverage-pgm", "cost-json", "cost-pgm", "verify-csv", "coverage-w-over-n",
            "coverage-modes-empty", "spectrum-n1", "bias-trials1", "variance-trials1",
            "cost-w-over-length", "coverage-layers-bytes", "coverage-causal-table-bytes",
            "coverage-n-rows-bytes", "spectrum-n-bytes", "spectrum-perms-flops",
            "gradcheck-n-bytes", "gradcheck-instances-flops", "bias-d-values-bytes",
            "bvdecomp-d-gates-bytes", "variance-trials-samples-bytes",
            "bvdecomp-n-batch-bytes", "smallworld-table-bytes", "connprob-causal-table-bytes",
            "connprob-n-pairs-past-int64", "connprob-n-past-int64", "maskviz-csv-n-bytes",
            "bias-d-past-float-range"])
    def test_bad_input_is_one_line_usage_error(self, tmp_path, capsys, args):
        assert run(["--out", tmp_path, *args]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("entry,args", [
        ("simulate_reachability", ["coverage", "--n", 100000]),
        ("simulate_reachability", ["coverage", "--n", 64, "--w", 8, "--layers", 10**6]),
        # five entries a trial, so 5e12
        ("connprob", ["connprob", "--n", 256, "--trials", 10**12]),
        ("connprob_causal", ["connprob", "--causal", "--n", 8192, "--w", 8192]),
        ("layer_edges", ["smallworld", "--n", 8192, "--w", 8192]),
        ("layer_edges", ["smallworld", "--n", 8192, "--w", 128]),
        ("spectrum", ["spectrum", "--n", 4096]),
        ("spectrum", ["spectrum", "--n", 64, "--depth", 10**6]),
        ("layer_mask", ["--format", "csv", "maskviz", "--n", 8192]),
        ("intersect_causal", ["--format", "csv", "maskviz", "--kind", "full", "--n", 8192]),
        ("gradcheck", ["gradcheck", "--n", 4096, "--dh", 64]),
        ("gradcheck", ["gradcheck", "--n", 8, "--instances", 10**9]),
        ("sa_bias_mc", ["stats", "bias", "--d", 10**9]),
        ("sa_variance_mc", ["stats", "variance", "--n", 16, "--w", 4, "--trials", 2 * 10**9]),
        ("fusion_bv_decompose", ["stats", "bvdecomp", "--n", 8192, "--w", 16]),
    ], ids=["coverage-n-bytes", "coverage-layers-bytes", "connprob-trials-work",
            "connprob-causal-table-bytes", "smallworld-table-bytes", "smallworld-draw-bytes",
            "spectrum-n-bytes", "spectrum-depth-flops", "maskviz-csv-bytes",
            "maskviz-full-csv-bytes", "gradcheck-n-bytes", "gradcheck-instances-flops",
            "bias-d-bytes", "variance-trials-bytes", "bvdecomp-n-bytes"])
    def test_cost_guard_refuses_before_any_compute(self, tmp_path, monkeypatch, entry, args):
        from stochattn import cli

        def never(*args, **kwargs):
            raise AssertionError("the guard must refuse before the command computes")

        monkeypatch.setattr(cli, entry, never)
        assert run(["--out", tmp_path, *args]) == 1

    def test_spectrum_cost_estimates(self):
        from stochattn.checks import spectrum_cost
        from stochattn.cli import MAX_BYTES
        # ten n x n arrays of 8 bytes; 21 complex products at 8 n^3, 20
        # eigen-solves at 10 n^3 and 20 three-layer products at 2 n^3 a layer
        assert spectrum_cost(256, 20, 3, 20) == (5 * 2**20, 488 * 256**3)
        assert spectrum_cost(8192, 1, 1, 1)[0] > MAX_BYTES

    def test_gradcheck_cost_estimates(self):
        from stochattn.checks import gradcheck_cost
        from stochattn.cli import MAX_BYTES, MAX_WORK
        from stochattn.numerics import MC_CHUNK_BYTES
        # 20 instances x 6 n^3 d_h score cells at n = 8, d_h = 4; 4 d_h flops a
        # cell; six n x (n + d_h) arrays plus six of a 1 MiB forward chunk
        assert gradcheck_cost(8, 4, 20) == (48 * 8 * 12 + 6 * MC_CHUNK_BYTES, 16 * 245_760)
        assert gradcheck_cost(4096, 1, 1)[0] > MAX_BYTES
        assert gradcheck_cost(128, 64, 1)[1] < MAX_WORK < gradcheck_cost(256, 64, 1)[1]

    @pytest.mark.parametrize("case", ["connprob", "connprob-causal", "bias", "variance",
                                      "bvdecomp", "gradcheck"])
    def test_estimates_read_their_routines_chunking(self, monkeypatch, case):
        # each routine sizes its trial chunks by the definition its *_cost
        # estimate reads, so the two cannot drift apart
        from stochattn import checks, graphs, numerics, stats
        from stochattn.attention import GateParams
        n, w, d, trials = 12, 4, 7, 120
        rng = numerics.SeededRng(3)
        v = rng.uniform(-1.0, 1.0, size=(n, d))
        sample, *batches = stats._bv_plan(n, w, d, trials)
        module, routine, expected = {
            "connprob": (graphs, lambda: graphs.connection_probability_mc(n, w, trials, rng=rng),
                         [(trials, graphs._connprob_trial_bytes(n, w, False))]),
            "connprob-causal": (
                graphs, lambda: graphs.connection_probability_mc(n, w, trials, True, rng=rng),
                [(trials, graphs._connprob_trial_bytes(n, w, True))]),
            "bias": (stats, lambda: stats.sa_bias_mc(v, [w, 2 * w], trials, rng),
                     [(trials, stats._bias_trial_bytes(n, x, d)) for x in (w, 2 * w)]),
            "variance": (stats, lambda: stats.sa_variance_mc(v, w, trials, rng),
                         [(trials, stats._variance_trial_bytes(n, w, d))]),
            "bvdecomp": (stats, lambda: stats.fusion_bv_decompose(
                v, GateParams(np.zeros((d, d)), np.zeros((d, d))), w, trials, rng),
                [(count, sample) for count in batches]),
            # q, k and v: n x d coordinates each, d > n
            "gradcheck": (checks, lambda: checks.gradcheck(rng, n=5, d_h=d, instances=1),
                          3 * [(5 * d, checks._coordinate_bytes(5, d))]),
        }[case]
        calls = []

        def recording(count, bytes_per_trial):
            calls.append((count, bytes_per_trial))
            return numerics.trial_chunks(count, bytes_per_trial)

        monkeypatch.setattr(module, "trial_chunks", recording)
        routine()
        assert calls == expected

    @pytest.mark.parametrize("args", [
        # the commands' defaults
        ["coverage"], ["connprob"], ["connprob", "--causal"], ["smallworld"], ["spectrum"],
        ["maskviz"], ["--format", "csv", "maskviz"], ["--format", "svg", "maskviz"],
        ["gradcheck"], ["stats", "bias"], ["stats", "variance"], ["stats", "bvdecomp"],
        # the README's examples
        ["coverage", "--n", 2048, "--w", 32, "--modes", "swa,sa", "--layers", 8, "--seeds", 100],
        ["connprob", "--n", 256, "--w", 16, "--trials", 100000],
        ["maskviz", "--kind", "sa", "--n", 27, "--w", 8],
        ["smallworld", "--n", 1024, "--w", 16, "--seeds", 20],
        ["spectrum", "--n", 256, "--w", 8, "--depth", 3, "--seeds", 20],
        ["gradcheck", "--n", 8, "--dh", 4, "--instances", 20],
        ["stats", "bias", "--n", 256, "--w", 16, "--trials", 10000],
        # the sizes verify's checks run
        ["coverage", "--n", 1024, "--w", 32, "--seeds", 40],
        ["connprob", "--n", 128, "--w", 8, "--trials", 20000],
        ["connprob", "--causal", "--n", 128, "--w", 8, "--trials", 2000],
        ["smallworld", "--n", 512, "--w", 16, "--seeds", 10],
        ["spectrum", "--n", 64, "--w", 8, "--perms", 20, "--depth", 3, "--seeds", 10],
        ["spectrum", "--n", 128, "--w", 8, "--perms", 20, "--depth", 3, "--seeds", 10],
        ["gradcheck", "--n", 8, "--dh", 4, "--instances", 10],
        ["gradcheck", "--n", 5, "--dh", 3, "--instances", 10],
        ["gradcheck", "--n", 64, "--dh", 16, "--instances", 1],
        ["stats", "variance", "--n", 64, "--w", 8, "--d", 4, "--trials", 4000],
        ["stats", "bias", "--n", 128, "--w", 8, "--d", 4, "--trials", 4000],
        ["stats", "bvdecomp", "--n", 32, "--w", 8, "--d", 4, "--trials", 4000],
    ])
    def test_everyday_runs_stay_far_inside_the_caps(self, tmp_path, monkeypatch, args):
        from stochattn import cli

        class Estimated(Exception):
            pass

        def record(command, cost, lower):
            raise Estimated(cost)

        monkeypatch.setattr(cli, "_check_cost", record)
        with pytest.raises(Estimated) as estimated:
            run(["--out", tmp_path, *args])
        est_bytes, est_work = estimated.value.args[0]
        assert est_bytes < cli.MAX_BYTES and est_work < cli.MAX_WORK / 100

    # One size a command: its estimate is at least 16 MiB (gradcheck's 6 MiB:
    # a 16 MiB gradcheck, n = 342, runs about 6 s; non-causal connprob's
    # 5.5 MiB, its largest at any size) and it runs in seconds.
    # tracemalloc sees numpy's arrays but not LAPACK's workspace, whose
    # buffers the estimates leave out.
    @pytest.mark.parametrize("args", [
        ["coverage"],
        ["connprob", "--causal", "--n", 2048, "--w", 1024, "--trials", 5],
        ["smallworld"],
        ["spectrum", "--n", 725, "--perms", 1, "--depth", 1, "--seeds", 1],
        ["--format", "csv", "maskviz", "--kind", "union", "--n", 2048],
        ["gradcheck", "--n", 48, "--dh", 64, "--instances", 1],
        ["stats", "bias", "--n", 64, "--w", 32, "--d", 20000, "--trials", 3],
        ["stats", "variance", "--n", 16, "--w", 4, "--trials", 500000],
        # reads one window row, not an n x w table
        pytest.param(["stats", "variance", "--n", 50000, "--w", 50000, "--trials", 3],
                     id="stats-variance-n50000-w50000"),
        ["stats", "bvdecomp", "--n", 64, "--w", 4, "--d", 1, "--trials", 100000],
        # the causal neighbour tables and gathers: peak 14.5 MiB, estimate 18.4 MiB
        ["coverage", "--n", 4096, "--w", 64, "--layers", 3, "--seeds", 2,
         "--convention", "causal", "--modes", "sa"],
        # the non-causal pair draws, nothing of which grows with n, over three
        # chunks: peak 5.2 MiB, estimate 5.5 MiB; w = n, so the check passes
        ["connprob", "--n", 1_000_000, "--w", 1_000_000, "--trials", 300_000],
    ], ids=lambda args: "-".join(map(str, args[:3])))
    def test_estimate_bounds_the_traced_peak(self, tmp_path, monkeypatch, args):
        import tracemalloc

        from stochattn import cli
        # an untraced run first, so that imports and caches made on a command's
        # first call count toward no peak, whichever test ran before this one
        assert run(["--out", tmp_path, *args]) == 0
        costs = []
        guard = cli._check_cost

        def guard_then_trace(command, cost, lower):
            guard(command, cost, lower)
            costs.append(cost)
            tracemalloc.start()

        monkeypatch.setattr(cli, "_check_cost", guard_then_trace)
        try:
            assert run(["--out", tmp_path, *args]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (est_bytes, _), = costs
        assert peak <= est_bytes

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


class TestRepeatedCalls:
    # commands, a usage error argparse reports, one the command reports, then
    # a valid run
    SEQUENCE = [
        ["verify", "--only", "cost,connectome"],
        ["--seed", 3, "coverage", "--n", 64, "--w", 8, "--layers", 3, "--seeds", 2],
        ["coverage", "--bogus"],
        ["coverage", "--n", -5],
        ["--format", "svg", "cost", "--lengths", "16,32", "--w", 4],
    ]

    def _call(self, args, out, capsys):
        try:
            code = run(["--out", out, *args])
        except SystemExit as exc:
            code = exc.code
        std = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        return code, std.out.replace(str(out), "OUT"), std.err, files

    def test_one_parser_serves_every_call_of_a_process(self, tmp_path, capsys):
        from stochattn import cli
        in_turn = [self._call(args, tmp_path / "turn" / str(i), capsys)
                   for i, args in enumerate(self.SEQUENCE)]
        assert cli.build_parser() is cli.build_parser()
        alone = []
        for i, args in enumerate(self.SEQUENCE):
            cli.build_parser.cache_clear()      # as a fresh process starts
            alone.append(self._call(args, tmp_path / "alone" / str(i), capsys))
        assert [call[0] for call in in_turn] == [0, 0, 1, 1, 0]
        assert in_turn == alone


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
        from stochattn.graphs import _edges, layer_mask
        n, w, seeds, baselines, seed = 64, 8, 2, 2, 4
        assert run(["--seed", seed, "--out", tmp_path, "smallworld", "--n", n, "--w", w,
                    "--seeds", seeds, "--baselines", baselines]) == 0
        rng = SeededRng(seed)

        def graph(mode, r):
            return _edges(symmetrize(layer_mask(n, w, mode, Convention.SYMMETRIC_CIRCULAR, r)))

        swa = smallworld_metrics(*graph(RoutingMode.SWA, rng), rng.child(0, 0), baselines)
        unions = [graph(RoutingMode.FUSED, rng.child(1, s)) for s in range(seeds)]
        sample = smallworld_metrics(*graph(RoutingMode.FUSED, rng.child(2, 0)), rng.child(3, 0),
                                    baselines)
        oracle = {
            "command": "smallworld", "seed": seed, "n": n, "w": w, "seeds": seeds,
            "swa": {"clustering": swa.clustering, "path_length": swa.path_length,
                    "small_worldness": swa.small_worldness},
            "union_sample": {"clustering": sample.clustering,
                             "path_length": sample.path_length,
                             "small_worldness": sample.small_worldness},
            "union_median_clustering": float(np.median([graph_clustering(*u) for u in unions])),
            "union_median_path_length": float(np.median([graph_path_length(*u)
                                                         for u in unions])),
        }
        want = json.dumps(oracle, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "smallworld.json").read_bytes() == want.encode("ascii")

    def test_too_sparse_fails_before_the_ring_bfs(self, tmp_path, capsys):
        # the baselines' isolated nodes are found by counting degrees, before
        # the 4096-node ring's own all-pairs BFS
        start = time.perf_counter()
        assert run(["--out", tmp_path, "smallworld", "--n", 4096, "--w", 4, "--seeds", 1,
                    "--baselines", 1]) == 1
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert err.startswith("error: none of 21 random graphs") and err.count("\n") == 1


class TestConnprob:
    def test_mc_json(self, tmp_path):
        assert run(["--seed", 3, "--out", tmp_path, "connprob", "--n", 64, "--w", 8,
                    "--trials", 4000]) == 0
        data = json.loads((tmp_path / "connprob.json").read_text())
        assert data["analytic"] == pytest.approx(7 / 63)
        assert abs(data["estimate"] - data["analytic"]) <= 3 * data["stderr"]

    def test_run_without_a_hit_passes(self, tmp_path):
        # three trials at p = 1.5e-5 draw no hit, so the estimate's stderr is 0
        assert run(["--out", tmp_path, "connprob", "--n", 1_000_000, "--w", 16,
                    "--trials", 3]) == 0
        data = json.loads((tmp_path / "connprob.json").read_text())
        assert data["estimate"] == 0.0 and data["stderr"] == 0.0

    def test_no_hit_at_verify_sizes_fails(self, monkeypatch):
        # verify's 20000 trials expect about 1100 hits, so none is a failure
        from stochattn import checks
        from stochattn.numerics import SeededRng
        monkeypatch.setattr(checks, "connection_probability_mc", lambda *a, **k: (0.0, 0.0))
        assert checks.connprob(SeededRng(0))["passed"] is False

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

    # the full mask has no window: the default --w 8 may exceed --n
    @pytest.mark.parametrize("n,window", [(9, ["--w", 4]), (4, [])],
                             ids=["n9-w4", "n4-default-w"])
    def test_full_causal_is_lower_triangle(self, tmp_path, n, window):
        assert run(["--out", tmp_path, "maskviz", "--kind", "full", "--n", n, *window]) == 0
        body = (tmp_path / "mask_full.pgm").read_bytes().split(b"255\n", 1)[1]
        pix = np.frombuffer(body, dtype=np.uint8).reshape(n, n)
        assert np.array_equal(pix == 255, np.tril(np.ones((n, n), dtype=bool)))

    @pytest.mark.parametrize("fmt,line", [("pgm", 1), ("csv", 0)])
    def test_full_mask_metadata_records_no_window(self, tmp_path, fmt, line):
        # the full mask ignores --w and --convention; the seed stays as provenance
        assert run(["--seed", 3, "--format", fmt, "--out", tmp_path, "maskviz",
                    "--kind", "full", "--n", 4]) == 0
        header = (tmp_path / f"mask_full.{fmt}").read_bytes().split(b"\n")[line]
        assert header == b"# stochattn maskviz kind=full seed=3 n=4"

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


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    @pytest.mark.parametrize("args", [
        ["connprob", "--n", 16, "--w", 4, "--trials", 1000],
        ["connprob", "--exhaustive", "--n", 4, "--w", 2],
        ["connprob", "--causal", "--n", 16, "--w", 4, "--trials", 200],
        ["smallworld", "--n", 64, "--w", 8, "--seeds", 2, "--baselines", 2],
        ["spectrum", "--n", 16, "--w", 4, "--perms", 2, "--depth", 2, "--seeds", 2],
        ["gradcheck", "--n", 4, "--dh", 2, "--instances", 2],
        ["stats", "bias", "--n", 16, "--w", 4, "--trials", 100],
        ["stats", "bias", "--n", 1, "--w", 1, "--trials", 2],
        ["stats", "variance", "--n", 16, "--w", 4, "--trials", 100],
        ["stats", "bvdecomp", "--n", 16, "--w", 4, "--trials", 100],
        ["stats", "bvdecomp", "--n", 1, "--w", 1, "--trials", 100],
        ["verify"],
    ], ids=["connprob", "connprob-exhaustive", "connprob-causal", "smallworld", "spectrum",
            "gradcheck", "bias", "bias-n1", "variance", "bvdecomp", "bvdecomp-n1", "verify"])
    def test_every_json_output_parses_strictly(self, tmp_path, args):
        assert run(["--out", tmp_path, *args]) in (0, 2)
        (path,) = tmp_path.glob("*.json")
        _strict_json(path.read_text())

    def test_undefined_dimension_ratio_is_null(self, tmp_path):
        # one token: every sample is the value row, so each dimension's
        # variance is rounding noise, zero in some dimensions only
        assert run(["--out", tmp_path, "stats", "bvdecomp", "--n", 1, "--w", 1,
                    "--trials", 100]) == 0
        data = _strict_json((tmp_path / "stats_bvdecomp.json").read_text())
        assert data["dim_variance_ratio"] is None


class TestOutputDirEnv:
    def test_env_var_used_when_no_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STOCHATTN_OUT", str(tmp_path / "envout"))
        assert run(["verify", "--only", "connectome"]) == 0
        assert (tmp_path / "envout" / "verify.json").exists()
