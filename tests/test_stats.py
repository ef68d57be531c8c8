"""Estimator statistics: bias decay, without-replacement variance, and the
dual-path bias-variance decomposition."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stochattn import (
    AttentionInputs,
    BiasReport,
    Convention,
    GateParams,
    Permutation,
    SeededRng,
    WindowSpec,
    build_stochastic_mask,
    fusion_bv_decompose,
    intersect_causal,
    sa_bias_mc,
    sa_forward,
    sa_variance_exact,
    sa_variance_mc,
    sample_permutation,
    window_neighbours,
)
from stochattn import checks, numerics, stats
from stochattn.stats import _causal_uniform_sa_samples, _uniform_sa_outputs


def _dense_causal_uniform_sa_sample(v, w, perm):
    """Oracle: the causally intersected stochastic mask, rows normalized to
    uniform weights, times v."""
    n = v.shape[0]
    mask = intersect_causal(
        build_stochastic_mask(n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR), perm))
    m = mask.astype(np.float64)
    return (m @ v) / m.sum(axis=1, keepdims=True)


def _loop_causal_uniform_sa_sample(v, w, rng):
    """Oracle: one trial of the causal sampler as a one-by-one loop draws it."""
    n = v.shape[0]
    keys = window_neighbours(n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR),
                             sample_permutation(n, rng))
    kept = keys <= np.arange(n)[:, None]
    return (v[keys] * kept[:, :, None]).sum(axis=1) / kept.sum(axis=1, keepdims=True)


def _loop_uniform_sa_output(v, perm, w):
    """Oracle: one permutation's circular window means, from its own cumsum."""
    n, d = v.shape
    back, fwd = WindowSpec(w, Convention.SYMMETRIC_CIRCULAR).offsets()
    vp = v[perm.inverse]
    parts = [vp[n - back:], vp, vp[:fwd]] if back else [vp, vp[:fwd]]
    ext = np.concatenate([p for p in parts if p.shape[0]], axis=0)
    csum = np.vstack([np.zeros((1, d)), np.cumsum(ext, axis=0)])
    return ((csum[w:] - csum[:-w]) / w)[perm.forward]


def _loop_sa_bias_mc(v, ws, trials, rng):
    """Oracle: ``sa_bias_mc`` drawing and adding its trials one by one."""
    n, d = v.shape
    v_bar = v.mean(axis=0)
    deviations, stderrs, mean_z_sq = [], [], []
    for wi, w in enumerate(ws):
        w_rng = rng.child(wi, 0)
        total, total_sq = np.zeros((n, d)), np.zeros((n, d))
        for _ in range(trials):
            y = _loop_uniform_sa_output(v, sample_permutation(n, w_rng), w)
            total += y
            total_sq += y * y
        mean_y = total / trials
        deviations.append(float(np.linalg.norm(mean_y - v_bar[None, :], axis=1).mean()))
        comp_var = np.maximum((total_sq / trials - mean_y**2) * trials / (trials - 1), 0.0)
        stderrs.append(float(np.sqrt(comp_var.sum(axis=1) / trials).mean()))
        comp_se = np.sqrt(comp_var / trials)
        slope = 0.0 if w == n else (n - w) / (w * (n - 1))
        z = [(mean_y - v_bar - slope * (v - v_bar))[i, j] / comp_se[i, j]
             for i, j in zip(*np.nonzero(comp_se)) if w < n]
        mean_z_sq.append(float(np.mean(np.square(z))) if z else None)
    return BiasReport(n=n, d=d, trials=trials, ws=list(ws), deviations=deviations,
                      stderrs=stderrs, mean_z_sq=mean_z_sq)


def _loop_variance_samples(v, w, trials, rng):
    """Oracle: the fixed slot's window means of ``sa_variance_mc``, one trial
    at a time."""
    n = v.shape[0]
    slot_window = window_neighbours(n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR))[0]
    return np.stack([v[np.sort(rng.permutation(n)[slot_window])].mean(axis=0)
                     for _ in range(trials)])


@st.composite
def _sampler_case(draw):
    """(n, w, d, seed) with 1 <= w <= n <= 80 and 1 <= d <= 8."""
    n = draw(st.integers(1, 80))
    return n, draw(st.integers(1, n)), draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1))


# chunk budgets: one trial per chunk, chunks that do not divide the trial
# count, and the default
_CHUNK_BYTES = [1, 3000, numerics.MC_CHUNK_BYTES]


class TestCausalSampler:
    @given(_sampler_case(), st.integers(1, 7))
    @example((32, 8, 4, 1), 5)   # the bvdecomp check's shape
    @example((40, 40, 3, 2), 3)  # w = n: full causal attention
    @example((1, 1, 1, 3), 2)
    def test_table_route_matches_dense_mask(self, case, trials):
        # batched row t against the dense sampler on the t-th permutation the
        # same stream draws one by one
        n, w, d, seed = case
        v = np.asarray(SeededRng(seed).normal(size=(n, d)))
        batch = _causal_uniform_sa_samples(v, w, SeededRng(seed).child(1, 0), trials)
        rng = SeededRng(seed).child(1, 0)
        for row in batch:
            dense = _dense_causal_uniform_sa_sample(v, w, sample_permutation(n, rng))
            assert np.abs(row - dense).max() <= 1e-12

    @pytest.mark.parametrize("n, w, d, seed", [(32, 8, 3, 0), (32, 8, 3, 1), (17, 5, 2, 2),
                                               (40, 40, 1, 3), (64, 9, 4, 4)])
    def test_a_draw_is_the_kernel_at_zero_scores(self, n, w, d, seed):
        # q = k = 0 scores every key 0, so the kernel's weights are uniform over
        # its valid keys, the window's tokens <= the query's token
        v = np.asarray(SeededRng(seed).normal(size=(n, d)))
        got = _causal_uniform_sa_samples(v, w, SeededRng(seed), 1)[0]
        zero = np.zeros((n, d))
        want = sa_forward(AttentionInputs(zero, zero, v), w,
                          Permutation(SeededRng(seed).permutations(1, n)[0]),
                          Convention.SYMMETRIC_CIRCULAR)
        assert np.abs(got - want).max() <= 1e-12

    @given(_sampler_case(), st.integers(1, 7))
    @example((32, 8, 1, 4), 6)
    @example((64, 33, 1, 5), 3)
    def test_batched_rows_equal_single_trial_loop(self, case, trials):
        n, w, d, seed = case
        v = np.asarray(SeededRng(seed).normal(size=(n, d)))
        batch = _causal_uniform_sa_samples(v, w, SeededRng(seed), trials)
        rng = SeededRng(seed)
        for row in batch:
            assert np.array_equal(row, _loop_causal_uniform_sa_sample(v, w, rng))


class TestVarianceExact:
    def test_full_window_variance_zero(self):
        v = np.asarray(SeededRng(1).normal(size=(10, 3)))
        assert sa_variance_exact(v, 10).exact == 0.0

    def test_two_point_enumeration(self):
        # v = {0, 2}, w = 1: both singleton subsets, deviations (0-1)^2 and
        # (2-1)^2 about the mean 1, so the variance is exactly 1
        v = np.array([[0.0], [2.0]])
        report = sa_variance_exact(v, 1)
        assert report.sigma_v2 == 1.0
        assert report.exact == 1.0
        subset_means = [v[list(s)].mean() for s in itertools.combinations(range(2), 1)]
        assert np.mean([(m - 1.0) ** 2 for m in subset_means]) == 1.0

    def test_bound_chain_on_random_values(self):
        rng = SeededRng(2)
        for _ in range(100):
            n = int(rng.integers(4, 40))
            d = int(rng.integers(1, 6))
            w = int(rng.integers(1, n + 1))
            v = np.asarray(rng.normal(size=(n, d)))
            r = sa_variance_exact(v, w)
            assert r.exact <= r.sigma_v2 / w + 1e-12
            assert r.sigma_v2 / w <= r.bound + 1e-12


class TestVarianceMc:
    @pytest.mark.parametrize("chunk_bytes", _CHUNK_BYTES)
    @pytest.mark.parametrize("n,w,d,trials", [(64, 8, 4, 401), (9, 4, 1, 37), (1, 1, 1, 5),
                                              (200, 150, 2, 23)])
    def test_chunked_draws_equal_one_by_one_loop(self, monkeypatch, chunk_bytes, n, w, d,
                                                 trials):
        monkeypatch.setattr(numerics, "MC_CHUNK_BYTES", chunk_bytes)
        v = np.asarray(SeededRng(n + w).normal(size=(n, d)))
        ys = _loop_variance_samples(v, w, trials, SeededRng(3))
        report = sa_variance_mc(v, w, trials, SeededRng(3))
        centered = (ys - ys[0]) - (ys - ys[0]).mean(axis=0, keepdims=True)
        sq = (centered**2).sum(axis=1)
        assert report.mc_variance == float(sq.sum() / max(trials - 1, 1))
        assert report.mc_stderr == float(sq.std(ddof=1) / np.sqrt(trials))

    def test_full_window_mc_zero(self):
        v = np.asarray(SeededRng(3).normal(size=(12, 2)))
        report = sa_variance_mc(v, 12, 300, SeededRng(4))
        assert report.mc_variance == 0.0

    def test_constant_values_zero(self):
        v = np.full((20, 3), 2.5)
        report = sa_variance_mc(v, 4, 500, SeededRng(5))
        assert report.mc_variance <= 1e-12

    def test_matches_closed_form(self):
        v = np.asarray(SeededRng(6).uniform(-1, 1, size=(64, 4)))
        report = sa_variance_mc(v, 8, 4000, SeededRng(7))
        assert abs(report.mc_variance - report.exact) <= 0.05 * report.exact

    def test_convergence_with_trials(self):
        # the estimator honors its own reported error bar at every budget,
        # and the error bar shrinks like one over sqrt(trials)
        v = np.asarray(SeededRng(8).uniform(-1, 1, size=(32, 3)))
        stderrs = []
        for trials in (500, 2000, 8000):
            report = sa_variance_mc(v, 6, trials, SeededRng(9))
            assert abs(report.mc_variance - report.exact) <= 4 * report.mc_stderr
            stderrs.append(report.mc_stderr)
        assert 1.5 <= stderrs[0] / stderrs[1] <= 2.7
        assert 1.5 <= stderrs[1] / stderrs[2] <= 2.7


class TestBias:
    @pytest.mark.parametrize("chunk_bytes", _CHUNK_BYTES)
    @pytest.mark.parametrize("n,d,ws,trials", [(48, 3, [6, 12], 301), (1, 1, [1], 40),
                                               (7, 1, [2, 7], 33), (128, 4, [8], 97)])
    def test_chunked_trials_equal_one_by_one_loop(self, monkeypatch, chunk_bytes, n, d, ws,
                                                  trials):
        monkeypatch.setattr(numerics, "MC_CHUNK_BYTES", chunk_bytes)
        v = np.asarray(SeededRng(n * d).normal(size=(n, d)))
        assert sa_bias_mc(v, ws, trials, SeededRng(5)) == _loop_sa_bias_mc(v, ws, trials,
                                                                             SeededRng(5))

    @given(_sampler_case())
    @example((1, 1, 1, 0))
    @example((2, 2, 1, 1))
    def test_uniform_sa_output_matches_single_permutation_oracle(self, case):
        n, w, d, seed = case
        v = np.asarray(SeededRng(seed).normal(size=(n, d)))
        perm = sample_permutation(n, SeededRng(seed).child(0, 1))
        assert np.array_equal(_uniform_sa_outputs(v, perm.forward[None], w)[0],
                              _loop_uniform_sa_output(v, perm, w))

    def test_chunk_memory_is_bounded(self):
        # one unchunked (256, 8192, 4) float64 gather alone is 64 MB
        v = np.asarray(SeededRng(40).normal(size=(8192, 4)))
        tracemalloc.start()
        try:
            sa_bias_mc(v, [8], 256, SeededRng(41))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_constant_values_unbiased(self):
        v = np.full((24, 2), -1.25)
        report = sa_bias_mc(v, [4], 200, SeededRng(10))
        assert report.deviations[0] <= 1e-12

    def test_full_window_recovers_mean_exactly(self):
        v = np.asarray(SeededRng(11).normal(size=(16, 3)))
        report = sa_bias_mc(v, [16], 50, SeededRng(12))
        assert report.deviations[0] <= 1e-12

    @pytest.mark.parametrize("n", [16, 48, 128])
    def test_full_window_reports_no_z_score(self, n):
        # every trial averages the same n rows, so the spread is rounding noise
        v = np.asarray(SeededRng(n).normal(size=(n, 3)))
        report = sa_bias_mc(v, [n // 4, n], 4000, SeededRng(n + 1))
        assert report.mean_z_sq[1] is None
        assert report.mean_z_sq[0] is not None and report.mean_z_sq[0] <= 1.5

    def test_mean_output_matches_closed_form(self):
        # self-inclusion makes E[Y_i] = V_i/w + (w-1)/(w(n-1)) * (sum V - V_i);
        # check the MC mean against this directly
        n, w, trials = 48, 6, 4000
        v = np.asarray(SeededRng(13).uniform(-1, 1, size=(n, 2)))
        rng = SeededRng(14)
        total = np.zeros_like(v)
        for _ in range(trials):
            perm = sample_permutation(n, rng)
            total += _uniform_sa_outputs(v, perm.forward[None], w)[0]
        mc_mean = total / trials
        expected = v / w + ((w - 1) / (w * (n - 1))) * (v.sum(axis=0)[None, :] - v)
        assert np.abs(mc_mean - expected).max() <= 0.02

    def test_halving_ratio_when_window_doubles(self):
        n = 128
        v = np.asarray(SeededRng(15).uniform(-1, 1, size=(n, 4)))
        report = sa_bias_mc(v, [8, 16], 4000, SeededRng(16))
        ratio = report.deviations[1] / report.deviations[0]
        assert 0.3 <= ratio <= 0.8
        # the exact per-token factor is (n-2w)/(2(n-w))
        assert ratio == pytest.approx((n - 16) / (2 * (n - 8)), abs=0.05)

    def test_nonincreasing_in_window(self):
        v = np.asarray(SeededRng(17).uniform(-1, 1, size=(96, 3)))
        report = sa_bias_mc(v, [4, 8, 16, 32], 4000, SeededRng(18))
        assert all(b <= a * 1.02 for a, b in zip(report.deviations, report.deviations[1:]))

    def test_closed_form_gate_rejects_the_model_without_its_finite_n_factor(self,
                                                                          monkeypatch):
        # at verify's sizes and streams the exact slope (n-w)/(w(n-1)) reads a
        # mean z^2 near 1, and the slope 1/w (no (n-w)/(n-1) factor) fails
        index = list(checks.CHECKS).index("bias")
        for seed in range(8):
            assert checks.bias(SeededRng(seed).child(index, 0))["passed"]
        monkeypatch.setattr(stats, "_bias_slope", lambda n, w: 1.0 / w)
        for seed in range(8):
            report = checks.bias(SeededRng(seed).child(index, 0))
            assert not report["passed"]
            assert max(report["measured"]["mean_z_sq"]) > 1.5

    def test_stderr_positive(self):
        v = np.asarray(SeededRng(19).normal(size=(32, 2)))
        report = sa_bias_mc(v, [4], 50, SeededRng(20))
        assert report.stderrs[0] > 0


class TestFusionDecomposition:
    def _gates(self, d, scale_swa=0.0, scale_sa=0.0):
        return GateParams(scale_swa * np.eye(d), scale_sa * np.eye(d))

    def test_identity_within_three_stderr(self):
        v = np.asarray(SeededRng(21).uniform(-1, 1, size=(32, 4)))
        report = fusion_bv_decompose(v, self._gates(4), 8, 4000, SeededRng(22))
        assert abs(report.residual) <= 3 * report.combined_stderr

    def test_identity_with_nonzero_gates(self):
        v = np.asarray(SeededRng(23).uniform(-1, 1, size=(24, 3)))
        gates = GateParams(np.asarray(SeededRng(24).normal(size=(3, 3))),
                           np.asarray(SeededRng(25).normal(size=(3, 3))))
        report = fusion_bv_decompose(v, gates, 6, 4000, SeededRng(26))
        assert abs(report.residual) <= 3 * report.combined_stderr

    def test_suppressed_stochastic_gate_collapses_to_swa_bias(self):
        # positive values keep the stochastic outputs positive, so a large
        # negative gate projection drives that gate to zero
        v = np.asarray(SeededRng(27).uniform(0.5, 1.5, size=(32, 4)))
        report = fusion_bv_decompose(v, self._gates(4, scale_sa=-1000.0), 8, 1000,
                                     SeededRng(28))
        assert report.variance_term == 0.0
        assert report.mse == pytest.approx(report.bias_sq, abs=1e-12)
        assert report.mse_stderr <= 1e-12

    def test_constant_values_fully_degenerate(self):
        v = np.full((16, 2), 3.0)
        report = fusion_bv_decompose(v, self._gates(2), 4, 500, SeededRng(29))
        assert report.mse == pytest.approx(0.0, abs=1e-20)
        assert report.bias_sq == pytest.approx(0.0, abs=1e-20)
        assert report.variance_term == pytest.approx(0.0, abs=1e-20)

    def test_dim_variance_diagnostic(self):
        v = np.asarray(SeededRng(30).uniform(-1, 1, size=(24, 3)))
        v[:, 2] *= 10.0  # make one dimension much noisier
        report = fusion_bv_decompose(v, self._gates(3), 6, 1000, SeededRng(31))
        assert report.dim_variance_ratio > 5.0

    @given(st.integers(1, 9), st.integers(1, 200), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @example(4, 32, 4, 0)   # the bvdecomp check's shape
    def test_batched_error_sums_equal_per_trial_sums(self, trials, n, d, seed):
        # the audit batch sums each trial's squared errors over one row of a
        # (trials, n * d) array; a one-by-one loop summed each (n, d) array
        err = np.asarray(SeededRng(seed).normal(size=(trials, n, d)))
        per_trial = [float(e.sum()) for e in err]
        assert err.reshape(trials, -1).sum(axis=1).tolist() == per_trial

    @pytest.mark.parametrize("chunk_bytes", [1, 3000])
    def test_report_does_not_depend_on_chunk_size(self, monkeypatch, chunk_bytes):
        v = np.asarray(SeededRng(33).uniform(-1, 1, size=(20, 3)))
        gates = GateParams(np.asarray(SeededRng(34).normal(size=(3, 3))),
                           np.asarray(SeededRng(35).normal(size=(3, 3))))
        default = fusion_bv_decompose(v, gates, 5, 333, SeededRng(36))
        monkeypatch.setattr(numerics, "MC_CHUNK_BYTES", chunk_bytes)
        assert fusion_bv_decompose(v, gates, 5, 333, SeededRng(36)) == default

    def test_requires_enough_trials(self):
        v = np.zeros((8, 2))
        with pytest.raises(ValueError):
            fusion_bv_decompose(v, self._gates(2), 4, 50, SeededRng(32))
