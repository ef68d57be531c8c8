"""Monte-Carlo and closed-form verification of the stochastic-attention
estimator statistics: bias against uniform full attention, the
without-replacement variance law, and the bias-variance decomposition of the
gated dual path.

Everything here runs in the uniform-attention regime (weights equal to one
over the row degree), where the closed forms are exact. Every sampler reads
its windows from ``masks.window_keys``, through cumulative sums along the
extended slots or gathers, never from an n x n mask.
Trials are drawn and evaluated one chunk at a time, as many as fit
``numerics.MC_CHUNK_BYTES``: a chunk's permutations are the next draws of
the same stream a one-by-one loop would make, and running sums add the
trials in the same order, so no result depends on the chunk size.
The two sampling models are deliberately different and both faithful:

* bias uses the true per-token stochastic neighborhoods, which always
  contain the token itself; that self-inclusion is exactly what produces the
  O(1/w) bias, with per-token deviation (n-w)/(w(n-1)) * (V_i - mean V).
* variance samples the window content of a fixed permuted slot, which is a
  uniform size-w subset of the rows, the without-replacement sample mean
  whose variance is (1/w) * (n-w)/(n-1) * sigma_V^2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .attention import GateParams
from .masks import Convention, WindowSpec, check_window, window_keys
from .numerics import MC_CHUNK_BYTES, SeededRng, as_matrix, sigmoid_in_place, trial_chunks
from .permute import inverse_rows


class BiasReport(NamedTuple):
    """Deviation of the mean stochastic output from the value mean, per
    swept window size, and its mean squared z-score against the closed form
    (None where no component has a positive stderr)."""

    n: int
    d: int
    trials: int
    ws: list
    deviations: list
    stderrs: list
    mean_z_sq: list


class VarianceReport(NamedTuple):
    """Closed-form vs Monte-Carlo variance of the uniform-window sample mean."""

    n: int
    w: int
    d: int
    sigma_v2: float
    b_max: float
    exact: float
    bound: float
    mc_variance: float | None = None
    mc_stderr: float | None = None
    trials: int = 0


class BVReport(NamedTuple):
    """Bias-variance decomposition audit of the gated dual path."""

    n: int
    d: int
    w: int
    trials: int
    bias_sq: float
    variance_term: float
    mse: float
    mse_stderr: float
    rhs_stderr: float
    residual: float
    combined_stderr: float
    dim_variance_ratio: float | None


def _add_in_order(total: np.ndarray, batch: np.ndarray) -> None:
    """Add batch[0], batch[1], ... to ``total`` in that order, as a one-by-one
    loop does; a reduction over the batch may pair the terms differently."""
    for row in batch:
        total += row


def _uniform_sa_outputs(v: np.ndarray, forward: np.ndarray, w: int) -> np.ndarray:
    """Uniform-attention stochastic output under each row of ``forward``, a
    (trials, n) batch of permutations: entry (t, i) is the mean of v over
    token i's circular window in trial t's permuted order (self included),
    read off one cumulative sum along the extended slots."""
    (trials, n), d = forward.shape, v.shape[1]
    keys = window_keys(n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR), inverse_rows(forward))
    ext = np.take(v, keys, axis=0)
    csum = np.zeros((trials, n + w, d))
    np.cumsum(ext, axis=1, out=csum[:, 1:])
    slot_means = (csum[:, w:] - csum[:, :-w]) / w
    return np.take(slot_means.reshape(-1, d), forward + n * np.arange(trials)[:, None], axis=0)


def _bias_slope(n: int, w: int) -> float:
    """c in the exact mean deviation E[Y_i] - mean(V) = c * (V_i - mean(V))."""
    return 0.0 if w == n else (n - w) / (w * (n - 1))


def _bias_trial_bytes(n: int, w: int, d: int) -> int:
    """Bytes of a trial's (n + w) x d float64 window sums in ``sa_bias_mc``."""
    return (n + w) * d * 8


def sa_bias_mc(v, ws, trials: int, rng: SeededRng) -> BiasReport:
    """Average the uniform-attention stochastic output over fresh
    permutations, for each window size in the sequence ``ws``, and report
    its distance from the value mean.

    The reported deviation for each window size is the mean over tokens of
    ||E_mc[Y_i] - mean(V)||; the stderr field is the matching mean
    estimator-noise scale per token. Deviations shrink as O(1/w): doubling
    w multiplies the exact per-token deviation by (n-2w)/(2(n-w)).
    ``mean_z_sq`` averages z^2 over the components with a positive stderr,
    z = (E_mc[Y_i] - mean(V) - c (V_i - mean(V))) / stderr with the exact
    c = (n-w)/(w(n-1)); it is about 1 when the model holds, and None at
    w = n, where every trial gives the same output.
    """
    v = as_matrix(v, "v")
    if trials < 2:
        raise ValueError("trials must be >= 2 to estimate a standard error")
    n, d = v.shape
    v_bar = v.mean(axis=0)
    ws = [int(w) for w in ws]
    deviations, stderrs, mean_z_sq = [], [], []
    for wi, w in enumerate(ws):
        check_window(n, w)
        w_rng = rng.child(wi, 0)
        total = np.zeros((n, d))
        total_sq = np.zeros((n, d))
        for lo, hi in trial_chunks(trials, _bias_trial_bytes(n, w, d)):
            y = _uniform_sa_outputs(v, w_rng.permutations(hi - lo, n), w)
            _add_in_order(total, y)
            _add_in_order(total_sq, y * y)
        mean_y = total / trials
        dev = np.linalg.norm(mean_y - v_bar[None, :], axis=1)
        deviations.append(float(dev.mean()))
        comp_var = (total_sq / trials - mean_y**2) * trials / (trials - 1)
        comp_var = np.maximum(comp_var, 0.0)
        token_noise = np.sqrt(comp_var.sum(axis=1) / trials)
        stderrs.append(float(token_noise.mean()))
        comp_se = np.sqrt(comp_var / trials)
        # at w = n every trial averages all n rows: the output never varies,
        # and its stderr is rounding noise that no z-score can be taken against
        kept = (comp_se > 0.0) & (w < n)
        z = (mean_y - v_bar - _bias_slope(n, w) * (v - v_bar))[kept] / comp_se[kept]
        mean_z_sq.append(float(np.mean(z * z)) if z.size else None)
    return BiasReport(n=n, d=d, trials=trials, ws=ws, deviations=deviations,
                      stderrs=stderrs, mean_z_sq=mean_z_sq)


def sa_bias_cost(n: int, w: int, d: int, trials: int) -> tuple[int, int]:
    """Estimated (bytes, entries) of ``sa_bias_mc`` on n x d float64 values V
    at the windows w and 2w: seven V-sized arrays (the values, two running
    sums, the final moments) and about eight arrays of a chunk of trials
    (at least MC_CHUNK_BYTES) at the window 2w's bytes a trial, and about
    ten passes over each window's (n + w) d sums a trial."""
    per_trial = _bias_trial_bytes(n, 2 * w, d)
    return 7 * n * d * 8 + 8 * max(MC_CHUNK_BYTES, per_trial), 10 * trials * (2 * n + 3 * w) * d


def sa_variance_exact(v, w: int) -> VarianceReport:
    """Closed-form variance of the mean of a uniform size-w row sample:
    (1/w) * (n-w)/(n-1) * sigma_V^2, with the coarse bound 4*B^2/w."""
    v = as_matrix(v, "v")
    n, d = v.shape
    check_window(n, w)
    v_bar = v.mean(axis=0)
    sigma_v2 = float(((v - v_bar) ** 2).sum(axis=1).mean())
    b_max = float(np.linalg.norm(v, axis=1).max())
    exact = 0.0 if w == n else (1.0 / w) * ((n - w) / (n - 1)) * sigma_v2
    bound = 4.0 * b_max**2 / w
    return VarianceReport(n=n, w=w, d=d, sigma_v2=sigma_v2, b_max=b_max,
                          exact=exact, bound=bound)


def _variance_trial_bytes(n: int, w: int, d: int) -> int:
    """A trial's int64 permutation or w x d float64 window values, in bytes."""
    return max(n, w * d) * 8


def sa_variance_mc(v, w: int, trials: int, rng: SeededRng) -> VarianceReport:
    """Monte-Carlo variance of the uniform-attention stochastic output at a
    fixed permuted slot.

    The window content of a fixed slot under a fresh uniform permutation is
    a uniform size-w subset of the rows, so this is the direct sampling
    counterpart of ``sa_variance_exact``.
    """
    base = sa_variance_exact(v, w)
    if trials < 2:
        raise ValueError("trials must be >= 2 to estimate a standard error")
    v = as_matrix(v, "v")
    n, d = v.shape
    slot_window = window_keys(n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR))[:w]
    ys = np.empty((trials, d))
    for lo, hi in trial_chunks(trials, _variance_trial_bytes(n, w, d)):
        token_of_slot = rng.permutations(hi - lo, n)
        # the subset is what matters; sort so summation order is canonical
        subsets = np.sort(token_of_slot[:, slot_window], axis=1)
        ys[lo:hi] = v[subsets].mean(axis=1)
    # shifted-data variance: centering by a fixed sample keeps the constant
    # case exactly zero and conditions the two-pass computation
    shifted = ys - ys[0]
    centered = shifted - shifted.mean(axis=0, keepdims=True)
    sq = (centered**2).sum(axis=1)
    mc_var = float(sq.sum() / (trials - 1))
    mc_stderr = float(sq.std(ddof=1) / math.sqrt(trials))
    return base._replace(mc_variance=mc_var, mc_stderr=mc_stderr, trials=trials)


def sa_variance_cost(n: int, w: int, d: int, trials: int) -> tuple[int, int]:
    """Estimated (bytes, entries) of ``sa_variance_mc`` on n x d float64
    values V: three V-sized arrays, the (trials, d) float64 sample means five
    times (the samples, shifted, centred, squared, per-trial sums) and about
    eight arrays of a chunk of trials (at least MC_CHUNK_BYTES), and
    max(n, w d) entries a trial, about 2n + 4wd of them touched."""
    held = 3 * n * d * 8 + 5 * trials * d * 8
    return (held + 8 * max(MC_CHUNK_BYTES, _variance_trial_bytes(n, w, d)),
            trials * (2 * n + 4 * w * d))


def _causal_uniform_window(v: np.ndarray, w: int) -> np.ndarray:
    """Uniform causal sliding-window attention: row i is the mean of the
    last min(i+1, w) rows; with w = n, uniform full causal attention."""
    n, d = v.shape
    csum = np.vstack([np.zeros((1, d)), np.cumsum(v, axis=0)])
    idx = np.arange(n)
    start = np.maximum(0, idx - w + 1)
    sums = csum[idx + 1] - csum[start]
    return sums / (idx + 1 - start)[:, None]


def _causal_uniform_sa_samples(v: np.ndarray, w: int, rng: SeededRng,
                               trials: int) -> np.ndarray:
    """Uniform causal stochastic attention under ``trials`` fresh
    permutations: entry (t, i) is the mean of v over the tokens of i's
    window in trial t's permuted order that are <= i."""
    n = v.shape[0]
    forward = rng.permutations(trials, n)
    table = window_keys(n, WindowSpec(w, Convention.SYMMETRIC_CIRCULAR), inverse_rows(forward))
    # a token's window is its slot's
    keys = sliding_window_view(table, w, axis=1)[np.arange(trials)[:, None], forward]
    kept = keys <= np.arange(n)[:, None]
    # a dropped key reads the zero row appended after the n tokens
    padded = np.concatenate([v, np.zeros((1, v.shape[1]))])
    gathered = np.take(padded, np.where(kept, keys, n), axis=0)
    return gathered.sum(axis=2) / kept.sum(axis=2, keepdims=True)


def _bv_plan(n: int, w: int, d: int, trials: int) -> tuple[int, int, int, int]:
    """A sample's n x w x d float64 bytes and the anchor, rhs and lhs batch trials."""
    n_anchor = max(50, trials // 10)
    n_rhs = (trials - n_anchor) // 2
    return n * w * d * 8, n_anchor, n_rhs, trials - n_anchor - n_rhs


def fusion_bv_decompose(v, gates: GateParams, w: int, trials: int,
                        rng: SeededRng) -> BVReport:
    """Audit the bias-variance split of the gated dual path against uniform
    full causal attention.

    The error being decomposed is the gate-weighted sum of per-path
    deviations, g_sa * (Y_sa - Y*) + g_swa * (Y_swa - Y*); when the two
    gates sum to one this equals Y - Y*. Its mean squared norm must equal
    ||g_sa * b_sa + g_swa * b_swa||^2 plus the gate-weighted per-dimension
    variance of the stochastic path.

    Gates are fixed once: the local gate from the deterministic windowed
    output, the stochastic gate from a pilot-batch mean of the stochastic
    output, so both are deterministic with respect to the batches used for
    the two sides. The left side and the right side use disjoint trial
    batches, and the report carries both standard errors plus the max/min
    per-dimension variance ratio (1.0 when no dimension varies, None when
    some but not all do).
    """
    v = as_matrix(v, "v")
    if trials < 100:
        raise ValueError("need at least 100 trials to form pilot and audit batches")
    n, d = v.shape
    if gates.d != d:
        raise ValueError(f"gate width {gates.d} does not match value width {d}")
    check_window(n, w)

    y_star = _causal_uniform_window(v, n)
    y_swa = _causal_uniform_window(v, w)
    b_swa = y_swa - y_star

    sample_bytes, n_anchor, n_rhs, n_lhs = _bv_plan(n, w, d, trials)
    anchor_rng, rhs_rng, lhs_rng = rng.child(0, 0), rng.child(1, 0), rng.child(2, 0)

    anchor = np.zeros((n, d))
    for lo, hi in trial_chunks(n_anchor, sample_bytes):
        _add_in_order(anchor, _causal_uniform_sa_samples(v, w, anchor_rng, hi - lo))
    anchor /= n_anchor
    g_sa = sigmoid_in_place(anchor @ gates.w_gate_sa.T)
    g_swa = sigmoid_in_place(y_swa @ gates.w_gate_swa.T)
    swa_part = g_swa * b_swa

    rhs_samples = np.empty((n_rhs, n, d))
    for lo, hi in trial_chunks(n_rhs, sample_bytes):
        rhs_samples[lo:hi] = _causal_uniform_sa_samples(v, w, rhs_rng, hi - lo)

    def rhs_from(samples: np.ndarray) -> tuple[float, float]:
        mean_sa = samples.mean(axis=0)
        var_nd = samples.var(axis=0, ddof=1)
        bias_sq = float(((g_sa * (mean_sa - y_star) + swa_part) ** 2).sum())
        var_term = float((g_sa**2 * var_nd).sum())
        return bias_sq, var_term

    bias_sq, variance_term = rhs_from(rhs_samples)
    chunk_vals = []
    for chunk in np.array_split(rhs_samples, 10):
        if chunk.shape[0] >= 2:
            chunk_vals.append(sum(rhs_from(chunk)))
    rhs_stderr = float(np.std(chunk_vals, ddof=1) / math.sqrt(len(chunk_vals)))

    lhs_samples = np.empty(n_lhs)
    for lo, hi in trial_chunks(n_lhs, sample_bytes):
        y_sa = _causal_uniform_sa_samples(v, w, lhs_rng, hi - lo)
        sq_err = (g_sa * (y_sa - y_star) + swa_part) ** 2
        lhs_samples[lo:hi] = sq_err.reshape(hi - lo, -1).sum(axis=1)
    mse = float(lhs_samples.mean())
    mse_stderr = float(lhs_samples.std(ddof=1) / math.sqrt(n_lhs))

    var_by_dim = rhs_samples.var(axis=0, ddof=1).mean(axis=0)
    top, bottom = float(var_by_dim.max()), float(var_by_dim.min())
    dim_ratio = 1.0 if top == 0.0 else (None if bottom == 0.0 else top / bottom)

    rhs = bias_sq + variance_term
    return BVReport(
        n=n, d=d, w=w, trials=trials,
        bias_sq=bias_sq, variance_term=variance_term,
        mse=mse, mse_stderr=mse_stderr, rhs_stderr=rhs_stderr,
        residual=mse - rhs,
        combined_stderr=math.sqrt(mse_stderr**2 + rhs_stderr**2),
        dim_variance_ratio=dim_ratio,
    )


def fusion_bv_cost(n: int, w: int, d: int, trials: int) -> tuple[int, int]:
    """Estimated (bytes, entries) of ``fusion_bv_decompose`` on n x d float64
    values V: about sixteen V-sized arrays (the values, reference outputs,
    gates and biases), the right-hand batch twice (the batch and its
    variance's copy), the two d x d float64 gate matrices with a finite
    check and about eight arrays of a chunk of samples (at least
    MC_CHUNK_BYTES); n w d gathered values a sample, about n w (2d + 4)
    entries a sample and 4 n d^2 flops of gate products."""
    sample_bytes, _, n_rhs, _ = _bv_plan(n, w, d, trials)
    held = (2 * n_rhs + 16) * n * d * 8 + 17 * d * d
    return (held + 8 * max(MC_CHUNK_BYTES, sample_bytes),
            trials * n * w * (2 * d + 4) + 4 * n * d * d)
