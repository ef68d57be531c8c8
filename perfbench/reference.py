"""Reference computations the benchmark checks the program against.

They are written from the definitions in the repository README, not from the
program's code, and use none of its functions:

* window on permuted slots (one-sided: slot offset 0..w-1), causality on
  original positions, the query always sees itself;
* rotary embeddings on original positions, pair k of a row at position p
  rotated by p * base^(-2k/d_h);
* plain causal sliding window on the other path;
* independent sigmoid gates, y = s(y_sa W_sa^T) y_sa + s(y_swa W_swa^T) y_swa.

Only sampled rows are recomputed, one query at a time, so the check costs
O(rows * n * d) rather than a second forward pass.
"""

from __future__ import annotations

import math

import numpy as np

TOLERANCE = 1e-12


def _rope_rows(x: np.ndarray, positions: np.ndarray, base: float) -> np.ndarray:
    """Rotate consecutive coordinate pairs as complex numbers."""
    d_h = x.shape[1]
    freq = base ** (-np.arange(0, d_h, 2, dtype=np.float64) / d_h)
    z = x[:, 0::2] + 1j * x[:, 1::2]
    z = z * np.exp(1j * positions[:, None].astype(np.float64) * freq[None, :])
    out = np.empty_like(x)
    out[:, 0::2] = z.real
    out[:, 1::2] = z.imag
    return out


def _attend(q_row: np.ndarray, keys: np.ndarray, values: np.ndarray, scale: float) -> np.ndarray:
    scores = keys @ q_row * scale
    weights = np.exp(scores - scores.max())
    return (weights / weights.sum()) @ values


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def dual_path_rows(x, projections, gates, h: int, w: int, rope_base: float,
                   slot_of_token: np.ndarray, rows) -> np.ndarray:
    """Rows ``rows`` of the dual-path sublayer output for input ``x``.

    ``slot_of_token[t]`` is the permuted slot token t moved to, as drawn by the
    layer under test.
    """
    wq, wk, wv = projections
    w_swa, w_sa = gates
    n, d = x.shape
    d_h = d // h
    scale = 1.0 / math.sqrt(d_h)
    positions = np.arange(n)
    q_all = x @ wq
    k_all = x @ wk
    v_all = x @ wv
    out = np.empty((len(rows), d))
    for r, i in enumerate(rows):
        swa_keys = np.arange(max(0, i - w + 1), i + 1)
        earlier = np.arange(i + 1)
        offset = slot_of_token[i] - slot_of_token[earlier]
        sa_keys = earlier[(offset >= 0) & (offset <= w - 1)]
        y_swa = np.empty(d)
        y_sa = np.empty(d)
        for head in range(h):
            cols = slice(head * d_h, (head + 1) * d_h)
            q_i = _rope_rows(q_all[i:i + 1, cols], positions[i:i + 1], rope_base)[0]
            for keys, y in ((swa_keys, y_swa), (sa_keys, y_sa)):
                k = _rope_rows(k_all[keys, cols], positions[keys], rope_base)
                y[cols] = _attend(q_i, k, v_all[keys, cols], scale)
        out[r] = _sigmoid(w_sa @ y_sa) * y_sa + _sigmoid(w_swa @ y_swa) * y_swa
    return out


# Closed forms the verify workload checks on top of the program's own verdicts.

def exhaustive_probability(n: int, w: int) -> float:
    """A fixed token pair shares a window for (w-1)/(n-1) of all orders."""
    return (w - 1) / (n - 1)


def ceil_log(n: int, k: int) -> int:
    """Smallest l with k**l >= n, in integers."""
    depth = 0
    while k ** depth < n:
        depth += 1
    return depth


def verify_closed_forms(check: str, measured: dict) -> list[str]:
    """Mismatches between a verify check's measured values and closed forms."""
    problems = []
    if check == "connprob" and measured["exhaustive_n6_w3"] != exhaustive_probability(6, 3):
        problems.append(f"exhaustive n=6 w=3 gave {measured['exhaustive_n6_w3']!r}, not 2/5")
    if check == "connectome":
        for key, n, k in (("depth_130000_21", 130000, 21), ("depth_2048_32", 2048, 32)):
            if measured[key] != ceil_log(n, k):
                problems.append(f"{key} is {measured[key]}, ceil-log gives {ceil_log(n, k)}")
    if check == "equivalence" and not measured["max_abs_diff"] <= TOLERANCE:
        problems.append(f"equivalence max_abs_diff {measured['max_abs_diff']!r} > {TOLERANCE}")
    return problems
