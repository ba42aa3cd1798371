"""Independent reference values for the output checks.

Everything here is computed from the generated arrays with ``np.bincount``;
nothing calls blockcalc, so a check compares the library against arithmetic
it does not share. Notation follows ``blockcalc.variance_theory``: ``S2`` are
sample variances with the ``n - 1`` divisor, per block ``k`` or pooled.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import Table


class Stats:
    """Per-block sizes, arm means and sample variances of one table."""

    def __init__(self, table: Table):
        self.labels = table.labels - 1
        self.n_k = np.bincount(self.labels).astype(float)
        self.n = int(self.n_k.sum())
        self.y = {"t": table.y_t, "c": table.y_c, "tc": table.y_t - table.y_c}
        self.mean_k, self.s2_k, self.mean, self.s2 = {}, {}, {}, {}
        for arm, values in self.y.items():
            mean_k = np.bincount(self.labels, values) / self.n_k
            self.mean_k[arm] = mean_k
            self.s2_k[arm] = np.bincount(self.labels, (values - mean_k[self.labels]) ** 2) / (self.n_k - 1)
            self.mean[arm] = float(values.mean())
            self.s2[arm] = float(np.sum((values - values.mean()) ** 2) / (self.n - 1))


def neyman_cr(st: Stats, n_t: int) -> float:
    return st.s2["t"] / n_t + st.s2["c"] / (st.n - n_t) - st.s2["tc"] / st.n


def block_variances(st: Stats, n_tk) -> np.ndarray:
    n_tk = np.asarray(n_tk, dtype=float)
    return st.s2_k["t"] / n_tk + st.s2_k["c"] / (st.n_k - n_tk) - st.s2_k["tc"] / st.n_k


def neyman_blocked(st: Stats, n_tk) -> float:
    return float(np.sum((st.n_k / st.n) ** 2 * block_variances(st, n_tk)))


def varest_cr_mean(st: Stats, n_t: int) -> float:
    """Expectation of ``s2_t/n_t + s2_c/n_c`` under complete randomization."""
    return st.s2["t"] / n_t + st.s2["c"] / (st.n - n_t)


def varest_blocked_mean(st: Stats, n_tk) -> float:
    n_tk = np.asarray(n_tk, dtype=float)
    return float(np.sum((st.n_k / st.n) ** 2 * (st.s2_k["t"] / n_tk + st.s2_k["c"] / (st.n_k - n_tk))))


def count_cr(n: int, n_t: int) -> int:
    return math.comb(n, n_t)


def count_blocked(sizes, n_tk) -> int:
    return math.prod(math.comb(int(s), int(m)) for s, m in zip(sizes, n_tk))


def var_diff_terms(st: Stats, p: float) -> tuple[float, float]:
    """Between and within terms of the finite-sample variance difference."""
    w = st.n_k / st.n
    composite = math.sqrt(p / (1 - p)) * st.mean_k["c"] + math.sqrt((1 - p) / p) * st.mean_k["t"]
    between = float(w @ (composite - w @ composite) ** 2) / (st.n - 1)
    within = float(np.sum(w * ((st.n - st.n_k) / st.n) * block_variances(st, p * st.n_k))) / (st.n - 1)
    return between, within


def cr_varest_bias(st: Stats, p: float) -> float:
    n = st.n
    n_t = p * n
    n_c = n - n_t
    w = st.n_k / n
    return float(
        np.sum(w * (st.mean_k["c"] - st.mean["c"]) ** 2) / (n_c - 1)
        + np.sum(w * (st.mean_k["t"] - st.mean["t"]) ** 2) / (n_t - 1)
        - np.sum((n - st.n_k) * st.s2_k["c"]) / (n**2 * (n_c - 1))
        - np.sum((n - st.n_k) * st.s2_k["t"]) / (n**2 * (n_t - 1))
        + np.sum(st.n_k * st.s2_k["tc"]) / n**2
    )


def expected_s2(st: Stats, arm: str, p: float) -> float:
    n = st.n
    n_z = p * n if arm == "t" else (1 - p) * n
    p_z = n_z / n
    n_zk = p_z * st.n_k
    return float(
        np.sum((st.n_k / n - p_z * (n - st.n_k) / (n * (n_z - 1))) * st.s2_k[arm])
        + np.sum(n_zk * (st.mean_k[arm] - st.mean[arm]) ** 2) / (n_z - 1)
    )


def pooled_decomposition(st: Stats, arm: str) -> tuple[float, float]:
    n = st.n
    within = float(np.sum((st.n_k - 1) / (n - 1) * st.s2_k[arm]))
    between = float(np.sum(st.n_k / (n - 1) * (st.mean_k[arm] - st.mean[arm]) ** 2))
    return within, between


def r2_blocks(st: Stats) -> float:
    """Between share of the total sum of squares of (y_c, y_t) in 2K groups."""
    stacked = np.concatenate([st.y["c"], st.y["t"]])
    grand = stacked.mean()
    n_k = st.n_k
    between = float(np.sum(n_k * (st.mean_k["c"] - grand) ** 2) + np.sum(n_k * (st.mean_k["t"] - grand) ** 2))
    return between / float(np.sum((stacked - grand) ** 2))
