"""Seeded input generators for the three workloads.

Every input is a pure function of the seed. Shapes are fixed per workload
(block-size multisets are shuffled, never resampled), so every seed asks for
the same amount of work and only the values and orderings change. Every
generated input is valid for any seed: block sizes are even wherever the
design treats p = 0.5, every blocked variance estimate has at least two units
per arm, and every enumeration stays far below the library's caps.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Table:
    """A generated outcome schedule, kept as arrays for the independent checks."""

    labels: np.ndarray  # dense block labels 1..K in row order
    y_t: np.ndarray
    y_c: np.ndarray


def blocked_table(rng: np.random.Generator, sizes) -> Table:
    """Blocks with their own control mean and effect, rows grouped by block."""
    sizes = np.asarray(sizes, dtype=int)
    k = len(sizes)
    labels = np.repeat(np.arange(1, k + 1), sizes)
    mu_c = rng.normal(0.0, 2.0, size=k)[labels - 1]
    tau = rng.normal(1.0, 1.0, size=k)[labels - 1]
    y_c = mu_c + rng.normal(0.0, 1.0, size=len(labels))
    y_t = y_c + tau + rng.normal(0.0, 0.5, size=len(labels))
    return Table(labels=labels, y_t=y_t, y_c=y_c)


def write_table_csv(table: Table, path: Path) -> Path:
    """Table CSV ``unit_id,block,y_t,y_c``; floats are written exactly (repr)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit_id", "block", "y_t", "y_c"])
        for i, (b, yt, yc) in enumerate(zip(table.labels.tolist(), table.y_t.tolist(), table.y_c.tolist())):
            writer.writerow([f"u{i + 1}", f"b{b}", repr(yt), repr(yc)])
    return path


def write_design_json(n_tk, path: Path) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n_tk": [int(m) for m in n_tk]}, fh)
    return path


def shuffled_sizes(rng: np.random.Generator, pattern, copies: int) -> np.ndarray:
    return rng.permutation(np.tile(np.asarray(pattern, dtype=int), copies))


# ---------------------------------------------------------------------------
# cli_mc


def write_strata_csv(rng: np.random.Generator, num_strata: int, path: Path) -> Path:
    """Strata CSV with equal weights ``1/num_strata`` (exact for a power of two)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stratum", "weight", "mu_t", "mu_c", "sigma2_t", "sigma2_c", "sigma2_tc"])
        for j in range(num_strata):
            mu_c = rng.normal(0.0, 2.0)
            mu_t = mu_c + rng.normal(1.0, 1.0)
            s2_t, s2_c = rng.uniform(0.5, 2.0, size=2).tolist()
            row = [1.0 / num_strata, mu_t, mu_c, s2_t, s2_c, 0.25]
            writer.writerow([f"s{j + 1}"] + [repr(float(v)) for v in row])
    return path


def write_replay_csv(rng: np.random.Generator, sizes, path: Path) -> Path:
    """Replay CSV ``unit_id,block,z,baseline,y``; half of every block treated."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit_id", "block", "z", "baseline", "y"])
        unit = 0
        for k, size in enumerate(sizes, start=1):
            arms = rng.permutation(["t"] * (size // 2) + ["c"] * (size - size // 2))
            shift = rng.normal(0.0, 2.0)
            for arm in arms:
                baseline = shift + rng.normal()
                y = baseline + rng.normal(0.0, 0.7)
                unit += 1
                writer.writerow([f"u{unit}", f"b{k}", str(arm), repr(float(baseline)), repr(float(y))])
    return path
