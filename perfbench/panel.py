"""Seeded panel generator for the panel_lasso workload.

The panels come from this module's own Euler loop, not from
netsde.simulate, so that a change to the package's simulator can never
change the inputs of the panel workload: that workload measures the
analyst's path (ingest, then lasso) and bypasses simulation entirely.

Each panel is a CSV with a time column, one column per node of the true
graph and one decoy series in which about 1% of the values are blank.
The decoy makes netsde.ingest.complete_cases do real work: it has to find
and drop that series before the path can be built, and the benchmark
checks that it dropped exactly the decoy.
"""
from __future__ import annotations

import numpy as np

DECOY_NAME = "decoy"
DECOY_MISSING_SHARE = 0.01


def euler_panels(adjacency: np.ndarray, seed: int, n_panels: int,
                 horizon: float, delta: float, mean_reversion: float,
                 coupling: float, noise_scale: float, clip: float) -> np.ndarray:
    """Simulate n_panels independent paths of the linear network model.

    dx_i = (-mu x_i + c sum_j A_ij x_j) dt + alpha s(x_i) dW_i with the
    tanh-clipped shape s(x) = clip * tanh(sqrt(1 + x^2) / clip), started at
    0.  The Euler step is the observation spacing delta itself: the
    panels stand in for data an analyst was handed, so they need not
    resolve the process more finely than it is observed, and a finer grid
    would make the set-up several times slower.  Returns an array of shape
    (n_panels, rows, d) with rows = round(horizon / delta) + 1.
    """
    a = np.asarray(adjacency, dtype=float)
    d = a.shape[0]
    n = int(round(horizon / delta))
    step_matrix = (np.eye(d) + delta * (coupling * a - mean_reversion * np.eye(d))).T
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.zeros((n_panels, d))
    shape = np.empty_like(x)
    rows = np.empty((n + 1, n_panels, d))
    rows[0] = x
    noise = rng.standard_normal((n, n_panels, d))
    noise *= noise_scale * np.sqrt(delta)
    for k in range(n):
        np.multiply(x, x, out=shape)
        shape += 1.0
        np.sqrt(shape, out=shape)
        shape *= 1.0 / clip
        np.tanh(shape, out=shape)
        shape *= clip
        shape *= noise[k]
        x = x @ step_matrix
        x += shape
        rows[k + 1] = x
    if not np.all(np.isfinite(rows)):
        raise RuntimeError("panel generator left the finite range")
    return np.ascontiguousarray(rows.transpose(1, 0, 2))


def panel_csv(values: np.ndarray, delta: float, seed: int) -> str:
    """CSV text for one panel: nodes as s00..s{d-1}, plus the decoy series.

    The decoy's column position and its missing entries are drawn from
    `seed`; the node columns keep their order, so after the decoy is
    dropped column j of the path is node j of the true graph.
    """
    rows, d = values.shape
    rng = np.random.Generator(np.random.PCG64(seed))
    decoy = np.cumsum(rng.standard_normal(rows)) * np.sqrt(delta)
    decoy[rng.random(rows) < DECOY_MISSING_SHARE] = np.nan
    decoy[rng.integers(rows)] = np.nan  # never a complete decoy
    position = int(rng.integers(d + 1))
    names = [f"s{j:02d}" for j in range(d)]
    names.insert(position, DECOY_NAME)
    table = np.insert(values, position, decoy, axis=1)
    table = np.column_stack([np.arange(rows) * delta, table])
    # 17 significant digits round-trip every double, so the parser reads
    # back exactly the simulated numbers; NaN cells become blanks, the
    # usual look of a gap in a messy panel
    fmt = ",".join(["%.17g"] * table.shape[1])
    body = "\n".join(fmt % tuple(row) for row in table.tolist())
    return "t," + ",".join(names) + "\n" + body.replace("nan", "") + "\n"
