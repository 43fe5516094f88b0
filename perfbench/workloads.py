"""The benchmark's workloads: set-up, one timed call, and its checks.

Each workload is a closed loop of one sequential client: run.py calls
op() and starts the next call only when the previous one has returned.
One call runs a batch of `batch_size` ops (a study call covers several
seeds or replications at once, because that is how the package runs
them).  Why each workload exists:

- sbm_recovery: configs/recovery_sbm.json through recovery_study with two
  seeds per call.  A narrow ensemble keeps the Euler loop in its
  per-step-overhead regime, and the d=21 lambda path plus validation make
  up the rest, so simulator work shows first here and lasso work second.
  BENCHMARK.json does not gate it (see perfbench/README.md): its single
  30-s call per run is too unsteady on a small shared host.
- errbound_d16: configs/bench_error_bound_d16.json through
  error_bound_study at its first horizon (T=96) with all 100 replications.
  The wide ensemble puts the simulator in its array-bound regime and the
  100 closed-form fits run with no lasso at all: the bypass workload for
  every lasso change.
- panel_lasso_d40: the analyst's path.  Seeded panels of 40 series from
  perfbench.panel go through `netsde ingest` and `netsde lasso` (half_se,
  holdout 0.5, refit and clustering on).  It bypasses netsde.simulate, and
  at p = 1640 parameters the lasso layer dominates.  d=80 is left out: its
  dense 6480 x 6480 curvature is 336 MB per copy in the current design.
"""
from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# netsde functions are looked up on their modules at call time, so that
# the traced run's wrappers see the benchmark's own calls too
from netsde import cli, experiments

from .panel import DECOY_NAME, euler_panels, panel_csv


@dataclass
class Checked:
    """Outcome of one call: ops attempted and failed, and per-op scores."""

    ops: int
    failed: int
    scores: dict[str, list[float]] = field(default_factory=dict)


def call_seed(seed: int, index: int) -> int:
    """Seed of call `index` in a run with benchmark seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _read_config(root: Path, name: str, overrides: dict) -> dict:
    with open(root / "configs" / name, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg.update(overrides)
    return cfg


def _unit_interval(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


class SbmRecovery:
    name = "sbm_recovery"
    warm_up = {"graph": {"kind": "sbm", "block_sizes": [3, 3], "p_in": 0.9,
                         "p_ex": 0.05, "seed": 0},
               "horizon": 5.0, "n_seeds": 1}

    def __init__(self, root: Path, workdir: Path, overrides: dict | None = None):
        # threads=1: one sequential client, no worker pool inside the op
        self.config = _read_config(root, "recovery_sbm.json",
                                   {"n_seeds": 2, "threads": 1,
                                    **(overrides or {})})
        self.batch_size = int(self.config["n_seeds"])

    def setup(self, seed: int) -> None:
        self.seed = seed
        g, _info = experiments.study_graph(self.config["graph"])
        self.n_true = g.n_edges
        experiments.recovery_study({**self.config, **self.warm_up})

    def op(self, index: int):
        return experiments.recovery_study(
            {**self.config, "seed": call_seed(self.seed, index)})

    def check(self, report) -> Checked:
        """A seed fails when its row is missing, its edge counts disagree
        with the true graph or a score lies outside [0, 1]."""
        scores = {"edge_precision": [], "edge_recall": [],
                  "community_agreement": []}
        failed = self.batch_size - len(report.rows)
        for row in report.rows:
            counts_agree = (row["n_selected"] ==
                            self.n_true - row["n_missing"] + row["n_extra"])
            ok = (counts_agree and _unit_interval(row["precision"])
                  and _unit_interval(row["recall"])
                  and _unit_interval(row["agreement"]))
            if not ok:
                failed += 1
                continue
            scores["edge_precision"].append(row["precision"])
            scores["edge_recall"].append(row["recall"])
            scores["community_agreement"].append(row["agreement"])
        return Checked(self.batch_size, failed, scores)


class ErrorBound:
    name = "errbound_d16"
    # an explicit ring, so the set-up's graph search is the study's alone
    warm_up = {"graph": {"kind": "edges", "d": 4,
                         "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
               "horizons": [2.0], "n_reps": 4}

    def __init__(self, root: Path, workdir: Path, overrides: dict | None = None):
        self.config = _read_config(root, "bench_error_bound_d16.json",
                                   {"horizons": [96.0], **(overrides or {})})
        self.reps = int(self.config["n_reps"])
        self.batch_size = self.reps * len(self.config["horizons"])

    def setup(self, seed: int) -> None:
        self.seed = seed
        experiments.study_graph(self.config["graph"])
        experiments.error_bound_study({**self.config, **self.warm_up})

    def op(self, index: int):
        return experiments.error_bound_study({**self.config,
                                  "seed": call_seed(self.seed, index)})

    def check(self, report) -> Checked:
        """A replication fails with its cell when the cell's mean error is
        not finite or lies above the bound K * epsilon."""
        ratios = []
        failed = self.batch_size - self.reps * len(report.rows)
        for row in report.rows:
            ratio = row["mean_error"] / row["bound"]
            if not math.isfinite(ratio) or ratio > 1.0:
                failed += self.reps
            ratios.append(ratio)
        # the fits run on the known graph, so each replication's estimated
        # edge set is the true one: precision and recall are 1
        ones = [1.0] * (self.batch_size - failed)
        return Checked(self.batch_size, failed,
                       {"error_over_bound": ratios, "edge_precision": ones,
                        "edge_recall": ones})


class PanelLasso:
    name = "panel_lasso_d40"
    model = {"d": 40, "n_edges": 80, "horizon": 200.0, "delta": 0.01,
             "mean_reversion": 7.0, "coupling": 2.0, "noise_scale": 2.0,
             "clip": 100.0, "n_panels": 3}
    warm_up = {"d": 4, "n_edges": 4, "horizon": 20.0, "n_panels": 1}
    batch_size = 1

    def __init__(self, root: Path, workdir: Path, overrides: dict | None = None):
        self.workdir = workdir
        self.params = {**self.model, **(overrides or {})}

    def _write_inputs(self, params: dict, seed: int, tag: str):
        """Panels plus ingest and lasso configs; returns truth and configs."""
        g, _used, _margin = experiments.find_er_graph_with_edges(
            params["d"], params["n_edges"],
            mean_reversion=params["mean_reversion"], coupling=params["coupling"])
        a_true = g.adjacency().astype(int)
        panels = euler_panels(
            a_true, seed, params["n_panels"], params["horizon"], params["delta"],
            params["mean_reversion"], params["coupling"], params["noise_scale"],
            params["clip"])
        configs = []
        for k, values in enumerate(panels):
            base = self.workdir / f"{tag}{k}"
            base.mkdir(parents=True, exist_ok=True)
            csv_seed = call_seed(seed, k)
            (base / "panel.csv").write_text(
                panel_csv(values, params["delta"], csv_seed), encoding="utf-8")
            ingest = {"panel_csv": str(base / "panel.csv"),
                      "transform": "levels", "complete_cases": "series"}
            lasso = {"path_csv": str(base / "ingest" / "path.csv"),
                     "model": {"d": params["d"], "drift": {"family": "linear"},
                               "diffusion": {"family": "tanh_clipped",
                                             "clip": params["clip"]}},
                     "penalty": {"rule": "half_se", "holdout": 0.5,
                                 "weight_exponent": 1.0},
                     "refit": True, "cluster": True}
            for name, cfg in (("ingest.json", ingest), ("lasso.json", lasso)):
                (base / name).write_text(json.dumps(cfg), encoding="utf-8")
            configs.append(base)
        return a_true, configs

    def setup(self, seed: int) -> None:
        self.a_true, self.inputs = self._write_inputs(self.params, seed, "panel")
        self.scored: set[Path] = set()
        self.labels_true = experiments.detect_communities(self.a_true)
        _a, warm = self._write_inputs({**self.params, **self.warm_up},
                                      seed, "warm")
        base, rc_ingest, rc_lasso = self._run_cli(warm[0])
        self._clean(base)
        if rc_ingest != 0 or rc_lasso != 0:
            raise RuntimeError(
                f"panel warm-up failed: exit codes {rc_ingest}, {rc_lasso}")

    @staticmethod
    def _clean(base: Path) -> None:
        for out in ("ingest", "lasso"):
            shutil.rmtree(base / out, ignore_errors=True)

    @staticmethod
    def _run_cli(base: Path):
        rc_ingest = cli.run("ingest", str(base / "ingest.json"),
                            out_dir=str(base / "ingest"))
        if rc_ingest != 0:
            return base, rc_ingest, None
        rc_lasso = cli.run("lasso", str(base / "lasso.json"),
                           out_dir=str(base / "lasso"))
        return base, rc_ingest, rc_lasso

    def op(self, index: int):
        return self._run_cli(self.inputs[index % len(self.inputs)])

    def check(self, outcome) -> Checked:
        """The op fails on a nonzero exit, when ingest kept the decoy, when
        the adjacency is not 0/1 with a zero diagonal, when the refit has
        a non-finite value or when the labels do not cover every node."""
        base = outcome[0]
        try:
            return self._check(*outcome)
        finally:
            self._clean(base)

    def _check(self, base: Path, rc_ingest: int, rc_lasso) -> Checked:
        failed = Checked(1, 1)
        if rc_ingest != 0 or rc_lasso != 0:
            return failed
        d = self.a_true.shape[0]
        ingest = json.loads((base / "ingest" / "ingest.json").read_text())
        selection = json.loads((base / "lasso" / "selection.json").read_text())
        refit = json.loads((base / "lasso" / "refit.json").read_text())
        labels = json.loads(
            (base / "lasso" / "communities.json").read_text())["labels"]
        a_hat = np.asarray(selection["adjacency"])
        if (ingest["dropped_series"] != [DECOY_NAME] or ingest["n_series"] != d
                or a_hat.shape != (d, d) or not np.isin(a_hat, (0, 1)).all()
                or np.any(np.diag(a_hat) != 0)
                or not all(isinstance(v, float) and math.isfinite(v)
                           for v in refit["values"])
                or len(labels) != d):
            return failed
        if base in self.scored:
            # a panel's scores count once, so that they do not depend on
            # how many times a run cycled through the panels
            return Checked(1, 0)
        self.scored.add(base)
        tp = int(np.sum((a_hat == 1) & (self.a_true == 1)))
        n_hat = int(a_hat.sum())
        n_true = int(self.a_true.sum())
        return Checked(1, 0, {
            "edge_precision": [tp / n_hat if n_hat else 1.0],
            "edge_recall": [tp / n_true if n_true else 1.0],
            "community_agreement":
                [experiments.label_agreement(self.labels_true, labels)],
        })


WORKLOADS = {w.name: w for w in (SbmRecovery, ErrorBound, PanelLasso)}
