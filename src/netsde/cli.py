"""Command-line front end.

Every subcommand reads a JSON config, runs one module pipeline, writes its
artifacts into --out-dir next to a manifest.json recording the command, a
digest of the effective config, the seed, the library version and the
output list; the commands that read or write CSV (simulate, fit, lasso,
ingest) also record csv_s, their seconds in the CSV codec.  Identical
(config, seed) pairs produce byte-identical numeric outputs.

Every command reads its settings through model.setting before its first
piece of work.  Exit codes: 0 on success; 2 on a usage error (unknown
flags, a file that cannot be read or written) or a ConfigFieldError, one
line naming the setting's dotted path from the config root; 1 on a
domain error (bad data, singular fits, exploding simulations, unstable
models, values a model, simulator or panel rejects).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .estimate import EstimationError, fit_qmle, fit_result_to_dict
from .experiments import (_POSITIVE, StudyError, _communities,
                          _selection_settings, _simulation_settings,
                          cluster_lambda_curve, label_agreement, run_study,
                          select_graph, study_graph)
from .graph import ergodicity_margin, to_dot, to_edge_list_text, to_json
from .ingest import complete_cases, load_panel_csv, to_sample_path
from .lasso import (LassoError, graph_from_adjacency, lasso_path_to_csv,
                    two_step_refit)
from .model import (ConfigFieldError, params_from_config, setting,
                    spec_from_config)
from .simulate import SimulationError, read_csv, simulate_path, write_csv

USAGE_ERROR = 2
DOMAIN_ERROR = 1

# graph, model, panel and linear algebra errors are ValueErrors
_DOMAIN_ERRORS = (SimulationError, EstimationError, LassoError, StudyError,
                  ValueError)


class _CsvClock:
    """Seconds one command spends parsing and formatting CSV."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def __call__(self, fn, *args):
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds += time.perf_counter() - started
            self.calls += 1


def _apply_overrides(cfg: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigFieldError(item, "override must look like key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigFieldError(key, f"{part!r} is not an object")
        node[parts[-1]] = value
    return cfg


def _write_text(out_dir: str, name: str, text: str) -> str:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommand pipelines; each returns a list of output file names


def _cmd_graph_gen(cfg: dict, out_dir: str, csv: _CsvClock) -> list[str]:
    mean_reversion = setting(cfg, "mean_reversion", float, None)
    coupling = setting(cfg, "coupling", float, None)
    g, info = study_graph(cfg, "graph.")
    outputs = [
        _write_text(out_dir, "graph.json", to_json(g) + "\n"),
        _write_text(out_dir, "edges.txt", to_edge_list_text(g)),
        _write_text(out_dir, "graph.dot", to_dot(g)),
    ]
    if mean_reversion is not None and coupling is not None:
        mu = np.full(g.d, mean_reversion)
        b = coupling * g.adjacency()
        info["singular_margin"] = ergodicity_margin(mu, b, mode="singular")
        info["rowsum_margin"] = ergodicity_margin(mu, b, mode="rowsum")
    outputs.append(_write_text(out_dir, "graph_info.json", _dump_json(info)))
    return outputs


def _cmd_simulate(cfg: dict, out_dir: str, csv: _CsvClock) -> list[str]:
    spec = spec_from_config(cfg, "model.")
    theta = params_from_config(cfg, at="params.")
    delta = setting(cfg, "delta", float, check=_POSITIVE)
    n = setting(cfg, "n", int, check=(lambda v: v >= 0, "be non-negative"))
    sim = _simulation_settings(cfg, spec.d)
    g, _ = study_graph(cfg, "graph.")
    path = simulate_path(spec, g, theta, delta=delta, n=n, **sim)
    csv(write_csv, path, os.path.join(out_dir, "path.csv"))
    return ["path.csv"]


def _cmd_fit(cfg: dict, out_dir: str, csv: _CsvClock) -> list[str]:
    # closed_form is the two-stage fit's older name
    modes = {"closed_form": "adaptive", "adaptive": "adaptive", "joint": "joint"}
    mode = modes[setting(cfg, "method", str, "closed_form", allowed=modes)]
    augmented = setting(cfg, "augmented", bool, False)
    # absent follows the model's drift
    intercepts = setting(cfg, "intercepts", bool, None)
    spec = spec_from_config(cfg, "model.")
    path_csv = setting(cfg, "path_csv", str)
    g, _ = study_graph(cfg, "graph.")
    path = csv(read_csv, path_csv)
    fit = fit_qmle(path, spec, g, mode=mode, augmented=augmented,
                   intercepts=intercepts)
    return [_write_text(out_dir, "fit.json", _dump_json(fit_result_to_dict(fit)))]


def _cmd_lasso(cfg: dict, out_dir: str, csv: _CsvClock) -> list[str]:
    pen, refit = _selection_settings(cfg)
    cluster = setting(cfg, "cluster", bool, False)
    spec = spec_from_config(cfg, "model.")
    path = csv(read_csv, setting(cfg, "path_csv", str))
    a_hat, lam, lpath, pilot, mom = select_graph(path, spec, pen)

    selection = {
        "lambda_max": lpath.lambda_max,
        "selected_lambda": lam,
        "rule": pen["rule"],
        "adjacency": a_hat.tolist(),
        "edges": [list(e) for e in graph_from_adjacency(a_hat).edges],
        "active_counts": lpath.active_counts.tolist(),
        "lambdas": lpath.lambdas.tolist(),
        "validation_loss": None if lpath.validation_loss is None
            else np.asarray(lpath.validation_loss).tolist(),
        "validation_se": None if lpath.validation_se is None
            else np.asarray(lpath.validation_se).tolist(),
        "notes": lpath.notes,
    }
    outputs = [
        _write_text(out_dir, "selection.json", _dump_json(selection)),
        _write_text(out_dir, "lasso_path.csv",
                    csv(lasso_path_to_csv, lpath, pilot.layout.coord_names)),
    ]
    if refit:
        outputs.append(_write_text(out_dir, "refit.json", _dump_json(
            fit_result_to_dict(two_step_refit(spec, a_hat, mom, pilot.layout,
                                              path.delta)))))
    if cluster:
        outputs.append(_write_text(out_dir, "communities.json",
                                   _dump_json(_communities(a_hat))))
        outputs.append(_write_text(out_dir, "cluster_curve.json",
                                   _dump_json(cluster_lambda_curve(lpath))))
    return outputs


def _cmd_bench(cfg: dict, out_dir: str, csv: _CsvClock) -> list[str]:
    report = run_study(cfg)
    return [
        _write_text(out_dir, "report.json", report.to_json() + "\n"),
        _write_text(out_dir, "report_rows.csv", report.rows_csv()),
    ]


def _cmd_ingest(cfg: dict, out_dir: str, csv: _CsvClock) -> list[str]:
    panel_csv = setting(cfg, "panel_csv", str)
    # null or false keeps every series and row
    cc = setting(cfg, "complete_cases", default="series",
                 allowed=("series", "rows", None, False))
    transform = setting(cfg, "transform", str, "levels",
                        allowed=("levels", "log", "diff_log"))
    delta = setting(cfg, "delta", float, None)
    panel = csv(load_panel_csv, panel_csv)
    n_missing = int(panel.missing_mask().sum())
    if cc:
        panel = complete_cases(panel, axis=cc)
    path = to_sample_path(panel, transform=transform, delta=delta)
    csv(write_csv, path, os.path.join(out_dir, "path.csv"))
    info = {
        "n_rows": panel.n_rows,
        "n_series": panel.n_series,
        "series_names": list(panel.series_names),
        "dropped_series": list(panel.dropped_series),
        "n_missing_values": n_missing,
        "inferred_delta": panel.inferred_delta,
        "transform": transform,
        "path_rows": path.data.shape[0],
    }
    return ["path.csv", _write_text(out_dir, "ingest.json", _dump_json(info))]


def _cmd_communities(cfg: dict, out_dir: str, csv: _CsvClock) -> list[str]:
    a = setting(cfg, "adjacency", [[float]], None)
    resolution = setting(cfg, "resolution", float, 1.0)
    true_labels = setting(cfg, "true_labels", [float], None)
    if a is None:
        a = study_graph(cfg, "graph.")[0].adjacency()
    out = _communities(np.asarray(a, dtype=float), resolution)
    if true_labels is not None:
        out["agreement"] = label_agreement(true_labels, out["labels"])
    return [_write_text(out_dir, "communities.json", _dump_json(out))]


_COMMANDS = {
    "graph-gen": _cmd_graph_gen,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "lasso": _cmd_lasso,
    "bench": _cmd_bench,
    "ingest": _cmd_ingest,
    "communities": _cmd_communities,
}


def run(command: str, config_path: str, overrides=None, out_dir: str = ".",
        seed: int | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    if command not in _COMMANDS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return USAGE_ERROR
    started = time.monotonic()
    csv = _CsvClock()
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigFieldError("<root>", "config must be a JSON object")
        cfg = _apply_overrides(cfg, overrides)
        if seed is not None:
            cfg["seed"] = int(seed)
        os.makedirs(out_dir, exist_ok=True)
        outputs = _COMMANDS[command](cfg, out_dir, csv)
    except (OSError, json.JSONDecodeError, ConfigFieldError) as exc:
        # a file that cannot be read or written, or a bad setting
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR

    manifest = {
        "command": command,
        "config_digest": hashlib.sha256(json.dumps(
            cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest(),
        "seed": setting(cfg, "seed", default=None),
        "version": __version__,
        "wall_clock_s": round(time.monotonic() - started, 6),
        "outputs": outputs,
    }
    if csv.calls:
        manifest["csv_s"] = round(csv.seconds, 6)
    _write_text(out_dir, "manifest.json", _dump_json(manifest))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsde",
        description="Simulate networked diffusions, estimate their parameters "
                    "and recover their graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("graph-gen", "generate a graph and write its artifacts"),
        ("simulate", "simulate one sample path to CSV"),
        ("fit", "fit a model to a path CSV"),
        ("lasso", "estimate the graph of a path by penalized selection"),
        ("bench", "run a simulation study from a config"),
        ("ingest", "convert a panel CSV into a path CSV"),
        ("communities", "cluster a graph's nodes"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out-dir", default=".", help="artifact directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dotted-path config override, value parsed as JSON")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return run(args.command, args.config, overrides=args.overrides,
               out_dir=args.out_dir, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
