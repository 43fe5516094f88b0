"""Command-line front end.

Every subcommand reads a JSON config, runs one module pipeline, writes its
artifacts into --out-dir next to a manifest.json recording the command, a
digest of the effective config, the seed, the library version and the
output list; the commands that read or write CSV (simulate, fit, lasso,
ingest) also record csv_s, their seconds in the CSV codec.  Identical
(config, seed) pairs produce byte-identical numeric outputs.

Exit codes: 0 on success, 1 on a domain error (bad data, singular fits,
exploding simulations), 2 on a usage error (unknown flags, unreadable or
malformed config, missing config fields).
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
from .experiments import (StudyError, cluster_lambda_curve, detect_communities,
                          label_agreement, modularity, run_study, select_graph,
                          study_graph)
from .graph import (GraphError, ergodicity_margin, to_dot, to_edge_list_text,
                    to_json)
from .ingest import (IngestError, complete_cases, load_panel_csv,
                     to_sample_path)
from .lasso import LassoError, lasso_path_to_csv, two_step_refit
from .model import ModelError, params_from_config, spec_from_config
from .simulate import SimulationError, read_csv, simulate_path, write_csv

USAGE_ERROR = 2
DOMAIN_ERROR = 1

_DOMAIN_ERRORS = (GraphError, ModelError, SimulationError, EstimationError,
                  LassoError, StudyError, IngestError, ValueError,
                  np.linalg.LinAlgError)


class ConfigFieldError(Exception):
    """A required config field is missing or has the wrong shape."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config field {path!r}: {message}")
        self.path = path


def _require(cfg: dict, path: str):
    node = cfg
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(node, dict) or part not in node:
            raise ConfigFieldError(".".join(walked), "missing")
        node = node[part]
    return node


def _switch(cfg: dict, key: str, default: bool) -> bool:
    """cfg[key] (default when absent), which must be a JSON true or false:
    bool("false") is True, so a string would flip the switch on."""
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        raise ConfigFieldError(key, f"must be true or false, got {value!r}")
    return value


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
    g, info = study_graph(_require(cfg, "graph"))
    outputs = [
        _write_text(out_dir, "graph.json", to_json(g) + "\n"),
        _write_text(out_dir, "edges.txt", to_edge_list_text(g)),
        _write_text(out_dir, "graph.dot", to_dot(g)),
    ]
    if "mean_reversion" in cfg and "coupling" in cfg:
        mu = np.full(g.d, float(cfg["mean_reversion"]))
        b = float(cfg["coupling"]) * g.adjacency()
        info = dict(info)
        info["singular_margin"] = ergodicity_margin(mu, b, mode="singular")
        info["rowsum_margin"] = ergodicity_margin(mu, b, mode="rowsum")
    outputs.append(_write_text(out_dir, "graph_info.json", _dump_json(info)))
    return outputs


def _cmd_simulate(cfg: dict, out_dir: str, csv: _CsvClock) -> list[str]:
    spec = spec_from_config(_require(cfg, "model"))
    g, _ = study_graph(_require(cfg, "graph"))
    theta = params_from_config(_require(cfg, "params"))
    x0 = np.asarray(cfg.get("x0", np.zeros(spec.d)), dtype=float)
    path = simulate_path(
        spec, g, theta, x0,
        delta=float(_require(cfg, "delta")), n=int(_require(cfg, "n")),
        substeps=int(cfg.get("substeps", 10)), seed=int(cfg.get("seed", 0)),
        burn_in_steps=int(cfg.get("burn_in", 0)))
    csv(write_csv, path, os.path.join(out_dir, "path.csv"))
    return ["path.csv"]


def _cmd_fit(cfg: dict, out_dir: str, csv: _CsvClock) -> list[str]:
    path = csv(read_csv, str(_require(cfg, "path_csv")))
    spec = spec_from_config(_require(cfg, "model"))
    g, _ = study_graph(_require(cfg, "graph"))
    method = cfg.get("method", "closed_form")
    # closed_form is the two-stage fit's older name
    modes = {"closed_form": "adaptive", "adaptive": "adaptive", "joint": "joint"}
    if method not in modes:
        raise ConfigFieldError("method", f"unknown method {method!r}")
    augmented = _switch(cfg, "augmented", False)
    # absent follows the model's drift; present, it must be a boolean
    intercepts = _switch(cfg, "intercepts", False) if "intercepts" in cfg else None
    fit = fit_qmle(path, spec, g, mode=modes[method], augmented=augmented,
                   intercepts=intercepts)
    return [_write_text(out_dir, "fit.json", _dump_json(fit_result_to_dict(fit)))]


def _cmd_lasso(cfg: dict, out_dir: str, csv: _CsvClock) -> list[str]:
    refit, cluster = _switch(cfg, "refit", True), _switch(cfg, "cluster", False)
    path = csv(read_csv, str(_require(cfg, "path_csv")))
    spec = spec_from_config(_require(cfg, "model"))
    penalty = dict(cfg.get("penalty", {"rule": "half_se"}))
    a_hat, lam, lpath, pilot = select_graph(path, spec, penalty)

    edges = [[i, j] for i in range(spec.d) for j in range(spec.d)
             if i != j and a_hat[i, j]]
    selection = {
        "lambda_max": lpath.lambda_max,
        "selected_lambda": lam,
        "rule": penalty.get("rule", "half_se"),
        "adjacency": a_hat.tolist(),
        "edges": edges,
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
            fit_result_to_dict(two_step_refit(path, spec, a_hat)))))
    if cluster:
        labels = detect_communities(a_hat)
        outputs.append(_write_text(out_dir, "communities.json", _dump_json({
            "labels": labels.tolist(),
            "n_communities": int(labels.max() + 1),
            "modularity": modularity(a_hat, labels),
        })))
        if lpath.adjacency is not None:
            outputs.append(_write_text(
                out_dir, "cluster_curve.json",
                _dump_json(cluster_lambda_curve(lpath))))
    return outputs


def _cmd_bench(cfg: dict, out_dir: str, csv: _CsvClock) -> list[str]:
    report = run_study(cfg)
    return [
        _write_text(out_dir, "report.json", report.to_json() + "\n"),
        _write_text(out_dir, "report_rows.csv", report.rows_csv()),
    ]


def _cmd_ingest(cfg: dict, out_dir: str, csv: _CsvClock) -> list[str]:
    panel = csv(load_panel_csv, str(_require(cfg, "panel_csv")))
    n_missing = int(panel.missing_mask().sum())
    cc = cfg.get("complete_cases", "series")
    if cc:
        panel = complete_cases(panel, axis=cc)
    delta = cfg.get("delta")
    path = to_sample_path(panel, transform=cfg.get("transform", "levels"),
                          delta=None if delta is None else float(delta))
    csv(write_csv, path, os.path.join(out_dir, "path.csv"))
    info = {
        "n_rows": panel.n_rows,
        "n_series": panel.n_series,
        "series_names": list(panel.series_names),
        "dropped_series": list(panel.dropped_series),
        "n_missing_values": n_missing,
        "inferred_delta": panel.inferred_delta,
        "transform": cfg.get("transform", "levels"),
        "path_rows": path.data.shape[0],
    }
    return ["path.csv", _write_text(out_dir, "ingest.json", _dump_json(info))]


def _cmd_communities(cfg: dict, out_dir: str, csv: _CsvClock) -> list[str]:
    if "adjacency" in cfg:
        a = np.asarray(cfg["adjacency"], dtype=float)
    else:
        g, _ = study_graph(_require(cfg, "graph"))
        a = g.adjacency()
    resolution = float(cfg.get("resolution", 1.0))
    labels = detect_communities(a, resolution=resolution)
    out = {
        "labels": labels.tolist(),
        "n_communities": int(labels.max() + 1),
        "modularity": modularity(a, labels, resolution=resolution),
    }
    if "true_labels" in cfg:
        out["agreement"] = label_agreement(cfg["true_labels"], labels)
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
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigFieldError("<root>", "config must be a JSON object")
        cfg = _apply_overrides(cfg, overrides)
    except (OSError, json.JSONDecodeError, ConfigFieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    if seed is not None:
        cfg["seed"] = int(seed)

    started = time.monotonic()
    csv = _CsvClock()
    try:
        os.makedirs(out_dir, exist_ok=True)
        outputs = _COMMANDS[command](cfg, out_dir, csv)
    except ConfigFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except KeyError as exc:
        print(f"error: config field {exc.args[0]!r}: missing", file=sys.stderr)
        return USAGE_ERROR
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR

    manifest = {
        "command": command,
        "config_digest": hashlib.sha256(json.dumps(
            cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest(),
        "seed": cfg.get("seed"),
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
