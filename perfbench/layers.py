"""Which netsde functions the traced run wraps, and the per-layer metrics.

Each layer metric names the end-to-end metric it should move (see
perfbench/README.md).  Times and counts are per op of the timed body, so
they stay comparable when a faster program fits more ops into a run;
graph search is charged to the set-up, where the benchmark runs it.
netsde.model gets no span of its own: its drift and diffusion closures
run once per Euler step inside the simulator and the estimators, and are
measured through them.
"""
from __future__ import annotations

import os

from .tracer import Target, Tracer

SETUP = "setup"


def _count_tries(tracer, bound, result):
    _graph, used_seed, _margin = result
    tracer.count("graph.find_er_tries", used_seed - bound.arguments["seed"] + 1)


def _simulate_work(reps_of):
    def hook(tracer, bound, result):
        args = bound.arguments
        reps = reps_of(args)
        steps = (args["burn_in_steps"] + args["n"]) * args["substeps"]
        tracer.count("simulate.steps", steps)
        tracer.count("simulate.rep_steps", steps * reps)
        tracer.peak("simulate.paths_bytes",
                    (args["n"] + 1) * reps * args["spec"].d * 8)
    return hook


def _fit_role(bound):
    return "estimate.pilot" if bound.arguments["augmented"] else "estimate.fit"


def _fit_stats(tracer, bound, fit):
    # the layout gives p without touching info_matrix, which may become lazy
    tracer.peak("estimate.info_bytes", fit.layout.pi_total ** 2 * 8)
    if fit.gram_cond is not None and len(fit.gram_cond):
        tracer.peak("estimate.gram_cond_max", float(max(fit.gram_cond)))


def _panel_bytes(tracer, bound, result):
    tracer.count("ingest.bytes", os.path.getsize(bound.arguments["file_path"]))


def _bytes_written(tracer, bound, result):
    with os.scandir(bound.arguments["out_dir"]) as entries:
        tracer.count("cli.bytes_written",
                     sum(e.stat().st_size for e in entries if e.is_file()))


TARGETS = (
    Target("netsde.experiments", "find_er_graph_with_edges", "graph.find_er",
           _count_tries),
    Target("netsde.simulate", "simulate_ensemble", "simulate.ensemble",
           _simulate_work(lambda args: len(args["seeds"]))),
    Target("netsde.simulate", "simulate_path", "simulate.path",
           _simulate_work(lambda args: 1)),
    Target("netsde.simulate", "read_csv", "simulate.read_csv"),
    Target("netsde.simulate", "write_csv", "simulate.write_csv"),
    Target("netsde.estimate", "fit_adaptive_closed_form", _fit_role, _fit_stats),
    Target("netsde.estimate", "fit_diffusion_scale", "estimate.scale"),
    Target("netsde.estimate", "fit_linear_closed_form", "estimate.gls"),
    Target("netsde.estimate", "quasi_loglik", "estimate.loglik"),
    Target("netsde.estimate", "model_hessian", "estimate.hessian"),
    Target("netsde.lasso", "psd_project", "lasso.psd_project"),
    Target("netsde.lasso", "lambda_max", "lasso.lambda_max"),
    Target("netsde.lasso", "lambda_path", "lasso.lambda_path"),
    Target("netsde.lasso", "lsa_solve", "lasso.lsa_solve"),
    Target("netsde.lasso", "kkt_residual", "lasso.kkt_residual"),
    Target("netsde.lasso", "validation_loss", "lasso.validation_loss"),
    Target("netsde.lasso", "two_step_refit", "lasso.two_step_refit"),
    Target("netsde.ingest", "load_panel_csv", "ingest.load_panel_csv",
           _panel_bytes),
    Target("netsde.ingest", "complete_cases", "ingest.complete_cases"),
    Target("netsde.ingest", "to_sample_path", "ingest.to_sample_path"),
    Target("netsde.experiments", "recovery_study", "experiments.study"),
    Target("netsde.experiments", "error_bound_study", "experiments.study"),
    Target("netsde.experiments", "select_graph", "experiments.select_graph"),
    Target("netsde.experiments", "detect_communities",
           "experiments.detect_communities"),
    Target("netsde.cli", "run", "cli.run", _bytes_written),
)

SIMULATE = ("simulate.ensemble", "simulate.path")
TRANSFORM = ("ingest.complete_cases", "ingest.to_sample_path")

# (name, unit, better) for every metric the traced run prints
PER_LAYER = (
    ("graph.find_er_s", "s", "lower"),
    ("graph.find_er_tries", "count", "lower"),
    ("simulate.busy_s", "s/op", "lower"),
    ("simulate.calls", "calls/op", "lower"),
    ("simulate.ns_per_step", "ns", "lower"),
    ("simulate.ns_per_rep_step", "ns", "lower"),
    ("simulate.paths_mb", "MB", "lower"),
    ("simulate.csv_read_s", "s/op", "lower"),
    ("simulate.csv_write_s", "s/op", "lower"),
    ("estimate.pilot_s", "s/op", "lower"),
    ("estimate.pilot_calls", "calls/op", "lower"),
    ("estimate.fit_s", "s/op", "lower"),
    ("estimate.fit_calls", "calls/op", "lower"),
    ("estimate.scale_s", "s/op", "lower"),
    ("estimate.gls_s", "s/op", "lower"),
    ("estimate.loglik_s", "s/op", "lower"),
    ("estimate.hessian_s", "s/op", "lower"),
    ("estimate.info_mb", "MB", "lower"),
    ("estimate.gram_cond_max", "ratio", "lower"),
    ("lasso.psd_s", "s/op", "lower"),
    ("lasso.psd_clips", "count/op", "lower"),
    ("lasso.lambda_max_s", "s/op", "lower"),
    ("lasso.path_s", "s/op", "lower"),
    ("lasso.solve_s", "s/op", "lower"),
    ("lasso.solve_calls", "calls/op", "lower"),
    ("lasso.kkt_s", "s/op", "lower"),
    ("lasso.kkt_per_solve", "ratio", "lower"),
    ("lasso.validation_s", "s/op", "lower"),
    ("lasso.validation_warnings", "count/op", "lower"),
    ("lasso.path_nonmonotone", "count/op", "lower"),
    ("lasso.refit_s", "s/op", "lower"),
    ("ingest.load_s", "s/op", "lower"),
    ("ingest.load_mb_per_s", "MB/s", "higher"),
    ("ingest.transform_s", "s/op", "lower"),
    ("experiments.study_s", "s/op", "lower"),
    ("experiments.select_s", "s/op", "lower"),
    ("experiments.select_self_s", "s/op", "lower"),
    ("experiments.communities_s", "s/op", "lower"),
    ("experiments.communities_calls", "calls/op", "lower"),
    ("cli.run_s", "s/op", "lower"),
    ("cli.self_s", "s/op", "lower"),
    ("cli.bytes_written", "bytes/op", "lower"),
    ("trace_overhead", "fraction", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, ops: int, body_s: float,
                      wrapper_costs: tuple[float, float]) -> dict:
    """Every PER_LAYER metric, as {name: {"value", "unit"}}.

    ops and body_s are the timed body's op count and traced duration;
    wrapper_costs are the calibrated (plain, binding) costs of one traced
    call, from which trace_overhead estimates the share of body_s that
    the wrappers themselves took.  A layer that the workload never enters
    reads 0.
    """
    self_times = tracer.self_times()
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    setup_busy: dict[str, float] = {}
    body_spans = 0
    for rec, self_s in zip(tracer.spans, self_times):
        duration = rec.end - rec.start
        if rec.op == SETUP:
            setup_busy[rec.name] = setup_busy.get(rec.name, 0.0) + duration
            continue
        if rec.parent >= 0:  # the op roots are the benchmark's own spans
            body_spans += 1
        busy[rec.name] = busy.get(rec.name, 0.0) + duration
        own[rec.name] = own.get(rec.name, 0.0) + self_s
        calls[rec.name] = calls.get(rec.name, 0) + 1
    counts: dict[str, float] = {}
    peaks: dict[str, float] = {}
    for op, counter in tracer.counts.items():
        if op != SETUP:
            for key, value in counter.items():
                counts[key] = counts.get(key, 0) + value
    for op, table in tracer.peaks.items():
        if op != SETUP:
            for key, value in table.items():
                peaks[key] = max(peaks.get(key, value), value)
    setup_counts = tracer.counts.get(SETUP, {})

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def total(table, names) -> float:
        return sum(table.get(name, 0) for name in names)

    sim_s = total(busy, SIMULATE)
    overhead_s = (body_spans * wrapper_costs[0]
                  + counts.get("trace.bound_calls", 0)
                  * (wrapper_costs[1] - wrapper_costs[0]))
    values = {
        "graph.find_er_s": setup_busy.get("graph.find_er", 0.0),
        "graph.find_er_tries": setup_counts.get("graph.find_er_tries", 0),
        "simulate.busy_s": per_op(sim_s),
        "simulate.calls": per_op(total(calls, SIMULATE)),
        "simulate.ns_per_step": _ratio(sim_s * 1e9, counts.get("simulate.steps", 0)),
        "simulate.ns_per_rep_step":
            _ratio(sim_s * 1e9, counts.get("simulate.rep_steps", 0)),
        "simulate.paths_mb": peaks.get("simulate.paths_bytes", 0) / 1e6,
        "simulate.csv_read_s": per_op(busy.get("simulate.read_csv", 0.0)),
        "simulate.csv_write_s": per_op(busy.get("simulate.write_csv", 0.0)),
        "estimate.pilot_s": per_op(busy.get("estimate.pilot", 0.0)),
        "estimate.pilot_calls": per_op(calls.get("estimate.pilot", 0)),
        "estimate.fit_s": per_op(busy.get("estimate.fit", 0.0)),
        "estimate.fit_calls": per_op(calls.get("estimate.fit", 0)),
        "estimate.scale_s": per_op(busy.get("estimate.scale", 0.0)),
        "estimate.gls_s": per_op(busy.get("estimate.gls", 0.0)),
        "estimate.loglik_s": per_op(busy.get("estimate.loglik", 0.0)),
        "estimate.hessian_s": per_op(busy.get("estimate.hessian", 0.0)),
        "estimate.info_mb": peaks.get("estimate.info_bytes", 0) / 1e6,
        "estimate.gram_cond_max": peaks.get("estimate.gram_cond_max", 0.0),
        "lasso.psd_s": per_op(busy.get("lasso.psd_project", 0.0)),
        "lasso.psd_clips": per_op(counts.get("warn:lasso.psd_project", 0)),
        "lasso.lambda_max_s": per_op(busy.get("lasso.lambda_max", 0.0)),
        "lasso.path_s": per_op(busy.get("lasso.lambda_path", 0.0)),
        "lasso.solve_s": per_op(busy.get("lasso.lsa_solve", 0.0)),
        "lasso.solve_calls": per_op(calls.get("lasso.lsa_solve", 0)),
        "lasso.kkt_s": per_op(busy.get("lasso.kkt_residual", 0.0)),
        "lasso.kkt_per_solve": _ratio(calls.get("lasso.kkt_residual", 0),
                                      calls.get("lasso.lsa_solve", 0)),
        "lasso.validation_s": per_op(busy.get("lasso.validation_loss", 0.0)),
        "lasso.validation_warnings":
            per_op(counts.get("warn:lasso.validation_loss", 0)),
        "lasso.path_nonmonotone": per_op(counts.get("log:lasso.lambda_path", 0)),
        "lasso.refit_s": per_op(busy.get("lasso.two_step_refit", 0.0)),
        "ingest.load_s": per_op(busy.get("ingest.load_panel_csv", 0.0)),
        "ingest.load_mb_per_s": _ratio(counts.get("ingest.bytes", 0) / 1e6,
                                       busy.get("ingest.load_panel_csv", 0.0)),
        "ingest.transform_s": per_op(total(busy, TRANSFORM)),
        "experiments.study_s": per_op(busy.get("experiments.study", 0.0)),
        "experiments.select_s": per_op(busy.get("experiments.select_graph", 0.0)),
        "experiments.select_self_s":
            per_op(own.get("experiments.select_graph", 0.0)),
        "experiments.communities_s":
            per_op(busy.get("experiments.detect_communities", 0.0)),
        "experiments.communities_calls":
            per_op(calls.get("experiments.detect_communities", 0)),
        "cli.run_s": per_op(busy.get("cli.run", 0.0)),
        "cli.self_s": per_op(own.get("cli.run", 0.0)),
        "cli.bytes_written": per_op(counts.get("cli.bytes_written", 0)),
        "trace_overhead": _ratio(overhead_s, body_s),
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit, _better in PER_LAYER}
