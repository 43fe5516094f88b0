"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root:  python -m pytest perfbench/tests -q
"""
import json
import math
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from netsde import experiments, lasso
from netsde.ingest import complete_cases, parse_panel_csv
from perfbench import layers, run
from perfbench.panel import DECOY_NAME, euler_panels, panel_csv
from perfbench.tracer import Target, TraceTargetError, Tracer

TINY = {
    "sbm_recovery": {"graph": {"kind": "sbm", "block_sizes": [3, 3],
                               "p_in": 0.9, "p_ex": 0.05, "seed": 0},
                     "horizon": 5.0, "n_seeds": 1},
    "errbound_d16": {"graph": {"kind": "er_fixed_edges", "d": 5,
                               "n_edges": 6, "seed": 1},
                     "horizons": [20.0], "n_reps": 8},
    "panel_lasso_d40": {"d": 4, "n_edges": 4, "horizon": 20.0, "n_panels": 1},
}


def _benchmark_spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _tiny(name, trace, tmp_path):
    return run.measure(name, seed=7, seconds=0.0, trace=trace,
                       workdir=tmp_path / "work", overrides=TINY[name],
                       setup_repeats=1)


def test_benchmark_json_lists_the_harness_metrics():
    spec = _benchmark_spec()
    assert {w["name"] for w in spec["workloads"]} <= set(TINY)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_appears_with_its_unit(name, trace, tmp_path):
    result, info, _tracer = _tiny(name, trace, tmp_path)
    spec = _benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert info["fail_ratio"]["value"] == 0.0
    assert "attempted" in info["fail_ratio"]["base"]
    assert info["op_latency_s"]["count"] >= 1
    if name == "errbound_d16":
        assert 0.0 < info["scores"]["error_over_bound"] <= 1.0


@pytest.mark.parametrize("name", ["sbm_recovery", "panel_lasso_d40"])
def test_spans_nest_and_self_times_sum_to_root(name, tmp_path):
    _result, _info, tracer = _tiny(name, True, tmp_path)
    spans = tracer.spans
    self_times = tracer.self_times()
    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    assert len(roots) >= 2 and len(spans) > 10 * len(roots)
    tree_self = {r: 0.0 for r in roots}
    for i, s in enumerate(spans):
        parent = s.parent
        root = i
        while spans[root].parent >= 0:
            root = spans[root].parent
        tree_self[root] += self_times[i]
        if parent >= 0:
            assert spans[parent].start <= s.start <= s.end <= spans[parent].end
            assert spans[parent].op == s.op
    for r in roots:
        assert tree_self[r] == pytest.approx(spans[r].end - spans[r].start,
                                             rel=1e-9, abs=1e-12)
    assert all(t >= -1e-12 for t in self_times)


def test_missing_trace_target_fails_loudly():
    for target in (Target("netsde.lasso", "no_such_solver", "lasso.gone"),
                   Target("netsde.no_such_module", "lsa_solve", "lasso.gone"),
                   Target("netsde.lasso", "logger", "lasso.logger")):
        with pytest.raises(TraceTargetError):
            with Tracer().installed([target]):
                pass
    # a failed install leaves no wrapper behind
    assert experiments.lsa_solve is lasso.lsa_solve
    assert lasso.lsa_solve.__module__ == "netsde.lasso"
    assert not hasattr(lasso.lsa_solve, "__wrapped__")


def test_wrappers_cover_every_lookup_site_and_are_removed():
    tracer = Tracer()
    original = lasso.lsa_solve
    with tracer.installed(layers.TARGETS):
        assert experiments.lsa_solve is lasso.lsa_solve
        assert lasso.lsa_solve.__wrapped__ is original
    assert lasso.lsa_solve is original and experiments.lsa_solve is original


def test_warnings_are_charged_to_the_innermost_span():
    tracer = Tracer()
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with tracer.installed(layers.TARGETS), tracer.root("op", 0):
        lasso.psd_project(indefinite)
    assert tracer.counts[0]["warn:lasso.psd_project"] == 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lasso.psd_project(indefinite)
    assert len(caught) == 1  # the filters are restored afterwards


def test_panel_round_trips_and_the_decoy_is_dropped():
    a = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    values = euler_panels(a, seed=3, n_panels=2, horizon=2.0, delta=0.01,
                          mean_reversion=7.0, coupling=2.0, noise_scale=2.0,
                          clip=100.0)
    assert values.shape == (2, 201, 3)
    again = euler_panels(a, seed=3, n_panels=2, horizon=2.0, delta=0.01,
                         mean_reversion=7.0, coupling=2.0, noise_scale=2.0,
                         clip=100.0)
    assert np.array_equal(values, again)
    text = panel_csv(values[0], 0.01, seed=5)
    assert text == panel_csv(values[0], 0.01, seed=5)
    panel = parse_panel_csv(text)
    assert panel.missing_mask().any()
    clean = complete_cases(panel)
    assert clean.dropped_series == (DECOY_NAME,)
    assert np.array_equal(clean.values, values[0])


def test_run_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sbm_recovery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
