import json
import os
from pathlib import Path

import numpy as np
import pytest

from netsde import cli
from netsde.estimate import _MomentFold, fit_adaptive_closed_form
from netsde.graph import build_graph
from netsde.lasso import graph_from_adjacency
from netsde.model import (ConstantDiagonal, LinearDrift, NsdeSpec,
                          parameter_layout, spec_from_config)
from netsde.simulate import read_csv
from reference import params_to_config, spec_to_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def simulate_config(d=2, n=400, seed=42):
    spec = NsdeSpec(d=d, drift=LinearDrift(), diffusion=ConstantDiagonal())
    edges = [(i + 1, i) for i in range(d - 1)]
    g = build_graph(d, edges)
    layout = parameter_layout(spec, g)
    theta = layout.pack(alpha=np.full(d, 1.5), momentum=np.full(d, 5.0),
                        network=np.full(len(edges), 1.0))
    return {
        "model": spec_to_config(spec),
        "graph": {"kind": "edges", "d": d, "edges": [list(e) for e in edges]},
        "params": params_to_config(theta),
        "delta": 0.01,
        "n": n,
        "substeps": 3,
        "seed": seed,
    }


def test_graph_gen_outputs_and_manifest(tmp_path):
    cfg = write_json(tmp_path, "g.json", {
        "graph": {"kind": "edges", "d": 3, "edges": [[0, 1], [1, 2]]},
        "mean_reversion": 7.0,
        "coupling": 2.0,
    })
    out = tmp_path / "out"
    assert cli.run("graph-gen", cfg, out_dir=str(out)) == 0
    for name in ["graph.json", "edges.txt", "graph.dot", "graph_info.json",
                 "manifest.json"]:
        assert (out / name).exists()
    info = json.loads((out / "graph_info.json").read_text())
    assert info["singular_margin"] > 0
    assert info["rowsum_margin"] == pytest.approx(7.0 - 2.0)
    manifest = read_manifest(str(out))
    assert manifest["command"] == "graph-gen"
    assert manifest["outputs"] == ["graph.json", "edges.txt", "graph.dot",
                                   "graph_info.json"]
    assert manifest["seed"] is None
    assert manifest["wall_clock_s"] >= 0
    assert "csv_s" not in manifest  # graph-gen touches no CSV


def test_simulate_is_reproducible(tmp_path):
    cfg = write_json(tmp_path, "sim.json", simulate_config())
    out1, out2, out3 = (tmp_path / k for k in ("a", "b", "c"))
    assert cli.run("simulate", cfg, out_dir=str(out1)) == 0
    assert cli.run("simulate", cfg, out_dir=str(out2)) == 0
    assert (out1 / "path.csv").read_bytes() == (out2 / "path.csv").read_bytes()

    assert cli.run("simulate", cfg, out_dir=str(out3), seed=99) == 0
    assert (out1 / "path.csv").read_bytes() != (out3 / "path.csv").read_bytes()
    assert read_manifest(str(out3))["seed"] == 99

    path = read_csv(str(out1 / "path.csv"))
    assert path.n == 400 and path.d == 2
    manifest = read_manifest(str(out1))
    assert 0 <= manifest["csv_s"] <= manifest["wall_clock_s"]


def test_fit_command(tmp_path):
    sim_cfg = simulate_config(n=1500)
    cfg = write_json(tmp_path, "sim.json", sim_cfg)
    sim_out = tmp_path / "sim"
    assert cli.run("simulate", cfg, out_dir=str(sim_out)) == 0

    fit_cfg = write_json(tmp_path, "fit.json", {
        "path_csv": str(sim_out / "path.csv"),
        "model": sim_cfg["model"],
        "graph": sim_cfg["graph"],
        "method": "closed_form",
    })
    out = tmp_path / "fit"
    assert cli.run("fit", fit_cfg, out_dir=str(out)) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert set(fit) >= {"names", "values", "converged", "n", "delta"}
    assert len(fit["names"]) == len(fit["values"])
    assert fit["n"] == 1500
    manifest = read_manifest(str(out))
    assert 0 <= manifest["csv_s"] <= manifest["wall_clock_s"]

    bad = write_json(tmp_path, "bad_fit.json", {
        "path_csv": str(sim_out / "path.csv"),
        "model": sim_cfg["model"],
        "graph": sim_cfg["graph"],
        "method": "mle",
    })
    assert cli.run("fit", bad, out_dir=str(tmp_path / "x")) == cli.USAGE_ERROR


def test_lasso_command(tmp_path):
    sim_cfg = simulate_config(d=3, n=3000)
    cfg = write_json(tmp_path, "sim.json", sim_cfg)
    sim_out = tmp_path / "sim"
    assert cli.run("simulate", cfg, out_dir=str(sim_out)) == 0

    lasso_cfg = write_json(tmp_path, "lasso.json", {
        "path_csv": str(sim_out / "path.csv"),
        "model": sim_cfg["model"],
        "penalty": {"rule": "fixed_fraction", "fraction": 0.1},
        "cluster": True,
    })
    out = tmp_path / "sel"
    assert cli.run("lasso", lasso_cfg, out_dir=str(out)) == 0
    selection = json.loads((out / "selection.json").read_text())
    assert set(selection) == {"lambda_max", "selected_lambda", "rule",
                              "adjacency", "edges", "active_counts",
                              "lambdas", "validation_loss", "validation_se",
                              "notes"}
    assert selection["rule"] == "fixed_fraction"
    assert selection["selected_lambda"] == pytest.approx(
        0.1 * selection["lambda_max"])
    assert np.asarray(selection["adjacency"]).shape == (3, 3)
    assert (out / "refit.json").exists()
    assert (out / "communities.json").exists()
    assert (out / "cluster_curve.json").exists()
    rows = (out / "lasso_path.csv").read_text().splitlines()
    assert rows[0] == "lambda,coef_name,value"
    # the pilot's network coordinates are named w_i_j, row-major by pair
    names = [row.split(",")[1] for row in rows[1:]]
    assert names[:12] == ([f"alpha_{i}" for i in range(3)]
                          + [f"mu_{i}" for i in range(3)]
                          + ["w_0_1", "w_0_2", "w_1_0", "w_1_2", "w_2_0", "w_2_1"])
    assert len(names) == 12 * len(selection["lambdas"])
    manifest = read_manifest(str(out))
    assert 0 <= manifest["csv_s"] <= manifest["wall_clock_s"]

    no_refit = write_json(tmp_path, "lasso2.json", {
        "path_csv": str(sim_out / "path.csv"),
        "model": sim_cfg["model"],
        "penalty": {"rule": "fixed_fraction", "fraction": 0.1},
        "refit": False,
    })
    out2 = tmp_path / "sel2"
    assert cli.run("lasso", no_refit, out_dir=str(out2)) == 0
    assert not (out2 / "refit.json").exists()
    assert not (out2 / "communities.json").exists()


@pytest.mark.parametrize("penalty", [
    {"rule": "fixed_fraction", "fraction": 0.1},
    {"rule": "min", "holdout": 0.5},  # moments in chunks; selects 6 edges
])
def test_lasso_refit_reads_the_selection_fold(tmp_path, monkeypatch, penalty):
    # the refit is the two-stage fit of the path on the selected graph,
    # read off the moments the selection folded: one fold per command
    sim_cfg = simulate_config(d=3, n=10000)
    sim_out = tmp_path / "sim"
    assert cli.run("simulate", write_json(tmp_path, "sim.json", sim_cfg),
                   out_dir=str(sim_out)) == 0
    builds = []
    init = _MomentFold.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_MomentFold, "__init__", counted)
    out = tmp_path / "sel"
    assert cli.run("lasso", write_json(tmp_path, "lasso.json", {
        "path_csv": str(sim_out / "path.csv"), "model": sim_cfg["model"],
        "penalty": penalty}), out_dir=str(out)) == 0
    assert len(builds) == 1
    monkeypatch.undo()
    a_hat = np.asarray(json.loads((out / "selection.json").read_text())["adjacency"])
    refit = json.loads((out / "refit.json").read_text())
    want = cli.fit_result_to_dict(fit_adaptive_closed_form(
        read_csv(str(sim_out / "path.csv")), spec_from_config(sim_cfg["model"]),
        graph_from_adjacency(a_hat)))
    assert refit["names"] == want["names"]
    assert a_hat.any() and refit["converged"]
    assert refit["n"] == want["n"] == 10000
    for key in ("values", "standard_errors"):
        np.testing.assert_allclose(refit[key], want[key], rtol=1e-12, atol=0)
    assert refit["contrast"] == pytest.approx(want["contrast"], rel=1e-12, abs=0)


def test_shipped_pipeline_configs_run(tmp_path):
    # graph_er, simulate_er and lasso_er in sequence, at a short horizon
    graph_out, sim_out, sel_out = (tmp_path / name
                                   for name in ("graph", "simulate", "lasso"))
    assert cli.run("graph-gen", str(CONFIGS / "graph_er.json"),
                   out_dir=str(graph_out)) == 0
    assert cli.run("simulate", str(CONFIGS / "simulate_er.json"),
                   overrides=["n=2000"], out_dir=str(sim_out)) == 0
    assert cli.run("lasso", str(CONFIGS / "lasso_er.json"),
                   overrides=[f"path_csv={sim_out / 'path.csv'}"],
                   out_dir=str(sel_out)) == 0
    d = json.loads((graph_out / "graph.json").read_text())["d"]
    path = read_csv(str(sim_out / "path.csv"))
    assert path.data.shape == (2001, d)
    selection = json.loads((sel_out / "selection.json").read_text())
    assert np.asarray(selection["adjacency"]).shape == (d, d)
    assert read_manifest(str(sel_out))["outputs"] == [
        "selection.json", "lasso_path.csv", "refit.json"]


def test_bench_command(tmp_path):
    cfg = write_json(tmp_path, "bench.json", {
        "study": "error_bound",
        "graph": {"kind": "edges", "d": 3, "edges": [[0, 1], [1, 2]]},
        "horizons": [5.0, 10.0],
        "delta": 0.02,
        "n_reps": 3,
        "substeps": 3,
        "seed": 7,
    })
    out = tmp_path / "bench"
    assert cli.run("bench", cfg, out_dir=str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["study"] == "error_bound"
    assert len(report["rows"]) == 2
    assert "slope_log_error_vs_log_horizon" in report["summary"]
    csv_lines = (out / "report_rows.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 3
    assert csv_lines[0].startswith("d,n_edges,pi,horizon")


def test_ingest_command(tmp_path):
    panel = tmp_path / "panel.csv"
    panel.write_text(
        "t,a,b,c\n"
        "0.0,1.0,NA,2.0\n"
        "0.5,1.1,3.0,2.2\n"
        "1.0,1.3,3.1,2.1\n"
        "1.5,1.2,2.9,2.4\n"
        "2.0,1.4,3.2,2.6\n")
    cfg = write_json(tmp_path, "ingest.json", {
        "panel_csv": str(panel),
        "transform": "diff_log",
    })
    out = tmp_path / "ingest"
    assert cli.run("ingest", cfg, out_dir=str(out)) == 0
    info = json.loads((out / "ingest.json").read_text())
    assert info["dropped_series"] == ["b"]
    assert info["series_names"] == ["a", "c"]
    assert info["n_missing_values"] == 1
    assert info["inferred_delta"] == 0.5
    assert info["path_rows"] == 4
    path = read_csv(str(out / "path.csv"))
    assert path.d == 2 and path.n == 3 and path.delta == 0.5
    manifest = read_manifest(str(out))
    assert 0 <= manifest["csv_s"] <= manifest["wall_clock_s"]


def test_ingest_takes_delta_as_a_string(tmp_path, capsys):
    panel = tmp_path / "panel.csv"
    panel.write_text("t,a,b\n0,1.0,2.0\n1,1.5,2.5\n2,1.2,2.1\n")
    cfg = write_json(tmp_path, "ingest.json", {"panel_csv": str(panel),
                                               "delta": "0.5"})
    out = tmp_path / "ingest"
    assert cli.run("ingest", cfg, out_dir=str(out)) == 0
    assert read_csv(str(out / "path.csv")).delta == 0.5
    capsys.readouterr()
    assert cli.run("ingest", cfg, overrides=["delta=abc"],
                   out_dir=str(tmp_path / "bad")) == cli.USAGE_ERROR
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: config field 'delta': must be a number, got 'abc'"]
    # a number the panel rejects is a domain error
    for bad in ("nan", "inf"):
        assert cli.run("ingest", cfg, overrides=[f"delta={bad}"],
                       out_dir=str(tmp_path / bad)) == 1
        assert "finite" in capsys.readouterr().err


def test_communities_command(tmp_path):
    cfg = write_json(tmp_path, "comm.json", {
        "adjacency": [[0, 1, 0, 0], [1, 0, 0, 0],
                      [0, 0, 0, 1], [0, 0, 1, 0]],
        "true_labels": [1, 1, 0, 0],
    })
    out = tmp_path / "comm"
    assert cli.run("communities", cfg, out_dir=str(out)) == 0
    result = json.loads((out / "communities.json").read_text())
    assert result["n_communities"] == 2
    assert result["modularity"] == pytest.approx(0.5)
    assert result["agreement"] == 1.0


@pytest.mark.parametrize("labels", [[-1, 0, 1, 2], [0.0, 0.5, 1.0, 1.0]])
def test_communities_rejects_labels_that_are_not_indices(tmp_path, capsys, labels):
    cfg = write_json(tmp_path, "comm.json", {
        "adjacency": [[0, 1, 0, 0], [1, 0, 0, 0],
                      [0, 0, 0, 1], [0, 0, 1, 0]],
        "true_labels": labels,
    })
    assert cli.run("communities", cfg, out_dir=str(tmp_path / "comm")) \
        == cli.DOMAIN_ERROR
    assert "non-negative whole numbers" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys):
    assert cli.run("transmogrify", "nope.json") == cli.USAGE_ERROR
    assert cli.run("graph-gen", str(tmp_path / "missing.json")) \
        == cli.USAGE_ERROR
    broken = tmp_path / "broken.json"
    broken.write_text("{ not json")
    assert cli.run("graph-gen", str(broken)) == cli.USAGE_ERROR
    not_object = write_json(tmp_path, "arr.json", [1, 2])
    assert cli.run("graph-gen", not_object) == cli.USAGE_ERROR
    no_graph = write_json(tmp_path, "empty.json", {})
    assert cli.run("graph-gen", no_graph, out_dir=str(tmp_path / "o")) \
        == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert "config field 'graph'" in err

    sim = simulate_config()
    del sim["n"]
    incomplete = write_json(tmp_path, "sim.json", sim)
    assert cli.run("simulate", incomplete, out_dir=str(tmp_path / "s")) \
        == cli.USAGE_ERROR


def test_domain_errors(tmp_path, capsys):
    self_loop = write_json(tmp_path, "bad.json", {
        "graph": {"kind": "edges", "d": 2, "edges": [[0, 0]]}})
    assert cli.run("graph-gen", self_loop, out_dir=str(tmp_path / "g")) \
        == cli.DOMAIN_ERROR

    sim = simulate_config(n=2000)
    sim["params"]["beta"] = [-5.0, -5.0, 1.0]  # repulsive mean reversion
    explosive = write_json(tmp_path, "boom.json", sim)
    assert cli.run("simulate", explosive, out_dir=str(tmp_path / "e")) \
        == cli.DOMAIN_ERROR
    assert "error" in capsys.readouterr().err


def test_main_overrides_and_version(tmp_path, capsys):
    cfg = write_json(tmp_path, "g.json", {
        "graph": {"kind": "edges", "d": 2, "edges": [[0, 1]]},
        "mean_reversion": 7.0,
        "coupling": 2.0,
    })
    out = tmp_path / "out"
    code = cli.main(["graph-gen", "--config", cfg, "--out-dir", str(out),
                     "--set", "coupling=4.0"])
    assert code == 0
    info = json.loads((out / "graph_info.json").read_text())
    assert info["rowsum_margin"] == pytest.approx(7.0 - 4.0)

    code = cli.main(["graph-gen", "--config", cfg, "--out-dir", str(out),
                     "--set", "graph.d=3", "--set",
                     'graph.edges=[[0,1],[1,2]]'])
    assert code == 0
    assert json.loads((out / "graph.json").read_text())["d"] == 3

    assert cli.main(["graph-gen", "--config", cfg, "--out-dir", str(out),
                     "--set", "nonsense"]) == cli.USAGE_ERROR

    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


@pytest.fixture(scope="module")
def short_er_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim_er")
    assert cli.run("simulate", str(CONFIGS / "simulate_er.json"),
                   overrides=["n=300"], out_dir=str(out)) == 0
    return str(out / "path.csv")


HALF_SE = 'penalty.rule="half_se"'


def no_fold(monkeypatch):
    """Make building a moments fold, the first work on a path, fail."""
    def fold(*args, **kwargs):
        raise AssertionError("the path was folded")

    monkeypatch.setattr(_MomentFold, "__init__", fold)


@pytest.mark.parametrize("overrides,key", [
    ([HALF_SE, "penalty.n_points=0"], "n_points"),
    ([HALF_SE, "penalty.min_fraction=0"], "min_fraction"),
    ([HALF_SE, "penalty.min_fraction=-1"], "min_fraction"),
    ([HALF_SE, "penalty.min_fraction=2"], "min_fraction"),
    ([HALF_SE, "penalty.holdout=0"], "holdout"),
    ([HALF_SE, "penalty.weight_exponent=-1"], "weight_exponent"),
    (["penalty.fraction=0"], "fraction"),
    (["penalty.fraction=1.5"], "fraction"),
])
def test_lasso_rejects_bad_penalty_settings_before_the_pilot(
        tmp_path, capsys, monkeypatch, short_er_path, overrides, key):
    no_fold(monkeypatch)
    overrides = [f"path_csv={json.dumps(short_er_path)}", *overrides]
    assert cli.run("lasso", str(CONFIGS / "lasso_er.json"), overrides=overrides,
                   out_dir=str(tmp_path / "sel")) == cli.USAGE_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: config field 'penalty.{key}': must ")


def test_lasso_rejects_an_unknown_penalty_key(tmp_path, capsys, monkeypatch,
                                               short_er_path):
    no_fold(monkeypatch)
    argv = ["lasso", "--config", str(CONFIGS / "lasso_er.json"),
            "--out-dir", str(tmp_path / "sel"),
            "--set", f"path_csv={json.dumps(short_er_path)}",
            "--set", "penalty.fractoin=0.9", "--set", "penalty.rul=min"]
    assert cli.main(argv) == cli.USAGE_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: config field 'penalty.fractoin': unknown setting; "
                   "so is 'penalty.rul'"]


def test_fit_rejects_a_string_switch(tmp_path, capsys, monkeypatch):
    # bool("false") is True, so this used to fit the complete graph
    sim_cfg = simulate_config(n=50)
    sim_out = tmp_path / "sim"
    assert cli.run("simulate", write_json(tmp_path, "sim.json", sim_cfg),
                   out_dir=str(sim_out)) == 0

    def fit(*args, **kwargs):
        raise AssertionError("the model was fitted")

    monkeypatch.setattr(cli, "fit_qmle", fit)
    fit_cfg = write_json(tmp_path, "fit.json", {
        "path_csv": str(sim_out / "path.csv"), "model": sim_cfg["model"],
        "graph": sim_cfg["graph"], "augmented": "false"})
    assert cli.run("fit", fit_cfg, out_dir=str(tmp_path / "fit")) \
        == cli.USAGE_ERROR
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: config field 'augmented': must be true or false, got 'false'"]


@pytest.mark.parametrize("override,key,value", [
    ("refit=False", "refit", "'False'"),  # not JSON, so the string 'False'
    ("cluster=1", "cluster", "1"),
])
def test_lasso_rejects_a_switch_that_is_not_a_boolean(
        tmp_path, capsys, monkeypatch, short_er_path, override, key, value):
    no_fold(monkeypatch)
    argv = ["lasso", "--config", str(CONFIGS / "lasso_er.json"),
            "--out-dir", str(tmp_path / "sel"),
            "--set", f"path_csv={json.dumps(short_er_path)}", "--set", override]
    assert cli.main(argv) == cli.USAGE_ERROR
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: config field {key!r}: must be true or false, got {value}"]


def test_fit_rejects_a_string_intercepts_switch(tmp_path, capsys, monkeypatch):
    # passed through unchecked, "false" reached the fit as a true value
    sim_cfg = simulate_config(n=50)
    sim_out = tmp_path / "sim"
    assert cli.run("simulate", write_json(tmp_path, "sim.json", sim_cfg),
                   out_dir=str(sim_out)) == 0

    def fit(*args, **kwargs):
        raise AssertionError("the model was fitted")

    monkeypatch.setattr(cli, "fit_qmle", fit)
    fit_cfg = write_json(tmp_path, "fit.json", {
        "path_csv": str(sim_out / "path.csv"), "model": sim_cfg["model"],
        "graph": sim_cfg["graph"]})
    argv = ["fit", "--config", fit_cfg, "--out-dir", str(tmp_path / "fit"),
            "--set", 'intercepts="false"']
    assert cli.main(argv) == cli.USAGE_ERROR
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: config field 'intercepts': must be true or false, got 'false'"]


def test_model_rejects_a_string_with_intercepts(tmp_path, capsys):
    # bool("false") is True: the fit used to gain d intercept coordinates
    sim_cfg = simulate_config(n=50)
    sim_out = tmp_path / "sim"
    assert cli.run("simulate", write_json(tmp_path, "sim.json", sim_cfg),
                   out_dir=str(sim_out)) == 0
    fit_cfg = write_json(tmp_path, "fit.json", {
        "path_csv": str(sim_out / "path.csv"), "model": sim_cfg["model"],
        "graph": sim_cfg["graph"]})
    argv = ["fit", "--config", fit_cfg, "--out-dir", str(tmp_path / "fit"),
            "--set", "model.drift.with_intercepts=false"]
    assert cli.main(argv) == 0
    fitted = json.loads((tmp_path / "fit" / "fit.json").read_text())
    assert not any(name.startswith("intercept") for name in fitted["names"])

    argv[-1] = 'model.drift.with_intercepts="false"'
    assert cli.main(argv) == cli.USAGE_ERROR
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: config field 'model.drift.with_intercepts': must be true or "
        "false, got 'false'"]
