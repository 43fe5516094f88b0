"""The config reader: model.setting, and every command and study through it.

Every setting is read, converted and checked by model.setting, and a bad
one raises ConfigFieldError naming its dotted path from the config root;
`netsde` exits 2 with one line for it and 1 for domain errors.  Each
shipped config and each benchmark workload config passes the reader and
reaches the first piece of work of its command or study, which is
patched here to raise a sentinel; a bad setting stops the command before
that work.
"""
import copy
import json
from pathlib import Path

import pytest

from netsde import cli, experiments
from netsde.graph import DirectedGraph
from netsde.model import ConfigFieldError, setting

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


class Sentinel(Exception):
    """Raised by the first piece of work of a command or study."""


def _stop(*args, **kwargs):
    raise Sentinel


# where each command's work starts, once its settings are read
FIRST_WORK = {
    "graph-gen": (DirectedGraph, "__post_init__"),
    "simulate": (cli, "simulate_path"),
    "lasso": (cli, "read_csv"),
    "bench": (experiments, "_euler"),
    "ingest": (cli, "load_panel_csv"),
    "communities": (cli, "_communities"),
}

SHIPPED = {
    "graph_er.json": "graph-gen",
    "simulate_er.json": "simulate",
    "lasso_er.json": "lasso",
    "bench_error_bound_d8.json": "bench",
    "bench_error_bound_d16.json": "bench",
    "recovery_er.json": "bench",
    "recovery_polymer.json": "bench",
    "recovery_sbm.json": "bench",
}


def stop_at_work(monkeypatch, command):
    owner, name = FIRST_WORK[command]
    monkeypatch.setattr(owner, name, _stop)


# ---------------------------------------------------------------------------
# model.setting


def test_setting_converts_and_checks_one_value():
    cfg = {"a": {"b": "0.5", "flag": False, "n": 3.0, "rule": "min"}}
    before = json.dumps(cfg, sort_keys=True)
    assert setting(cfg, "a.b", float) == 0.5
    assert setting(cfg, "a.n", int) == 3
    assert setting(cfg, "a.flag", bool) is False
    assert setting(cfg, "a.rule", str, allowed=("min", "half_se")) == "min"
    assert setting(cfg, "a.missing", int, 7) == 7
    assert setting(cfg, "x.y", float, 1.5) == 1.5
    # a null stands for a None default, and only for one
    assert setting({"d": None}, "d", float, None) is None
    with pytest.raises(ConfigFieldError, match="'d': must be a number, got None"):
        setting({"d": None}, "d", float, 1.0)
    # [k] converts every entry of a list, a tuple of kinds the first that fits
    assert setting({"v": [1, "2.5"]}, "v", [float]) == [1.0, 2.5]
    assert setting({"v": [[0, 1.0], (2, 3)]}, "v", [[int]]) == [[0, 1], [2, 3]]
    assert setting({"v": 4}, "v", (float, [float])) == 4.0
    assert setting({"v": [4]}, "v", (float, [float])) == [4.0]
    # the reader never writes into the config, so its digest stays put
    assert json.dumps(cfg, sort_keys=True) == before


@pytest.mark.parametrize("cfg,path,kwargs,message", [
    ({}, "a", {}, "config field 'a': missing"),
    ({"a": {}}, "a.b.c", {}, "config field 'a.b': missing"),
    ({"a": 3}, "a.b", {"default": 1}, "config field 'a': must be an object, got 3"),
    ({"a": "false"}, "a", {"kind": bool},
     "config field 'a': must be true or false, got 'false'"),
    ({"a": 1}, "a", {"kind": bool}, "config field 'a': must be true or false, got 1"),
    ({"a": "x"}, "a", {"kind": int}, "config field 'a': must be an integer, got 'x'"),
    ({"a": [1]}, "a", {"kind": float}, "config field 'a': must be a number, got [1]"),
    ({"a": 1}, "a", {"kind": str}, "config field 'a': must be a string, got 1"),
    ({"a": 1}, "a", {"kind": list}, "config field 'a': must be a list, got 1"),
    ({"a": []}, "a", {"kind": dict}, "config field 'a': must be an object, got []"),
    ({"a": 0}, "a", {"kind": int, "check": (lambda v: v >= 1, "be positive")},
     "config field 'a': must be positive, got 0"),
    ({"a": "max"}, "a", {"kind": str, "allowed": ("min", "half_se")},
     "config field 'a': must be one of 'min', 'half_se', got 'max'"),
    ({"a": True}, "a", {"kind": int}, "config field 'a': must be an integer, got True"),
    ({"a": 2.5}, "a", {"kind": int}, "config field 'a': must be an integer, got 2.5"),
    ({"a": False}, "a", {"kind": float},
     "config field 'a': must be a number, got False"),
    ({"a": [1, "x"]}, "a", {"kind": [float]},
     "config field 'a': must be a list of numbers, got [1, 'x']"),
    ({"a": [[1], 2]}, "a", {"kind": [[int]]},
     "config field 'a': must be a list of lists of integers, got [[1], 2]"),
    ({"a": "x"}, "a", {"kind": (float, [float])},
     "config field 'a': must be a number or a list of numbers, got 'x'"),
])
def test_setting_names_a_bad_value_by_its_path(cfg, path, kwargs, message):
    with pytest.raises(ConfigFieldError) as exc:
        setting(cfg, path, **kwargs)
    assert str(exc.value) == message
    assert isinstance(exc.value, ValueError)


# ---------------------------------------------------------------------------
# every config passes the reader and reaches its first piece of work


def test_every_shipped_config_is_listed():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(SHIPPED)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_reaches_its_first_work(tmp_path, monkeypatch, name):
    command = SHIPPED[name]
    stop_at_work(monkeypatch, command)
    with pytest.raises(Sentinel):
        cli.run(command, str(CONFIGS / name), out_dir=str(tmp_path / "out"))


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads
    return workloads


@pytest.mark.parametrize("workload", ["ErrorBound", "SbmRecovery"])
def test_benchmark_study_configs_reach_their_simulation(
        tmp_path, monkeypatch, workloads, workload):
    bench = getattr(workloads, workload)(ROOT, tmp_path)
    stop_at_work(monkeypatch, "bench")
    for config in (bench.config, {**bench.config, **bench.warm_up}):
        with pytest.raises(Sentinel):
            experiments.run_study(copy.deepcopy(config))


def test_benchmark_panel_configs_reach_their_first_work(tmp_path, monkeypatch,
                                                        workloads):
    bench = workloads.PanelLasso(ROOT, tmp_path)
    _a, bases = bench._write_inputs({**bench.params, **bench.warm_up}, 1, "warm")
    for base in bases:
        for command in ("ingest", "lasso"):
            stop_at_work(monkeypatch, command)
            with pytest.raises(Sentinel):
                cli.run(command, str(base / f"{command}.json"),
                        out_dir=str(base / command))


def test_a_key_error_in_a_commands_work_is_not_a_config_error(
        tmp_path, monkeypatch, capsys):
    # a KeyError from the work itself once came out as "config field 'n':
    # missing" with exit code 2; it is a fault of the program, not of the
    # config, and propagates
    def work(*args, **kwargs):
        raise KeyError("n")

    monkeypatch.setattr(cli, "simulate_path", work)
    with pytest.raises(KeyError):
        cli.run("simulate", str(CONFIGS / "simulate_er.json"),
                out_dir=str(tmp_path / "sim"))
    assert "config field" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# a bad setting exits 2 with one line naming it, before any work

DELETE = object()


def _edited(tmp_path, name, edits):
    cfg = json.loads((CONFIGS / name).read_text())
    for path, value in edits.items():
        *parents, key = path.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
    out = tmp_path / name
    out.write_text(json.dumps(cfg))
    return str(out)


RADIAL = {"family": "radial_dictionary", "offsets": [1.0, 2.0],
          "exponents": [0.0, 0.5]}


@pytest.mark.parametrize("command,name,edits,overrides,path,message", [
    # missing
    ("simulate", "simulate_er.json", {"n": DELETE}, [], "n", "missing"),
    ("simulate", "simulate_er.json", {"model.drift": DELETE}, [],
     "model.drift", "missing"),
    ("lasso", "lasso_er.json", {}, ['penalty={"rule": "fixed_fraction"}'],
     "penalty.fraction", "missing"),
    # wrong type
    ("lasso", "lasso_er.json", {"refit": "false"}, [], "refit",
     "must be true or false, got 'false'"),
    ("simulate", "simulate_er.json", {"model.drift.with_intercepts": "false"}, [],
     "model.drift.with_intercepts", "must be true or false, got 'false'"),
    ("bench", "bench_error_bound_d8.json", {}, ["n_reps=many"], "n_reps",
     "must be an integer, got 'many'"),
    # out of range
    ("bench", "bench_error_bound_d8.json", {"n_reps": 0}, [], "n_reps",
     "must be positive, got 0"),
    ("bench", "recovery_polymer.json", {"penalty.holdout": 2}, [],
     "penalty.holdout", "must lie in (0, 1), got 2"),
    ("lasso", "lasso_er.json", {}, ["penalty.fraction=1.5"], "penalty.fraction",
     "must lie in (0, 1], got 1.5"),
    # not one of the allowed values
    ("bench", "recovery_er.json", {"diffusion": "cubic"}, [], "diffusion",
     "must be one of 'tanh_clipped', 'constant', got 'cubic'"),
    ("graph-gen", "graph_er.json", {"graph.kind": "tree"}, [], "graph.kind",
     "must be one of 'er_reference', 'er_fixed_edges', 'erdos_renyi', "
     "'polymer', 'sbm', 'edges', got 'tree'"),
    ("simulate", "simulate_er.json", {}, ['model.diffusion.family="cubic"'],
     "model.diffusion.family",
     "must be one of 'constant_diagonal', 'tanh_clipped', got 'cubic'"),
    # a boolean for a number, a fraction for an integer: at the top level,
    # nested and through --set
    ("bench", "recovery_polymer.json", {"n_seeds": True}, [], "n_seeds",
     "must be an integer, got True"),
    ("bench", "bench_error_bound_d8.json", {"n_reps": 2.7}, [], "n_reps",
     "must be an integer, got 2.7"),
    ("simulate", "simulate_er.json", {"delta": True}, [], "delta",
     "must be a number, got True"),
    ("bench", "recovery_polymer.json", {"penalty.n_points": 2.5}, [],
     "penalty.n_points", "must be an integer, got 2.5"),
    ("simulate", "simulate_er.json", {"model.diffusion.clip": True}, [],
     "model.diffusion.clip", "must be a number, got True"),
    ("bench", "recovery_er.json", {}, ["n_seeds=true"], "n_seeds",
     "must be an integer, got True"),
    ("simulate", "simulate_er.json", {}, ["n=2.5"], "n",
     "must be an integer, got 2.5"),
    ("lasso", "lasso_er.json", {}, ["penalty.fraction=true"], "penalty.fraction",
     "must be a number, got True"),
    # a bad entry of a list setting
    ("graph-gen", "graph_er.json", {"graph": {"kind": "edges", "d": 3,
                                              "edges": [1, 2]}}, [],
     "graph.edges", "must be a list of lists of integers, got [1, 2]"),
    ("graph-gen", "graph_er.json", {"graph": {"kind": "edges", "d": 3,
                                              "edges": [[0, 1, 2]]}}, [],
     "graph.edges", "must hold [child, parent] pairs, got [[0, 1, 2]]"),
    ("graph-gen", "graph_er.json", {"graph": {
        "kind": "polymer", "d": 4, "double_link_positions": [0.5]}}, [],
     "graph.double_link_positions", "must be a list of integers, got [0.5]"),
    ("bench", "recovery_sbm.json", {"graph.block_sizes": [4, 11.5, 6]}, [],
     "graph.block_sizes", "must be a list of integers, got [4, 11.5, 6]"),
    ("bench", "bench_error_bound_d8.json", {"horizons": ["ten"]}, [],
     "horizons", "must be a list of numbers, got ['ten']"),
    ("bench", "bench_error_bound_d8.json", {"reference.bound": [3.6, None]}, [],
     "reference.bound", "must be a list of numbers, got [3.6, None]"),
    ("bench", "recovery_polymer.json", {"x0": [0, 0, "a"]}, [],
     "x0", "must be a list of numbers, got [0, 0, 'a']"),
    ("bench", "recovery_polymer.json", {"mean_reversion": [10.0, "fast"]}, [],
     "mean_reversion",
     "must be a number or a list of numbers, got [10.0, 'fast']"),
    ("bench", "recovery_polymer.json", {"noise_scale": [2.0, 2.0]}, [],
     "noise_scale", "must have 12 entries, got [2.0, 2.0]"),
    ("simulate", "simulate_er.json", {"params.alpha": [2, [2]]}, [],
     "params.alpha", "must be a list of numbers, got [2, [2]]"),
    ("simulate", "simulate_er.json", {"params.beta": [7, None]}, [],
     "params.beta", "must be a list of numbers, got [7, None]"),
    ("simulate", "simulate_er.json",
     {"model.drift": {**RADIAL, "offsets": [1.0, "near"]}}, [],
     "model.drift.offsets", "must be a list of numbers, got [1.0, 'near']"),
    ("simulate", "simulate_er.json",
     {"model.drift": {**RADIAL, "exponents": [0.0, True]}}, [],
     "model.drift.exponents", "must be a list of numbers, got [0.0, True]"),
    ("communities", "graph_er.json", {"adjacency": [[0, 1], [1, "a"]]}, [],
     "adjacency", "must be a list of lists of numbers, got [[0, 1], [1, 'a']]"),
    ("communities", "graph_er.json", {"true_labels": ["a", "b"]}, [],
     "true_labels", "must be a list of numbers, got ['a', 'b']"),
    # an observation step, a horizon or a simulator setting out of range;
    # these once ended in a traceback, in an error that named no setting,
    # or in an empty report
    ("bench", "bench_error_bound_d8.json", {"delta": 0}, [], "delta",
     "must be positive and finite, got 0"),
    ("bench", "recovery_er.json", {"delta": 0}, [], "delta",
     "must be positive and finite, got 0"),
    ("bench", "bench_error_bound_d8.json", {"delta": -0.01}, [], "delta",
     "must be positive and finite, got -0.01"),
    ("bench", "recovery_polymer.json", {}, ["delta=Infinity"], "delta",
     "must be positive and finite, got inf"),
    ("bench", "recovery_polymer.json", {"horizon": 0}, [], "horizon",
     "must be positive and finite, got 0"),
    ("bench", "recovery_polymer.json", {"horizon": -2}, [], "horizon",
     "must be positive and finite, got -2"),
    ("bench", "recovery_polymer.json", {}, ["horizon=NaN"], "horizon",
     "must be positive and finite, got nan"),
    ("bench", "bench_error_bound_d8.json", {"horizons": []}, [], "horizons",
     "must be a non-empty list of positive finite numbers, got []"),
    ("bench", "bench_error_bound_d8.json", {"horizons": [10, 0]}, [], "horizons",
     "must be a non-empty list of positive finite numbers, got [10, 0]"),
    ("bench", "bench_error_bound_d8.json", {}, ["horizons=[10, NaN]"], "horizons",
     "must be a non-empty list of positive finite numbers, got [10, nan]"),
    ("bench", "recovery_er.json", {"substeps": 0}, [], "substeps",
     "must be at least 1, got 0"),
    ("bench", "bench_error_bound_d8.json", {"burn_in": -1}, [], "burn_in",
     "must be non-negative, got -1"),
    ("bench", "recovery_polymer.json", {"x0": [0.0, 0.0]}, [], "x0",
     "must have 12 entries, got [0.0, 0.0]"),
    ("simulate", "simulate_er.json", {"delta": 0}, [], "delta",
     "must be positive and finite, got 0"),
    ("simulate", "simulate_er.json", {"substeps": 0}, [], "substeps",
     "must be at least 1, got 0"),
    ("simulate", "simulate_er.json", {}, ["n=-200"], "n",
     "must be non-negative, got -200"),
])
def test_a_bad_setting_exits_2_naming_its_path(
        tmp_path, monkeypatch, capsys, command, name, edits, overrides, path,
        message):
    stop_at_work(monkeypatch, command)
    argv = [command, "--config", _edited(tmp_path, name, edits),
            "--out-dir", str(tmp_path / "out")]
    for item in overrides:
        argv += ["--set", item]
    assert cli.main(argv) == cli.USAGE_ERROR
    assert capsys.readouterr().err.splitlines() == [
        f"error: config field {path!r}: {message}"]


def test_a_check_on_the_data_stays_a_domain_error(tmp_path, capsys):
    # a holdout in range that leaves the pilot no increment depends on the
    # path's length as well, so it exits 1
    cfg = _edited(tmp_path, "recovery_polymer.json", {"horizon": 0.01})
    assert cli.run("bench", cfg, out_dir=str(tmp_path / "out")) == cli.DOMAIN_ERROR
    assert capsys.readouterr().err.splitlines() == [
        "error: holdout leaves no data for the pilot"]
