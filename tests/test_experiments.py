import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from netsde.estimate import _MomentFold
from netsde.experiments import (StudyError, StudyReport, cluster_lambda_curve,
                                detect_communities, error_bound_study,
                                find_er_graph_with_edges, label_agreement,
                                modularity, recovery_study,
                                reference_er_graph, run_study, select_graph,
                                study_graph)
from netsde.graph import (block_labels, build_graph, complete_graph,
                          ergodicity_margin, largest_singular_value, sbm)
from netsde.lasso import (LassoPath, adaptive_weights, estimate_adjacency,
                          lambda_path)
from netsde.model import (ConfigFieldError, ConstantDiagonal, LinearDrift,
                          NsdeSpec, TanhClipped, parameter_layout)
from netsde.simulate import SamplePath, simulate_path
from reference import flat_weights, one_block

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_reference_graph_is_the_documented_instance():
    g = reference_er_graph()
    assert g.d == 10
    assert g.n_edges == 22
    tau = largest_singular_value(2.0 * g.adjacency())
    assert tau == pytest.approx(5.2602, abs=5e-4)
    mu = np.full(10, 7.0)
    margin = ergodicity_margin(mu, 2.0 * g.adjacency(), mode="singular")
    assert margin == pytest.approx(1.7397953939206214, abs=1e-9)
    assert ergodicity_margin(mu, 2.0 * g.adjacency(), mode="rowsum") \
        == pytest.approx(-1.0)
    in_degrees = g.adjacency().sum(axis=1)
    assert in_degrees.max() == 4


def test_find_er_graph_is_deterministic():
    g1, used1, margin1 = find_er_graph_with_edges(10, 22, seed=12345)
    g2, used2, margin2 = find_er_graph_with_edges(10, 22, seed=12345)
    assert g1.edges == g2.edges and used1 == used2 and margin1 == margin2
    assert g1.n_edges == 22
    assert margin1 > 0.1
    mu = np.full(10, 7.0)
    assert ergodicity_margin(mu, 2.0 * g1.adjacency(), mode="singular") \
        == pytest.approx(margin1)
    with pytest.raises(StudyError):
        find_er_graph_with_edges(3, 7)


def test_study_graph_dispatch():
    g, info = study_graph({"kind": "er_reference"})
    assert g.d == 10 and info == {"kind": "er_reference"}
    g, info = study_graph({"kind": "er_fixed_edges", "d": 6, "n_edges": 8})
    assert g.n_edges == 8 and info["margin"] > 0.1 and "graph_seed" in info
    g, _ = study_graph({"kind": "erdos_renyi", "d": 5, "p": 1.0})
    assert g.n_edges == 20
    g, _ = study_graph({"kind": "polymer", "d": 5})
    assert (1, 0) in g.edges and (0, 1) in g.edges
    g, info = study_graph({"kind": "sbm", "block_sizes": [2, 2], "p_in": 1.0,
                           "p_ex": 0.0})
    assert g.n_edges == 4 and info["block_sizes"] == [2, 2]
    g, _ = study_graph({"kind": "edges", "d": 3, "edges": [[0, 1], [2, 0]]})
    assert g.edges == ((0, 1), (2, 0))
    with pytest.raises(ConfigFieldError, match="'kind': must be one of"):
        study_graph({"kind": "tree"})


def test_modularity_hand_value_and_detection():
    # two mutual pairs: w has weight-2 links inside each pair, Q = 1/2
    a = np.array([[0, 1, 0, 0],
                  [1, 0, 0, 0],
                  [0, 0, 0, 1],
                  [0, 0, 1, 0]])
    labels = detect_communities(a)
    assert np.array_equal(labels, [0, 0, 1, 1])
    assert modularity(a, labels) == pytest.approx(0.5, abs=1e-12)
    assert modularity(a, [0, 1, 2, 3]) < 0.5
    with pytest.raises(StudyError):
        modularity(a, [0, 0, 1])
    with pytest.raises(StudyError):
        detect_communities(np.zeros((2, 3)))


def test_detect_communities_on_planted_blocks():
    g = sbm([4, 5, 3], p_in=1.0, p_ex=0.0, seed=0)
    labels = detect_communities(g.adjacency())
    truth = block_labels([4, 5, 3])
    assert labels.max() + 1 == 3
    assert label_agreement(truth, labels) == 1.0

    empty = detect_communities(np.zeros((4, 4), dtype=int))
    assert np.array_equal(empty, [0, 1, 2, 3])
    assert modularity(np.zeros((4, 4)), empty) == 0.0


def test_label_agreement_matching():
    a = [0, 0, 1, 1, 2, 2]
    assert label_agreement(a, a) == 1.0
    # renaming labels must not change the score
    assert label_agreement(a, [2, 2, 0, 0, 1, 1]) == 1.0
    assert label_agreement(a, [0, 0, 1, 1, 2, 0]) == pytest.approx(5 / 6)
    # unequal label counts pad the confusion matrix
    assert label_agreement([0, 0, 1, 1], [0, 1, 2, 2]) == pytest.approx(0.75)
    assert label_agreement([], []) == 1.0
    with pytest.raises(StudyError):
        label_agreement([0, 1], [0, 1, 2])


def test_label_agreement_rejects_negative_and_fractional_labels():
    # a -1 label once wrapped onto the highest label (scored 0.5, not 0.25)
    # and 0.5 was truncated to 0
    with pytest.raises(StudyError, match="non-negative whole numbers"):
        label_agreement([-1, 0, 1, 2], [0, 0, 0, 0])
    with pytest.raises(StudyError, match="non-negative whole numbers"):
        label_agreement([0, 0, 1, 1], [0.0, 0.5, 1.0, 1.0])
    # whole numbers written as floats are labels like any other
    assert label_agreement([0.0, 0.0, 1.0, 1.0], [1, 1, 0, 0]) == 1.0


def small_error_bound_config():
    return {
        "study": "error_bound",
        "graph": {"kind": "edges", "d": 3, "edges": [[0, 1], [1, 2]]},
        "horizons": [5.0, 10.0],
        "delta": 0.02,
        "n_reps": 4,
        "substeps": 3,
        "seed": 7,
    }


def test_error_bound_study_normalization_and_rows():
    report = run_study(small_error_bound_config())
    assert report.study == "error_bound"
    assert len(report.rows) == 2
    pi = 2 * 3 + 2
    for row, horizon in zip(report.rows, [5.0, 10.0]):
        assert row["pi"] == pi
        assert row["K"] == pytest.approx(pi / 2)
        assert row["epsilon"] == pytest.approx(2 / horizon)
        assert row["bound"] == pytest.approx(pi / horizon)
        assert row["mean_error"] == pytest.approx(row["raw_mean"] / pi)
        assert row["mean_error_se"] == row["sd_error"] / 2.0  # sqrt(4 reps)
        assert isinstance(row["below_bound"], bool)
    assert report.summary["pi_total"] == pi
    assert np.isfinite(report.summary["slope_log_error_vs_log_horizon"])
    # same config, same seeds, same numbers
    again = error_bound_study(small_error_bound_config())
    assert again.rows[0]["mean_error"] == report.rows[0]["mean_error"]


def test_error_bound_study_reference_flags():
    base = run_study(small_error_bound_config())
    cfg = small_error_bound_config()
    cfg["reference"] = {
        "mean_error": [base.rows[0]["mean_error"], base.rows[1]["mean_error"]],
        "bound": [base.rows[0]["bound"], 999.0],
        "band": 0.5,
    }
    report = error_bound_study(cfg)
    assert report.rows[0]["within_reference_band"] is True
    assert report.rows[1]["within_reference_band"] is True
    assert report.summary["all_within_reference_band"] is True
    assert report.rows[0]["bound_matches_reference"] is True
    assert report.rows[1]["bound_matches_reference"] is False
    assert len(report.notes) == 1 and "disagrees" in report.notes[0]


def test_error_bound_study_rejects_unstable_config():
    cfg = small_error_bound_config()
    cfg["coupling"] = 50.0
    with pytest.raises(StudyError, match="not ergodic"):
        error_bound_study(cfg)
    with pytest.raises(ConfigFieldError, match="'study': must be one of"):
        run_study({"study": "bootstrap"})


def test_recovery_study_polymer_fields():
    report = run_study({
        "study": "recovery",
        "graph": {"kind": "polymer", "d": 4},
        "horizon": 20.0,
        "delta": 0.01,
        "substeps": 5,
        "n_seeds": 2,
        "seed": 3,
        "penalty": {"rule": "fixed_fraction", "fraction": 0.1},
        "refit": True,
    })
    assert len(report.rows) == 2
    assert report.summary["n_true_edges"] == 4  # chain of 3 plus one reverse
    for row in report.rows:
        assert row["n_selected"] >= 0
        assert 0.0 <= row["precision"] <= 1.0
        assert 0.0 <= row["recall"] <= 1.0
        assert row["false_reverse_links"] >= 0
        assert np.isfinite(row["refit_alpha_max_abs_err"])
        assert row["selected_lambda"] == pytest.approx(0.1 * row["lambda_max"])
    assert 0.0 <= report.summary["no_false_reverse_rate"] <= 1.0
    assert 0.0 <= report.summary["recovery_rate"] <= 1.0
    assert "refit_alpha_max_abs_err" in report.summary


def test_recovery_study_sbm_fields():
    report = recovery_study({
        "study": "recovery",
        "graph": {"kind": "sbm", "block_sizes": [2, 2], "p_in": 1.0,
                  "p_ex": 0.0, "seed": 0},
        "coupling": 0.5,
        "horizon": 20.0,
        "delta": 0.01,
        "substeps": 5,
        "n_seeds": 2,
        "seed": 11,
        "penalty": {"rule": "fixed_fraction", "fraction": 0.1},
        "refit": False,
    })
    for row in report.rows:
        assert 0.0 <= row["agreement"] <= 1.0
        assert row["n_communities"] >= 1
        assert "refit_alpha_max_abs_err" not in row
    assert 0.0 <= report.summary["mean_agreement"] <= 1.0
    assert report.summary["agreement_threshold"] == 0.9
    assert "high_agreement_rate" in report.summary


def test_select_graph_with_validation_curve():
    spec = NsdeSpec(d=3, drift=LinearDrift(), diffusion=TanhClipped(clip=100.0))
    g, _ = study_graph({"kind": "edges", "d": 3, "edges": [[0, 1], [2, 1]]})
    layout = parameter_layout(spec, g)
    theta = layout.pack(alpha=np.full(3, 2.0), momentum=np.full(3, 7.0),
                        network=np.full(2, 2.0))
    path = simulate_path(spec, g, theta, np.zeros(3), 0.01, 4000, substeps=5,
                         seed=5)
    a_hat, lam, lpath, pilot, _mom = select_graph(
        path, spec, {"rule": "half_se", "n_points": 8, "holdout": 0.3})
    assert a_hat.shape == (3, 3)
    assert lpath.validation_loss is not None and lpath.validation_se is not None
    assert lam in lpath.lambdas
    assert pilot.converged
    # the held-out loss is flat here, so half_se stops at lambda_max, the
    # empty graph, although the minimum lies further down; a note says so
    loss, se = lpath.validation_loss, lpath.validation_se
    best = int(np.argmin(loss))
    assert lam == lpath.lambdas[0] and best > 0 and not a_hat.any()
    notes = [note for note in lpath.notes if "lambda_max" in note]
    assert len(notes) == 1
    for value in (f"{loss[0]:.6g}", f"{loss[best]:.6g}", f"{se[best]:.3g}"):
        assert value in notes[0]
    with pytest.raises(ConfigFieldError, match="'holdout': must lie in"):
        select_graph(path, spec, {"rule": "half_se", "holdout": 1.0})
    # one adjacency estimate per penalty level, read off each solution
    # through the pilot's layout
    assert len(lpath.adjacency) == len(lpath.lambdas) == 8
    assert np.array_equal(lpath.adjacency[0], a_hat)
    for flat, a in zip(lpath.coefficients, lpath.adjacency):
        assert np.array_equal(a, estimate_adjacency(pilot.layout, flat))
    assert lpath.adjacency[-1].any()
    a_fixed, _lam, fixed, _pilot, _mom = select_graph(
        path, spec, {"rule": "fixed_fraction", "fraction": 0.1})
    assert len(fixed.adjacency) == len(fixed.lambdas) == 1
    assert np.array_equal(a_fixed, fixed.adjacency[0])


def test_select_graph_leaves_the_intercepts_unpenalized():
    # weighted like edges, these intercepts were shrunk, one of them set
    # lambda_max (above 440 here) and edges went missing
    spec = NsdeSpec(d=4, drift=LinearDrift(with_intercepts=True),
                    diffusion=ConstantDiagonal())
    g = build_graph(4, [(1, 0), (2, 1), (3, 2), (0, 3)])
    theta = parameter_layout(spec, g).pack(
        alpha=np.ones(4), momentum=np.full(4, 7.0), network=np.full(4, 2.0),
        intercepts=[3.0, -2.0, 1.5, 0.5])
    for seed in (3, 4):
        path = simulate_path(spec, g, theta, np.zeros(4), 0.01, 20000,
                             substeps=5, seed=seed)
        a_hat, _lam, lpath, pilot, _mom = select_graph(
            path, spec, {"rule": "fixed_fraction", "fraction": 0.1})
        assert lpath.lambda_max < 200.0
        assert np.array_equal(a_hat, g.adjacency())
        assert not adaptive_weights(pilot)[pilot.layout.intercept_indices].any()


def no_fold(monkeypatch):
    """Make building a moments fold, the first work on a path, fail."""
    def fold(*args, **kwargs):
        raise AssertionError("a path was folded")

    monkeypatch.setattr(_MomentFold, "__init__", fold)


def test_select_graph_rejects_an_unknown_rule_before_fitting(monkeypatch):
    no_fold(monkeypatch)
    spec = NsdeSpec(d=2, drift=LinearDrift(), diffusion=TanhClipped(clip=100.0))
    path = SamplePath(delta=0.01, data=np.zeros((50, 2)))
    with pytest.raises(ConfigFieldError, match="'rule': must be one of "
                                              ".*, got 'bogus'"):
        select_graph(path, spec, {"rule": "bogus"})


def test_switches_must_be_booleans(monkeypatch):
    # bool("false") is True: a string switch is an error naming its key
    no_fold(monkeypatch)
    spec = NsdeSpec(d=2, drift=LinearDrift(), diffusion=TanhClipped(clip=100.0))
    path = SamplePath(delta=0.01, data=np.zeros((50, 2)))
    with pytest.raises(ConfigFieldError, match="'penalize_momentum': must be "
                                              "true or false, got 'false'"):
        select_graph(path, spec, {"rule": "fixed_fraction", "fraction": 0.5,
                                  "penalize_momentum": "false"})
    with pytest.raises(ConfigFieldError,
                       match="'refit': must be true or false, got 0"):
        recovery_study({"graph": {"kind": "polymer", "d": 4}, "refit": 0})


def test_cluster_lambda_curve_keys():
    rng = np.random.default_rng(9)
    d = 3
    n_w = d * (d - 1)
    p = 2 * d + n_w
    a = rng.standard_normal((p, p))
    h = a.T @ a + 0.5 * np.eye(p)
    spec = NsdeSpec(d=d, drift=LinearDrift(), diffusion=TanhClipped(clip=100.0))
    layout = parameter_layout(spec, complete_graph(d), augmented=True)
    pilot = layout.pack(alpha=np.ones(d), momentum=np.zeros(d),
                        network=rng.standard_normal(n_w) * 2.0)
    lpath = lambda_path(one_block(h), pilot, flat_weights(pilot, 2 * d), n_points=6)
    lpath.adjacency = estimate_adjacency(layout, lpath.coefficients)
    curve = cluster_lambda_curve(lpath)
    assert len(curve) == 6
    for pt in curve:
        assert set(pt) == {"lambda", "n_edges", "n_communities", "modularity"}
    assert curve[0]["n_edges"] == 0

    bare = LassoPath(lambdas=np.array([1.0]), coefficients=layout.flatten(pilot)[None],
                     active_counts=np.array([0]), lambda_max=1.0)
    with pytest.raises(StudyError):
        cluster_lambda_curve(bare)


def test_study_report_serialization():
    report = StudyReport(
        study="demo",
        config={"alpha": np.float64(1.5)},
        rows=[{"a": np.int64(3), "b": [1, 2], "c": 0.25},
              {"a": 4, "d": np.bool_(True)}],
        summary={"done": np.bool_(True)},
        notes=["first, second"])
    payload = json.loads(report.to_json())
    assert payload["config"]["alpha"] == 1.5
    assert payload["rows"][1]["d"] is True
    assert payload["summary"]["done"] is True
    assert payload["notes"] == ["first, second"]

    csv_text = report.rows_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "a,b,c,d"
    assert lines[1] == "3,[1; 2],0.25,"
    assert lines[2] == "4,,,True"


# each study kind shrunk to a short horizon and one or two replications
TINY_STUDY = {"error_bound": {"horizons": [4.0], "n_reps": 2},
              "recovery": {"horizon": 10.0, "n_seeds": 1}}


@pytest.mark.filterwarnings("ignore:validation blocks hold")
@pytest.mark.parametrize("name", sorted(
    p.name for p in CONFIGS.glob("*.json")
    if "study" in json.loads(p.read_text(encoding="utf-8"))))
def test_every_shipped_study_config_runs(name):
    cfg = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    report = run_study({**cfg, **TINY_STUDY[cfg["study"]]})
    assert len(report.rows) == 1


def test_report_json_is_strict_with_one_replication_and_one_horizon():
    # one replication has no sd and one horizon no slope: both are written
    # as null, without numpy's degrees-of-freedom warning
    cfg = {**small_error_bound_config(), "horizons": [5.0], "n_reps": 1}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = error_bound_study(cfg)

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(report.to_json(), parse_constant=reject)
    row = payload["rows"][0]
    assert row["sd_error"] is None and row["raw_sd"] is None
    assert row["mean_error_se"] is None
    assert np.isfinite(row["mean_error"])
    assert payload["summary"]["slope_log_error_vs_log_horizon"] is None
    # to_dict keeps the floats as they are
    assert np.isnan(report.to_dict()["rows"][0]["sd_error"])
