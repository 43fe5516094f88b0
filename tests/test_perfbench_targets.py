"""The traced benchmark wraps netsde functions by module and name
(perfbench/layers.py TARGETS) and reads some of their arguments by name;
a refactor that moves or renames one breaks the benchmark run, so it
fails here."""
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from netsde import estimate, experiments, lasso
from netsde.graph import build_graph
from netsde.model import LinearDrift, NsdeSpec, TanhClipped, parameter_layout
from netsde.simulate import simulate_path

ROOT = Path(__file__).resolve().parent.parent

# the argument names perfbench/layers.py's span and count hooks read
HOOK_ARGUMENTS = {
    "fit_adaptive_closed_form": ("augmented",),
    "find_er_graph_with_edges": ("seed",),
    "simulate_ensemble": ("spec", "n", "substeps", "burn_in_steps", "seeds"),
    "simulate_path": ("spec", "n", "substeps", "burn_in_steps"),
    "load_panel_csv": ("file_path",),
    "run": ("out_dir",),
}


def _targets(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench.layers").TARGETS


def test_every_trace_target_is_a_package_function(monkeypatch):
    targets = _targets(monkeypatch)
    assert targets
    for target in targets:
        fn = getattr(importlib.import_module(target.module), target.attr, None)
        assert inspect.isfunction(fn), f"{target.module}.{target.attr}"
        assert fn.__module__ == target.module
        params = inspect.signature(fn).parameters
        for name in HOOK_ARGUMENTS.get(target.attr, ()):
            assert name in params, f"{target.attr} lost its {name!r} argument"


# the names whose spans the traced run reads: lasso.psd_s, lambda_max_s,
# path_s, solve_s, kkt_s and validation_s, and estimate.scale_s and
# loglik_s
TRACED_LASSO = ("psd_project", "lambda_max", "lambda_path", "lsa_solve",
                "kkt_residual", "validation_loss")
TRACED_ESTIMATE = ("fit_diffusion_scale", "quasi_loglik")


def _counted_calls(monkeypatch, names):
    """Wrap each attribute of the pipeline's modules that holds one of the
    names, as the traced run does, and count the calls through them: a
    call that routes around all of them would read 0 there, not fail."""
    reached = dict.fromkeys(names, 0)
    for module in (estimate, lasso, experiments):
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _name=name, **kwargs):
                reached[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return reached


def _selection():
    spec = NsdeSpec(d=3, drift=LinearDrift(), diffusion=TanhClipped(clip=100.0))
    g = build_graph(3, [(0, 1), (2, 1)])
    theta = parameter_layout(spec, g).pack(alpha=np.full(3, 2.0),
                                           momentum=np.full(3, 7.0),
                                           network=np.full(2, 2.0))
    path = simulate_path(spec, g, theta, np.zeros(3), 0.01, 2000, substeps=5,
                         seed=5)
    experiments.select_graph(path, spec, {"rule": "min", "n_points": 4})


def _error_bound():
    experiments.error_bound_study({
        "graph": {"kind": "er_fixed_edges", "d": 4, "n_edges": 3, "seed": 1},
        "horizons": [2.0], "n_reps": 2})


def test_select_graph_reaches_every_traced_lasso_name(monkeypatch):
    reached = _counted_calls(monkeypatch, TRACED_LASSO)
    _selection()
    assert all(reached.values()), reached


@pytest.mark.parametrize("run", [_selection, _error_bound],
                         ids=["select_graph", "error_bound_study"])
def test_pipeline_reaches_every_traced_estimate_name(monkeypatch, run):
    reached = _counted_calls(monkeypatch, TRACED_ESTIMATE)
    run()
    assert all(reached.values()), reached
