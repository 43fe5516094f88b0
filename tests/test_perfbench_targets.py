"""The traced benchmark wraps netsde functions by module and name
(perfbench/layers.py TARGETS) and reads some of their arguments by name;
a refactor that moves or renames one breaks the benchmark run, so it
fails here."""
import importlib
import inspect
from pathlib import Path

import numpy as np

from netsde import experiments, lasso
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


# the lasso names whose spans the traced run reads (lasso.psd_s,
# lambda_max_s, path_s, solve_s and kkt_s)
TRACED_LASSO = ("psd_project", "lambda_max", "lambda_path", "lsa_solve",
                "kkt_residual")


def test_select_graph_reaches_every_traced_lasso_name(monkeypatch):
    # the run wraps each module attribute holding one of these names; a
    # call that routes around all of them would read 0 there, not fail
    reached = dict.fromkeys(TRACED_LASSO, 0)
    for module in (lasso, experiments):
        for name in TRACED_LASSO:
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _name=name, **kwargs):
                reached[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    spec = NsdeSpec(d=3, drift=LinearDrift(), diffusion=TanhClipped(clip=100.0))
    g = build_graph(3, [(0, 1), (2, 1)])
    theta = parameter_layout(spec, g).pack(alpha=np.full(3, 2.0),
                                           momentum=np.full(3, 7.0),
                                           network=np.full(2, 2.0))
    path = simulate_path(spec, g, theta, np.zeros(3), 0.01, 2000, substeps=5,
                         seed=5)
    experiments.select_graph(path, spec, {"rule": "min", "n_points": 4})
    assert all(reached.values()), reached
