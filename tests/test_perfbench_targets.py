"""The traced benchmark wraps netsde functions by module and name
(perfbench/layers.py TARGETS) and reads some of their arguments by name;
a refactor that moves or renames one breaks the benchmark run, so it
fails here."""
import importlib
import inspect
from pathlib import Path

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
