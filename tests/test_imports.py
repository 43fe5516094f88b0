"""What the package imports and exports.

`import netsde`, simulation, every fit, selection and the studies load
numpy alone.  scipy serves only label_agreement (the assignment solver),
which imports it when called; the lasso takes a dense curvature matrix
as one block and needs no scipy.  Every such check runs in a fresh
interpreter, so nothing this test session imported counts.

Every function netsde exports runs in its own pipeline, or the benchmark
wraps it; one that only the tests use lives in tests/reference.py.
"""
import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import netsde

PACKAGE = Path(netsde.__file__).resolve().parent
SRC = str(PACKAGE.parent)
ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

PRELUDE = f"""
import json, sys
sys.path.insert(0, {SRC!r})

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""


def run_fresh(code: str) -> dict:
    """Run code after PRELUDE in a fresh interpreter; returns the JSON
    object it prints last."""
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    out = run_fresh("""
import netsde, netsde.cli
assert netsde.__file__.startswith(sys.path[0]), netsde.__file__
print(json.dumps({"scipy": scipy_modules()}))
""")
    assert out["scipy"] == []


def test_simulate_fit_select_and_study_load_no_scipy():
    out = run_fresh(f"""
import numpy as np
from netsde import (LinearDrift, NsdeSpec, TanhClipped, build_graph,
                    fit_adaptive_closed_form, fit_qmle, parameter_layout,
                    simulate_path, two_step_refit)
from netsde.experiments import error_bound_study, select_graph

d = 4
g = build_graph(d, [(i, (i - 1) % d) for i in range(d)])
spec = NsdeSpec(d=d, drift=LinearDrift(), diffusion=TanhClipped(clip=100.0))
theta = parameter_layout(spec, g).pack(alpha=np.full(d, 2.0),
                                       momentum=np.full(d, 7.0),
                                       network=np.full(d, 2.0))
path = simulate_path(spec, g, theta, np.zeros(d), 0.01, 3000, substeps=5, seed=3)
fit = fit_adaptive_closed_form(path, spec, g)
fits = [fit_qmle(path, spec, g, mode=mode) for mode in ("adaptive", "joint")]
a_hat, lam, lpath, pilot, mom = select_graph(path, spec, {{"rule": "half_se"}})
refit = two_step_refit(spec, a_hat, mom, pilot.layout, path.delta)
with open({str(CONFIGS / "bench_error_bound_d8.json")!r}) as fh:
    cfg = json.load(fh)
cfg.update(n_reps=2, horizons=cfg["horizons"][:1])
report = error_bound_study(cfg)
print(json.dumps({{"scipy": scipy_modules(),
                  "converged": all(f.converged for f in [fit, refit] + fits),
                  "selected": bool(lam in lpath.lambdas),
                  "validated": lpath.validation_loss is not None,
                  "cells": len(report.rows)}}))
""")
    assert out["scipy"] == []
    assert out["converged"] and out["validated"]
    assert out["selected"] and out["cells"] == 1


def test_scipy_users_import_it_on_demand():
    out = run_fresh("""
import warnings
import numpy as np
from netsde import ParamVector, label_agreement, lsa_solve, psd_project

h = np.array([[2.0, 0.0, 1.0], [0.0, -3.0, 0.0], [1.0, 0.0, 2.0]])
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # h is indefinite; the repair warns
    fixed = psd_project(h)
sol = lsa_solve(fixed, ParamVector(alpha=np.zeros(0), beta=[1.0, 2.0, -1.0]),
                0.1, np.ones(3))
dense = scipy_modules()
agreement = label_agreement([0, 0, 1, 1], [1, 1, 0, 0])
print(json.dumps({"dense": dense, "after": scipy_modules(),
                  "agreement": agreement,
                  "solved": bool(np.all(np.isfinite(sol.flat())))}))
""")
    assert out["dense"] == []
    assert "scipy.optimize" in out["after"]
    assert out["agreement"] == 1.0
    assert out["solved"]


def _package_loads() -> set[str]:
    """Every name the package's modules (but __init__) load, leaving out
    each top-level definition's loads of its own name."""
    loads = set()
    for file in PACKAGE.glob("*.py"):
        if file.name == "__init__.py":
            continue
        for top in ast.parse(file.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            loads.update(node.id for node in ast.walk(top)
                         if isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Load) and node.id != own)
    return loads


def test_every_exported_function_runs_in_the_package(monkeypatch):
    # the benchmark wraps some functions by name (perfbench/layers.py
    # TARGETS), so those stay whoever calls them
    monkeypatch.syspath_prepend(str(ROOT))
    wrapped = {t.attr for t in importlib.import_module("perfbench.layers").TARGETS}
    loads = _package_loads()
    unused = [name for name in netsde.__all__
              if inspect.isfunction(getattr(netsde, name))
              and name not in loads and name not in wrapped]
    assert unused == []
