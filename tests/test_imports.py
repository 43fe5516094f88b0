"""`import netsde`, simulation, every fit, selection and the studies
load numpy alone.

scipy serves only label_agreement (the assignment solver) and the dense
branch of lasso.curvature_blocks (connected components), and each
imports it when called.  Every check runs in a
fresh interpreter, so nothing this test session imported counts.
"""
import json
import subprocess
import sys
from pathlib import Path

import netsde

SRC = str(Path(netsde.__file__).resolve().parent.parent)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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
                    simulate_path)
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
a_hat, lam, lpath, pilot = select_graph(path, spec, {{"rule": "half_se"}})
with open({str(CONFIGS / "bench_error_bound_d8.json")!r}) as fh:
    cfg = json.load(fh)
cfg.update(n_reps=2, horizons=cfg["horizons"][:1])
report = error_bound_study(cfg)
print(json.dumps({{"scipy": scipy_modules(),
                  "converged": all(f.converged for f in [fit] + fits),
                  "selected": bool(lam in lpath.lambdas),
                  "validated": lpath.validation_loss is not None,
                  "cells": len(report.rows)}}))
""")
    assert out["scipy"] == []
    assert out["converged"] and out["validated"]
    assert out["selected"] and out["cells"] == 1


def test_scipy_users_import_it_on_demand():
    out = run_fresh("""
import numpy as np
from netsde import label_agreement
from netsde.lasso import curvature_blocks

before = scipy_modules()
agreement = label_agreement([0, 0, 1, 1], [1, 1, 0, 0])
blocks = curvature_blocks(np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0],
                                    [1.0, 0.0, 2.0]]))
print(json.dumps({"before": before, "after": scipy_modules(),
                  "agreement": agreement,
                  "members": sorted(m for idx, _ in blocks.groups for m in idx.tolist())}))
""")
    assert out["before"] == []
    assert {"scipy.optimize", "scipy.sparse.csgraph"} <= set(out["after"])
    assert out["agreement"] == 1.0
    assert out["members"] == [[0, 2], [1]]
