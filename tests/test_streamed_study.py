"""error_bound_study folds the Euler loop's rows into per-replication
moments and stores no path; these tests hold it to the path-based fit and
the simulator to its recorded output."""
import hashlib
import json
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from netsde.estimate import InsufficientDataError
from netsde.experiments import (StudyError, _study_spec, _study_truth,
                                error_bound_study, study_graph)
from netsde.simulate import (ExplosionError, derive_seeds, simulate_ensemble,
                             simulate_path)
from reference import error_bound_by_paths

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _load(name, **overrides):
    with open(CONFIGS / name, encoding="utf-8") as fh:
        return {**json.load(fh), **overrides}


def _assert_matches_paths(config):
    report = error_bound_study(config)
    want = error_bound_by_paths(config)
    assert len(report.rows) == len(want)
    for row, (mean_error, sd_error) in zip(report.rows, want):
        assert row["mean_error"] == pytest.approx(mean_error, rel=1e-12, abs=0)
        assert row["sd_error"] == pytest.approx(sd_error, rel=1e-12, abs=0)


def test_streamed_study_matches_path_fits_d8():
    _assert_matches_paths(_load("bench_error_bound_d8.json", n_reps=4))


def test_streamed_study_matches_path_fits_d16():
    _assert_matches_paths(_load("bench_error_bound_d16.json", n_reps=3))


def test_streamed_study_matches_path_fits_with_burn_in_inside_a_chunk():
    # 40 reps of d = 8 with 10 substeps take 312 intervals per noise chunk,
    # so a 500-interval burn-in ends inside the second chunk
    _assert_matches_paths(_load("bench_error_bound_d8.json", n_reps=40,
                                horizons=[4.0, 7.0], burn_in=500, seed=3))


def test_every_replication_fit_is_certified():
    for name, overrides in (("bench_error_bound_d8.json",
                             {"n_reps": 6, "horizons": [4.0, 10.0]}),
                            ("bench_error_bound_d16.json",
                             {"n_reps": 3, "horizons": [10.0]})):
        rows = error_bound_study(_load(name, **overrides)).rows
        assert [row["n_converged"] for row in rows] == [row["n_reps"] for row in rows]


def test_streamed_study_rejects_empty_cells():
    with pytest.raises(StudyError, match="n_reps must be positive"):
        error_bound_study(_load("bench_error_bound_d8.json", n_reps=0))
    # a horizon under half an observation step records no increment
    with pytest.raises(InsufficientDataError):
        error_bound_study(_load("bench_error_bound_d8.json", horizons=[0.004],
                                n_reps=2))


def _digest(rows) -> str:
    return hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest()


def _study_model(name):
    config = _load(name)
    g, _info = study_graph(config["graph"])
    spec = _study_spec(config, g.d)
    theta, _layout, _margin = _study_truth(config, spec, g)
    return spec, g, theta


# sha256 of the float64 rows the simulator recorded before its Euler loop
# handed rows to a consumer (numpy's bundled OpenBLAS, x86-64): rows must
# not move by a bit
DIGESTS = {
    "d16_ensemble": "71ba1c2ac661af574dad871f651b70c618a19cfbc76a8e91ee56729c13ab44d0",
    "d16_ensemble_burn_in": "1f960fddf719b6b356a0d7e8601c93bec581350e3f59dce09d9cc42d1beecf38",
    "d16_path": "0e5e20e53c170b223b6f9927cdab6b360952e63b1882cceaa1f801f8c404e518",
    "sbm_seed_block": "89a35204e391f590a3adfb60299c3d6e1d1ebd1e9b729b874fdf10c9b4689ad2",
    "sbm_path": "acc3b6a91e63fa56656a10c3195c86599ba5ddffbe25ce9addcd04d2833a0c87",
}


def test_simulator_rows_are_unchanged():
    spec, g, theta = _study_model("bench_error_bound_d16.json")
    seeds = derive_seeds(0, 200)[:3]
    args = (spec, g, theta, np.zeros(g.d), 0.01, 9600)
    got = {
        "d16_ensemble": simulate_ensemble(*args, seeds=seeds),
        "d16_ensemble_burn_in": simulate_ensemble(*args, seeds=seeds,
                                                  burn_in_steps=93),
        "d16_path": [simulate_path(*args, seed=seeds[0])],
    }
    # recovery_sbm's first seed block (14 seeds), at T = 20 instead of 800
    spec, g, theta = _study_model("recovery_sbm.json")
    seeds = derive_seeds(0, 30)[:14]
    args = (spec, g, theta, np.zeros(g.d), 0.01, 2000)
    got["sbm_seed_block"] = simulate_ensemble(*args, seeds=seeds)
    got["sbm_path"] = [simulate_path(*args, seed=seeds[0])]
    for name, paths in got.items():
        assert _digest(np.stack([p.data for p in paths])) == DIGESTS[name], name


def test_streamed_study_explodes_like_the_ensemble():
    # at h = 0.202 the Euler map's largest eigenvalue modulus is 1.014, so
    # the noise-driven states grow for hundreds of substeps; 100 reps of
    # d = 16 at one substep take 625 intervals per noise chunk, and the
    # first replication leaves the guard box in the second chunk
    config = _load("bench_error_bound_d16.json", delta=0.202, substeps=1,
                   horizons=[606.0], n_reps=100, seed=1)
    before = threading.active_count()
    with pytest.raises(ExplosionError) as study_err:
        error_bound_study(config)
    assert threading.active_count() == before
    spec, g, theta = _study_model("bench_error_bound_d16.json")
    with pytest.raises(ExplosionError) as ensemble_err:
        simulate_ensemble(spec, g, theta, np.zeros(g.d), 0.202, 3000,
                          seeds=derive_seeds(1, 100), substeps=1)
    assert study_err.value.step == ensemble_err.value.step > 625
    assert str(study_err.value) == str(ensemble_err.value)
    assert str(study_err.value).startswith("replication 71 ")


def test_streamed_study_stores_no_paths():
    config = _load("bench_error_bound_d8.json", horizons=[200.0], n_reps=40)
    paths_bytes = 40 * (20000 + 1) * 8 * 8  # 51 MB of float64 rows
    tracemalloc.start()
    try:
        error_bound_study(config)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < paths_bytes
