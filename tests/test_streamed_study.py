"""error_bound_study and recovery_study fold the Euler loop's rows into
per-replication moments and store no path; these tests hold them to the
path-based fits and selection, and the simulator to its recorded
output."""
import hashlib
import json
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsde import estimate, experiments, model, simulate
from netsde.estimate import _derivatives, _MomentFold, _node_terms
from netsde.experiments import (StudyError, _edge_scores, _refit_scores,
                                _study_spec, _study_truth, error_bound_study,
                                recovery_study, select_graph, study_graph)
from netsde.graph import build_graph, complete_graph
from netsde.model import (ConfigFieldError, ConstantDiagonal,
                          LayoutMismatchError, LinearDrift, NsdeSpec, RadialDictionaryDrift, TanhClipped,
                          diffusion_shape, parameter_layout)
from netsde.simulate import (ExplosionError, SamplePath, _euler, derive_seeds,
                             simulate_ensemble, simulate_path)
from reference import (error_bound_by_paths, hessian_by_rows, node_designs,
                       recovery_by_paths)

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


def test_streamed_study_matches_path_fits_with_constant_diffusion():
    # ConstantDiagonal hands the fold no shape factors
    _assert_matches_paths(_load("bench_error_bound_d8.json", n_reps=4,
                                diffusion="constant", horizons=[10.0, 20.0]))


def test_the_fold_evaluates_no_diffusion_shape_and_no_path_moments(monkeypatch):
    def recompute(*args, **kwargs):
        raise AssertionError("the fold recomputed what the Euler loop handed on")

    for module, name in ((estimate, "_path_moments"), (estimate, "diffusion_shape"),
                         (model, "diffusion_shape")):
        monkeypatch.setattr(module, name, recompute)
    rows = error_bound_study(_load("bench_error_bound_d8.json", n_reps=3,
                                   horizons=[5.0], burn_in=7)).rows
    assert rows[0]["n_converged"] == 3


def test_the_euler_loop_hands_on_the_diffusion_shape_bit_for_bit():
    # 40 reps of d = 8 take 312 intervals per chunk: the burn-in ends
    # inside the first chunk and the rows span three
    spec, g, theta = _study_model("bench_error_bound_d8.json")
    seeds = derive_seeds(4, 40)
    paths = simulate_ensemble(spec, g, theta, np.zeros(g.d), 0.01, 600,
                              seeds=seeds, burn_in_steps=100)
    rows = np.stack([p.data for p in paths])
    handed = []

    def consume(lo, block, shape):
        assert np.array_equal(block, rows[:, lo:lo + block.shape[1]])
        handed.append((lo, shape.copy()))

    _euler(spec, g, theta, np.zeros(g.d), 0.01, 600, 10, 100, seeds=seeds,
           dW=None, ensemble=True, consume=consume)
    assert [lo for lo, _shape in handed] == [0, 213, 525]
    want = diffusion_shape(spec, rows)
    for lo, shape in handed:
        # the state before row 0 ended the burn-in and is not recorded
        got = spec.diffusion.clip * shape[:, max(1 - lo, 0):]
        assert np.array_equal(got, want[:, max(lo - 1, 0):lo + shape.shape[1] - 1])


PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
RADIAL = RadialDictionaryDrift(offsets=(1.0, 2.0), exponents=(0.0, 0.5))


@st.composite
def fold_cases(draw):
    """Rows of 1 to 5 replications at d = 2..6 (node 0 regresses on no
    partner) under a linear drift with or without intercepts or a radial
    one, weighted by a constant or tanh-clipped diffusion or by caller
    weights.  The rows are fed in chunks of 1 to 9 rows, with burn_in
    after an interval the fold never sees, and each replication's
    increments are summed in uneven chunks (sizes) or as one."""
    d = draw(st.integers(2, 6))
    reps = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    burn_in = draw(st.booleans())
    family = draw(st.sampled_from(["linear", "intercepts", "radial"]))
    weights = draw(st.sampled_from(["constant", "tanh", "caller"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges = [(i, j) for i in range(1, d) for j in range(d)
             if i != j and rng.random() < 0.5]
    feed = draw(st.lists(st.integers(1, 9), min_size=1, max_size=n + 1))
    cuts = np.cumsum(feed)
    cuts = np.r_[cuts[cuts < n + 1], n + 1]
    sizes = None
    if draw(st.booleans()):
        sizes = np.diff(np.unique(np.r_[0, rng.integers(0, n + 1, 3), n])).tolist()
    spec = NsdeSpec(d=d, drift=RADIAL if family == "radial"
                    else LinearDrift(with_intercepts=family == "intercepts"),
                    diffusion=TanhClipped(clip=rng.uniform(0.5, 5.0))
                    if weights == "tanh" else ConstantDiagonal())
    # the fold works through pieces of at most piece_bytes of design and
    # at least one row: 1 makes every piece one row of one replication;
    # None keeps the class's budget and row floor
    piece_bytes = draw(st.sampled_from([1, 2000, None]))
    # with syrk every design, not only a wide one, takes the symmetric
    # product
    syrk = draw(st.booleans())
    rows = 3.0 * rng.standard_normal((reps, n + 1, d))
    scale = (rng.uniform(0.2, 3.0, (reps, n, d)) if weights == "caller"
             else diffusion_shape(spec, rows[:, :-1]))
    layout = parameter_layout(spec, build_graph(d, edges))
    # a parameter point for the information: scales in [0.5, 2] and drift
    # coefficients away from any optimum
    flat = np.r_[rng.uniform(0.5, 2.0, d),
                 rng.standard_normal(layout.pi_total - d)]
    return (spec, build_graph(d, edges), rows, scale, weights, cuts, sizes,
            burn_in, piece_bytes, syrk, flat)


@given(case=fold_cases())
@PROPERTY
def test_the_fold_matches_the_moments_of_each_stored_path(case):
    (spec, g, rows, scale, weights, cuts, sizes, burn_in, piece_bytes, syrk,
     flat) = case
    layout = parameter_layout(spec, g)
    # the Euler loop hands on views of (rows, reps, d) buffers; the factor
    # handed with row t weighs the increment that ends there, and before
    # row 0 it is NaN, which must not reach the sums
    by_row = np.ascontiguousarray(rows.transpose(1, 0, 2))
    handed, factor = None, 1.0
    if weights != "constant":
        handed = np.full_like(by_row, np.nan)
        handed[1:] = scale.transpose(1, 0, 2)
        if weights == "tanh":
            factor = spec.diffusion.clip
            handed /= factor
    fold = _MomentFold(spec, layout, sizes, factor=factor)
    if piece_bytes is not None:
        fold._GROUP_BYTES, fold._PIECE_ROWS = piece_bytes, 1
    if syrk:
        fold._SYRK_ROWS = 0
    lo = 0
    if not burn_in:
        fold(0, by_row[:1].transpose(1, 0, 2), None)
        lo = 1
    for hi in cuts:
        if hi > lo:
            fold(lo, by_row[lo:hi].transpose(1, 0, 2),
                 None if handed is None else handed[lo:hi].transpose(1, 0, 2))
            lo = hi
    got = fold.moments()
    n = rows.shape[1] - 1
    bounds = np.cumsum([0] + (sizes or [n]))
    chunks = len(bounds) - 1
    for r in range(rows.shape[0]):
        x0, dx = rows[r, :-1], np.diff(rows[r], axis=0)
        designs = node_designs(spec, layout, x0)
        for c, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            mine = got.chunk(r * chunks + c)
            s = scale[r, a:b]
            std = dx[a:b] / s
            assert mine.count.tolist() == [b - a]
            pairs = [(mine.sq[0], np.sum(std * std, axis=0)),
                     (mine.log_scale[0], np.sum(np.log(s * s), axis=0))]
            for j, (reg, slots) in enumerate(designs):
                assert np.array_equal(mine.slots[j], slots)
                z = reg[a:b] / s[:, j, None]
                pairs += [(mine.gram[j][0], np.einsum("tq,tk->qk", z, z)),
                          (mine.cross[j][0], z.T @ std[:, j])]
            for have, want in pairs:
                assert have.shape == want.shape
                np.testing.assert_allclose(have, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())
        if weights == "caller":
            continue
        # the observed information read off the moments is the row-by-row
        # Hessian of the contrast
        delta = 0.05
        want = hessian_by_rows(SamplePath(delta=delta, data=rows[r]), spec, g,
                               layout, flat)
        own = got.chunk(slice(r * chunks, (r + 1) * chunks))
        info = _derivatives(own, flat, delta, _node_terms(own, flat, delta))[1].dense()
        np.testing.assert_allclose(info, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())


def test_every_replication_fit_is_certified():
    for name, overrides in (("bench_error_bound_d8.json",
                             {"n_reps": 6, "horizons": [4.0, 10.0]}),
                            ("bench_error_bound_d16.json",
                             {"n_reps": 3, "horizons": [10.0]})):
        rows = error_bound_study(_load(name, **overrides)).rows
        assert [row["n_converged"] for row in rows] == [row["n_reps"] for row in rows]


def test_streamed_study_rejects_empty_cells():
    with pytest.raises(ConfigFieldError, match="'n_reps': must be positive"):
        error_bound_study(_load("bench_error_bound_d8.json", n_reps=0))
    # a horizon under half an observation step records no increment: a
    # config error naming the setting
    with pytest.raises(ConfigFieldError,
                       match="'horizons': must be more than half of delta"):
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


# ---------------------------------------------------------------------------
# recovery study


@st.composite
def restriction_cases(draw):
    """Rows of 1 to 3 replications at d = 2..6 on a graph (complete for
    the linear families, as the selection pilot's is) and a sub-graph of
    it, under a linear drift with or without intercepts or a radial one,
    weighted by a constant or tanh-clipped diffusion, summed in uneven
    chunks or as one."""
    d = draw(st.integers(2, 6))
    reps = draw(st.integers(1, 3))
    n = draw(st.integers(2, 40))
    family = draw(st.sampled_from(["linear", "intercepts", "radial"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    full = complete_graph(d).edges
    if family == "radial":
        full = [e for e in full if rng.random() < 0.7]
    sub = [e for e in full if rng.random() < draw(st.sampled_from([0.0, 0.5, 1.0]))]
    spec = NsdeSpec(d=d, drift=RADIAL if family == "radial"
                    else LinearDrift(with_intercepts=family == "intercepts"),
                    diffusion=draw(st.sampled_from(
                        [ConstantDiagonal(), TanhClipped(clip=2.0)])))
    sizes = None
    if draw(st.booleans()):
        sizes = np.diff(np.unique(np.r_[0, rng.integers(0, n + 1, 3), n])).tolist()
    rows = 3.0 * rng.standard_normal((reps, n + 1, d))
    return (spec, parameter_layout(spec, build_graph(d, full)),
            parameter_layout(spec, build_graph(d, sub)), rows, sizes)


def _fold_rows(spec, layout, rows, sizes):
    shape = None
    if not isinstance(spec.diffusion, ConstantDiagonal):
        shape = diffusion_shape(spec, rows[:, :-1])
    fold = _MomentFold(spec, layout, sizes)
    fold(0, rows[:, :1], None)
    fold(1, rows[:, 1:], shape)
    return fold.moments()


@given(case=restriction_cases())
@PROPERTY
def test_restricted_moments_are_the_sub_graph_fold(case):
    spec, full, sub, rows, sizes = case
    got = _fold_rows(spec, full, rows, sizes).restrict(full, sub)
    want = _fold_rows(spec, sub, rows, sizes)
    assert np.array_equal(got.count, want.count)
    assert np.array_equal(got.sq, want.sq)
    assert np.array_equal(got.log_scale, want.log_scale)
    for j in range(spec.d):
        assert np.array_equal(got.slots[j], want.slots[j])
        for have, ref in ((got.gram[j], want.gram[j]),
                          (got.cross[j], want.cross[j])):
            assert have.shape == ref.shape
            np.testing.assert_allclose(have, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())
    if sub.edges != full.edges:
        with pytest.raises(LayoutMismatchError, match="not a sub-graph"):
            want.restrict(sub, full)


POLYMER_DOUBLES = {"kind": "polymer", "d": 12,
                   "double_link_positions": [1, 2, 7]}


@pytest.mark.filterwarnings("ignore:validation blocks hold")
@pytest.mark.parametrize("name,overrides", [
    # fixed_fraction with the refit
    ("recovery_er.json", {"horizon": 40.0, "n_seeds": 3}),
    # half_se, with the refit on the selected chain
    ("recovery_polymer.json", {"horizon": 150.0, "n_seeds": 3, "refit": True}),
    # the min rule selects false reverse links at this horizon
    ("recovery_polymer.json", {"horizon": 60.0, "n_seeds": 3,
                               "graph": POLYMER_DOUBLES,
                               "penalty": {"rule": "min", "holdout": 0.5}}),
    ("recovery_sbm.json", {"horizon": 200.0, "n_seeds": 2}),
])
def test_streamed_recovery_matches_the_stored_path_pipeline(monkeypatch, name,
                                                            overrides):
    config = _load(name, **overrides)
    selected = []
    select = experiments._select

    def recorded(*args):
        out = select(*args)
        selected.append(out[0])
        return out

    monkeypatch.setattr(experiments, "_select", recorded)
    report = recovery_study(config)
    want = recovery_by_paths(config)
    g, _info = study_graph(config["graph"])
    spec = _study_spec(config, g.d)
    theta, layout, _margin = _study_truth(config, spec, g)
    a_true = g.adjacency().astype(int)
    assert len(report.rows) == len(selected) == len(want)
    for row, a_hat, ref in zip(report.rows, selected, want):
        assert row["seed"] == ref["seed"]
        assert np.array_equal(a_hat, ref["a_hat"])
        assert {k: row[k] for k in _edge_scores(a_true, a_hat)} \
            == _edge_scores(a_true, ref["a_hat"])
        for key in ("selected_lambda", "lambda_max"):
            assert row[key] == pytest.approx(ref[key], rel=1e-10, abs=0)
        if "false_reverse_links" in ref:
            assert row["false_reverse_links"] == ref["false_reverse_links"]
        if ref["refit"] is not None:
            scores = _refit_scores(ref["refit"], layout, theta, a_hat)
            for key, value in scores.items():
                assert row[key] == pytest.approx(value, rel=1e-10, abs=0,
                                                 nan_ok=True)


@pytest.mark.filterwarnings("ignore:validation blocks hold")
def test_selection_and_recovery_fold_once_and_store_no_paths(monkeypatch):
    spec, g, theta = _study_model("recovery_sbm.json")
    path = simulate_path(spec, g, theta, np.zeros(g.d), 0.01, 2000, seed=3)
    builds = []
    init = _MomentFold.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    def stored(*args, **kwargs):
        raise AssertionError("a path was stored")

    monkeypatch.setattr(_MomentFold, "__init__", counted)
    monkeypatch.setattr(simulate, "simulate_ensemble", stored)
    monkeypatch.setattr(simulate, "_stored_rows", stored)
    # the pilot's head and the held-out blocks are chunks of one fold
    select_graph(path, spec, {"rule": "half_se", "holdout": 0.5})
    assert len(builds) == 1
    # one fold per seed block; blocks of two seeds give the same selection
    er_spec, er_g, _theta = _study_model("recovery_er.json")
    per_seed = _MomentFold(er_spec, parameter_layout(
        er_spec, complete_graph(er_g.d), augmented=True)).rep_bytes()
    config = _load("recovery_er.json", horizon=20.0, n_seeds=5)
    builds.clear()
    whole = recovery_study(config)
    assert len(builds) == 1
    monkeypatch.setattr(experiments, "_FOLD_BYTES", 2 * per_seed)
    builds.clear()
    blocked = recovery_study(config)
    assert len(builds) == 3
    assert len(blocked.rows) == len(whole.rows)
    for row, want in zip(blocked.rows, whole.rows):
        assert row == pytest.approx(want, rel=1e-10)


def test_recovery_study_stores_no_paths():
    config = _load("recovery_er.json", n_seeds=40)
    paths_bytes = 40 * (20000 + 1) * 10 * 8  # 64 MB of float64 rows
    tracemalloc.start()
    try:
        recovery_study(config)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < paths_bytes


@pytest.mark.parametrize("overrides,error,match", [
    ({"penalty": {"rule": "min", "rul": "min"}}, ConfigFieldError,
     "'penalty.rul': unknown setting"),
    ({"penalty": {"rule": "bogus"}}, ConfigFieldError,
     "'penalty.rule': must be one of"),
    ({"penalty": {"rule": "half_se", "holdout": 1.5}}, ConfigFieldError,
     "'penalty.holdout': must lie in"),
    ({"penalty": {"rule": "min", "n_points": 0}}, ConfigFieldError,
     "'penalty.n_points': must be at least 1"),
    ({"penalty": {"rule": "half_se", "min_fraction": 2}}, ConfigFieldError,
     "'penalty.min_fraction': must lie in"),
    ({"penalty": {"rule": "fixed_fraction", "fraction": 0}}, ConfigFieldError,
     "'penalty.fraction': must lie in"),
    ({"penalty": {"rule": "fixed_fraction", "fraction": 0.1,
                  "weight_exponent": -1}}, ConfigFieldError,
     "'penalty.weight_exponent': must be non-negative"),
    ({"penalty": {"rule": "min", "penalize_momentum": "no"}}, ConfigFieldError,
     "'penalty.penalize_momentum': must be true or false"),
    # one increment leaves the pilot nothing once the tail takes one
    ({"horizon": 0.01, "penalty": {"rule": "half_se", "holdout": 0.5}},
     StudyError, "holdout leaves no data"),
    ({"refit": "yes"}, ConfigFieldError, "'refit': must be true or false"),
    # no seed once ran, to a summary of NaN means
    ({"n_seeds": 0}, ConfigFieldError, "'n_seeds': must be positive, got 0"),
])
def test_recovery_study_checks_every_setting_before_simulating(
        monkeypatch, overrides, error, match):
    def euler(*args, **kwargs):
        raise AssertionError("the simulation started")

    monkeypatch.setattr(experiments, "_euler", euler)
    with pytest.raises(error, match=match):
        recovery_study({"graph": {"kind": "polymer", "d": 4}, **overrides})
