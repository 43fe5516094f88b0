import sys
import threading

import numpy as np
import pytest
from scipy.linalg import expm

from netsde.graph import build_graph
from netsde.model import (ConstantDiagonal, LinearDrift, NsdeSpec,
                          ParamVector, RadialDictionaryDrift, TanhClipped,
                          diffusion_eval, linear_drift_matrix,
                          parameter_layout)
from netsde.simulate import (EXPLOSION_GUARD, ExplosionError,
                             InvalidSubstepsError, SamplePath, derive_seeds,
                             from_csv, read_csv, simulate_ensemble,
                             simulate_path, to_csv, write_csv)
from reference import drift_eval


def two_node_model(clip=None, coupling=0.8):
    spec = NsdeSpec(d=2, drift=LinearDrift(),
                    diffusion=ConstantDiagonal() if clip is None
                    else TanhClipped(clip=clip))
    g = build_graph(2, [(0, 1), (1, 0)])
    layout = parameter_layout(spec, g)
    theta = layout.pack(alpha=[0.5, 0.7], momentum=[2.0, 3.0],
                        network=[coupling, -coupling])
    return spec, g, theta


def euler_reference(spec, g, theta, x0, delta, n, substeps, dW):
    # plain scalar re-implementation of the recursion
    h = delta / substeps
    x = np.asarray(x0, dtype=float).copy()
    rows = [x.copy()]
    step = 0
    for _ in range(n):
        for _ in range(substeps):
            b = drift_eval(spec, g, theta, x)
            s = diffusion_eval(spec, theta.alpha, x)
            x = x + b * h + s * dW[step]
            step += 1
        rows.append(x.copy())
    return np.asarray(rows)


def test_driven_path_matches_naive_recursion():
    spec, g, theta = two_node_model(clip=100.0)
    rng = np.random.default_rng(3)
    n, substeps, delta = 20, 4, 0.05
    dW = np.sqrt(delta / substeps) * rng.standard_normal((n * substeps, 2))
    path = simulate_path(spec, g, theta, [0.3, -0.2], delta, n,
                         substeps=substeps, dW=dW)
    want = euler_reference(spec, g, theta, [0.3, -0.2], delta, n, substeps, dW)
    assert np.allclose(path.data, want, rtol=0, atol=1e-13)
    assert path.seed is None  # externally driven noise has no seed identity


def test_zero_noise_linear_flow_matches_matrix_exponential():
    spec, g, theta = two_node_model()
    theta = ParamVector(alpha=np.zeros(2), beta=theta.beta)
    m, _ = linear_drift_matrix(spec, g, theta)
    x0 = np.array([1.0, -1.0])
    n, substeps, delta = 10, 400, 0.1
    dW = np.zeros((n * substeps, 2))
    path = simulate_path(spec, g, theta, x0, delta, n, substeps=substeps, dW=dW)
    for k in (1, 5, 10):
        want = expm(m * (k * delta)) @ x0
        assert np.allclose(path.data[k], want, atol=2e-4)


def test_seeded_path_reproducible():
    spec, g, theta = two_node_model(clip=100.0)
    p1 = simulate_path(spec, g, theta, [0.0, 0.0], 0.01, 300, seed=11)
    p2 = simulate_path(spec, g, theta, [0.0, 0.0], 0.01, 300, seed=11)
    assert np.array_equal(p1.data, p2.data)
    assert p1.seed == 11
    p3 = simulate_path(spec, g, theta, [0.0, 0.0], 0.01, 300, seed=12)
    assert not np.array_equal(p1.data, p3.data)


def test_burn_in_is_a_prefix_of_the_same_stream():
    spec, g, theta = two_node_model(clip=100.0)
    burned = simulate_path(spec, g, theta, [0.0, 0.0], 0.01, 50,
                           seed=5, burn_in_steps=30)
    full = simulate_path(spec, g, theta, [0.0, 0.0], 0.01, 80, seed=5)
    assert np.array_equal(burned.data, full.data[30:])


def test_ensemble_matches_single_paths():
    spec, g, theta = two_node_model(clip=100.0)
    seeds = derive_seeds(7, 5)
    ensemble = simulate_ensemble(spec, g, theta, [0.0, 0.0], 0.01, 200,
                                 seeds=seeds)
    assert len(ensemble) == 5
    for seed, path in zip(seeds, ensemble):
        single = simulate_path(spec, g, theta, [0.0, 0.0], 0.01, 200, seed=seed)
        assert path.seed == seed
        assert np.allclose(path.data, single.data, rtol=0, atol=1e-10)
    assert simulate_ensemble(spec, g, theta, [0.0, 0.0], 0.01, 10, seeds=[]) == []


def test_refining_the_grid_shrinks_strong_error():
    # couple coarse and fine runs through block sums of one fine noise array
    spec, g, theta = two_node_model(clip=100.0)
    delta, n, fine = 0.1, 20, 64
    errs = {1: 0.0, 8: 0.0}
    for seed in range(5):
        rng = np.random.default_rng(seed)
        dw_fine = np.sqrt(delta / fine) * rng.standard_normal((n * fine, 2))
        ref = simulate_path(spec, g, theta, [0.2, 0.1], delta, n,
                            substeps=fine, dW=dw_fine).data[-1]
        for sub in (1, 8):
            block = fine // sub
            dw = dw_fine.reshape(n * sub, block, 2).sum(axis=1)
            got = simulate_path(spec, g, theta, [0.2, 0.1], delta, n,
                                substeps=sub, dW=dw).data[-1]
            errs[sub] += float(np.linalg.norm(got - ref))
    assert errs[8] < errs[1] / 2.0


def test_derive_seeds_deterministic_and_distinct():
    s1 = derive_seeds(123, 50)
    s2 = derive_seeds(123, 50)
    assert s1 == s2
    assert len(set(s1)) == 50
    assert derive_seeds(124, 50) != s1
    assert all(0 <= s < 2 ** 128 for s in s1)


def test_explosion_raises_with_step():
    spec, g, theta = two_node_model()
    # negative momentum means exponential growth
    bad = ParamVector(alpha=theta.alpha, beta=np.array([-9.0, -9.0, 0.0, 0.0]))
    with pytest.raises(ExplosionError) as err:
        simulate_path(spec, g, bad, [1.0, 1.0], 0.1, 3000, substeps=2, seed=0)
    assert err.value.step > 0
    with pytest.raises(ExplosionError):
        simulate_ensemble(spec, g, bad, [1.0, 1.0], 0.1, 3000,
                          seeds=[0, 1], substeps=2)


def naive_first_explosion(spec, g, theta, x0, delta, n, substeps, seeds):
    # (substep, replication) of the first state outside the guard box,
    # checked after every substep of a plain per-replication loop
    h = delta / substeps
    gens = [np.random.Generator(np.random.Philox(key=s)) for s in seeds]
    xs = [np.asarray(x0, dtype=float) for _ in seeds]
    step = 0
    for _ in range(n):
        incr = [np.sqrt(h) * gen.standard_normal((substeps, spec.d))
                for gen in gens]
        for s in range(substeps):
            step += 1
            for r in range(len(seeds)):
                xs[r] = (xs[r] + drift_eval(spec, g, theta, xs[r]) * h
                         + diffusion_eval(spec, theta.alpha, xs[r]) * incr[r][s])
            bad = [r for r in range(len(seeds))
                   if not np.max(np.abs(xs[r])) <= EXPLOSION_GUARD]
            if bad:
                return step, bad[0]
    return None


def test_explosion_reports_the_first_offending_substep():
    # started at rest, the unstable flow is driven out by the noise, so the
    # exit substep and the first replication out depend on the seeds
    spec, g, theta = two_node_model(clip=100.0)
    bad = ParamVector(alpha=theta.alpha, beta=np.array([-9.0, -9.0, 0.8, -0.8]))
    args = (spec, g, bad, [0.0, 0.0], 0.1, 100)
    substeps = 4

    want_step, _ = naive_first_explosion(*args, substeps, [0])
    assert want_step % substeps != 0  # inside an observation interval
    with pytest.raises(ExplosionError) as err:
        simulate_path(*args, substeps=substeps, seed=0)
    assert err.value.step == want_step
    assert f"at substep {want_step}" in str(err.value)

    seeds = [0, 1, 2, 3]
    want_step, want_rep = naive_first_explosion(*args, substeps, seeds)
    assert want_step % substeps != 0 and want_rep != 0
    with pytest.raises(ExplosionError) as err:
        simulate_ensemble(*args, seeds=seeds, substeps=substeps)
    assert err.value.step == want_step
    assert (f"replication {want_rep} (seed {seeds[want_rep]}) left the guard "
            f"box at substep {want_step}") == str(err.value)


def wide_model(d, momentum, network, edges):
    spec = NsdeSpec(d=d, drift=LinearDrift(), diffusion=TanhClipped(clip=100.0))
    g = build_graph(d, edges)
    theta = parameter_layout(spec, g).pack(
        alpha=np.full(d, 0.5), momentum=np.full(d, momentum), network=network)
    return spec, g, theta


def test_ensemble_spanning_several_noise_chunks():
    # at ~1M noise values per chunk, 8 reps of d = 50 with 10 substeps take
    # 250 intervals per chunk: 1600 intervals make 7 chunks, the last one
    # partial, and the 300-interval burn-in ends inside the second
    d, n, burn_in = 50, 1300, 300
    ring = [(i, (i + 1) % d) for i in range(d)]
    spec, g, theta = wide_model(d, 3.0, np.full(d, 0.5), ring)
    x0 = np.linspace(-1.0, 1.0, d)
    seeds = derive_seeds(21, 8)
    before = threading.active_count()
    ensemble = simulate_ensemble(spec, g, theta, x0, 0.01, n, seeds=seeds,
                                 burn_in_steps=burn_in)
    assert threading.active_count() == before
    for seed, member in zip(seeds, ensemble):
        single = simulate_path(spec, g, theta, x0, 0.01, n, seed=seed,
                               burn_in_steps=burn_in)
        assert np.allclose(member.data, single.data, rtol=0, atol=1e-12)

    # a short switch interval makes the main thread and the noise worker
    # trade the interpreter lock often; the rows must not change
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        again = simulate_ensemble(spec, g, theta, x0, 0.01, n, seeds=seeds,
                                  burn_in_steps=burn_in)
    finally:
        sys.setswitchinterval(interval)
    for first, second in zip(ensemble, again):
        assert np.array_equal(first.data, second.data)


def test_explosion_in_a_later_chunk_leaves_no_worker():
    # 4 reps of d = 100 take 2500 substeps per noise chunk, so the exit
    # lands in the second of four chunks while the third is being drawn
    d = 100
    spec, g, theta = wide_model(d, -6.5, [0.5, -0.5, 0.3, 0.3],
                                [(0, 1), (1, 0), (2, 3), (3, 2)])
    args = (spec, g, theta, np.zeros(d), 0.01, 1000)
    seeds = [5, 6, 7, 8]
    want_step, want_rep = naive_first_explosion(*args, 10, seeds)
    assert want_step % 10 != 0 and want_rep != 0
    before = threading.active_count()
    with pytest.raises(ExplosionError) as err:
        simulate_ensemble(*args, seeds=seeds, substeps=10)
    assert threading.active_count() == before
    assert err.value.step == want_step
    assert (f"replication {want_rep} (seed {seeds[want_rep]}) left the guard "
            f"box at substep {want_step}") == str(err.value)


def radial_constant_model():
    spec = NsdeSpec(d=3, drift=RadialDictionaryDrift(offsets=(1.0, 2.0),
                                                     exponents=(-0.5, 0.5)),
                    diffusion=ConstantDiagonal())
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    theta = parameter_layout(spec, g).pack(
        alpha=[0.5, 0.7, 0.3], momentum=[2.0, 3.0, 2.5],
        network=[0.8, -0.6, 0.4, 0.3, 0.5, -0.2])
    return spec, g, theta


def intercept_model():
    spec = NsdeSpec(d=2, drift=LinearDrift(with_intercepts=True),
                    diffusion=TanhClipped(clip=5.0))
    g = build_graph(2, [(0, 1), (1, 0)])
    theta = parameter_layout(spec, g).pack(
        alpha=[0.5, 0.7], momentum=[2.0, 3.0], network=[0.8, -0.8],
        intercepts=[1.5, -2.0])
    return spec, g, theta


@pytest.mark.parametrize("model, burn_in", [
    (radial_constant_model, 0),
    (intercept_model, 0),
    (lambda: two_node_model(clip=100.0), 3),
], ids=["radial-constant", "linear-intercepts", "burn-in"])
def test_kernel_matches_naive_recursion_on_every_family(model, burn_in):
    spec, g, theta = model()
    x0 = np.linspace(0.3, -0.2, spec.d)
    n, substeps, delta = 20, 4, 0.05
    dW = np.sqrt(delta / substeps) * np.random.default_rng(5).standard_normal(
        ((burn_in + n) * substeps, spec.d))
    path = simulate_path(spec, g, theta, x0, delta, n, substeps=substeps,
                         burn_in_steps=burn_in, dW=dW)
    want = euler_reference(spec, g, theta, x0, delta, burn_in + n, substeps, dW)
    assert np.allclose(path.data, want[burn_in:], rtol=0, atol=1e-13)

    seeds = derive_seeds(11, 3)
    ensemble = simulate_ensemble(spec, g, theta, x0, delta, n, seeds=seeds,
                                 substeps=substeps, burn_in_steps=burn_in)
    for seed, member in zip(seeds, ensemble):
        single = simulate_path(spec, g, theta, x0, delta, n, substeps=substeps,
                               seed=seed, burn_in_steps=burn_in)
        assert np.allclose(member.data, single.data, rtol=0, atol=1e-12)


def test_argument_validation():
    spec, g, theta = two_node_model()
    with pytest.raises(InvalidSubstepsError):
        simulate_path(spec, g, theta, [0.0, 0.0], 0.01, 10, substeps=0)
    with pytest.raises(ValueError):
        simulate_path(spec, g, theta, [0.0, 0.0], -0.01, 10)
    with pytest.raises(ValueError):
        simulate_path(spec, g, theta, [0.0], 0.01, 10)
    with pytest.raises(ValueError):
        simulate_path(spec, g, theta, [0.0, np.inf], 0.01, 10)
    with pytest.raises(ValueError):
        simulate_path(spec, g, theta, [0.0, 0.0], 0.01, -1)
    with pytest.raises(ValueError):
        simulate_path(spec, g, theta, [0.0, 0.0], 0.01, 10,
                      burn_in_steps=-1)
    with pytest.raises(ValueError):
        simulate_path(spec, g, theta, [0.0, 0.0], 0.01, 10, substeps=2,
                      dW=np.zeros((5, 2)))


def test_sample_path_validation_and_properties():
    p = SamplePath(delta=0.5, data=np.zeros((4, 3)), seed=2)
    assert p.n == 3 and p.d == 3
    assert np.allclose(p.times, [0.0, 0.5, 1.0, 1.5])
    with pytest.raises(ValueError):
        SamplePath(delta=0.0, data=np.zeros((4, 3)))
    with pytest.raises(ValueError):
        SamplePath(delta=0.5, data=np.zeros(4))
    with pytest.raises(ValueError):
        SamplePath(delta=0.5, data=np.full((2, 2), np.nan))


@pytest.mark.parametrize("delta", [np.nan, np.inf])
def test_spacing_must_be_finite(delta):
    spec, g, theta = two_node_model(clip=100.0)
    with pytest.raises(ValueError, match="finite"):
        SamplePath(delta=delta, data=np.zeros((4, 3)))
    with pytest.raises(ValueError, match="finite"):
        simulate_path(spec, g, theta, [0.0, 0.0], delta, 10)


def test_csv_round_trip_is_bit_exact(tmp_path):
    spec, g, theta = two_node_model(clip=100.0)
    p = simulate_path(spec, g, theta, [0.0, 0.0], 0.01, 100, seed=9)
    back = from_csv(to_csv(p))
    assert np.array_equal(back.data, p.data)
    assert back.delta == p.delta
    assert back.seed is None
    f = tmp_path / "path.csv"
    write_csv(p, str(f))
    again = read_csv(str(f))
    assert np.array_equal(again.data, p.data)


def test_csv_rejects_malformed_input():
    with pytest.raises(ValueError):
        from_csv("")
    with pytest.raises(ValueError):
        from_csv("time,x0\n0.0,1.0\n")
    with pytest.raises(ValueError):
        from_csv("t,x0\n0.0,1.0\n0.1,2.0,3.0\n")
    with pytest.raises(ValueError):
        from_csv("t,x0\n0.0,1.0\n0.1,2.0\n0.3,3.0\n")
    single = from_csv("t,x0\n0.0,1.0\n")
    assert single.n == 0 and single.delta == 1.0
    # errors name the line in the text, blank lines included
    with pytest.raises(ValueError, match="^line 4: row has 3 fields"):
        from_csv("t,x0\n0.0,1.0\n\n0.1,2.0,3.0\n")
    with pytest.raises(ValueError, match="^line 5: .*'x'"):
        from_csv("\nt,x0\n0.0,1.0\n0.1,2.0\n0.2,x\n")
    # no missing markers: a blank cell is an error on its line
    with pytest.raises(ValueError, match="^line 3: .*''"):
        from_csv("t,x0,x1\n0.0,1.0,2.0\n0.1,,3.0\n")


def test_csv_reads_numbers_padded_with_whitespace():
    back = from_csv("t, x0,x1 \n 0.0 , 1.5,-2.0\n0.25,\t3.0 ,4.0\n")
    assert back.delta == 0.25
    assert np.array_equal(back.data, [[1.5, -2.0], [3.0, 4.0]])


def test_read_csv_is_not_a_panel_load(tmp_path, monkeypatch):
    # the benchmark times ingest.load_panel_csv and simulate.read_csv as
    # separate spans, so a path read must not go through the panel loader
    import netsde.ingest

    def refuse(*args, **kwargs):
        raise AssertionError("read_csv went through load_panel_csv")

    monkeypatch.setattr(netsde.ingest, "load_panel_csv", refuse)
    spec, g, theta = two_node_model(clip=100.0)
    p = simulate_path(spec, g, theta, [0.0, 0.0], 0.01, 20, seed=3)
    f = tmp_path / "path.csv"
    write_csv(p, str(f))
    assert np.array_equal(read_csv(str(f)).data, p.data)
