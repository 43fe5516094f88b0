import warnings

import numpy as np
import pytest

from netsde import lasso
from netsde.estimate import CurvatureBlocks, fit_adaptive_closed_form
from netsde.graph import build_graph, complete_graph
from netsde.lasso import (ConvergenceError, LassoError,
                          LassoPath, MissingValidationLossError, NonPSDError,
                          ZeroWeightError, adaptive_weights,
                          estimate_adjacency, graph_from_adjacency,
                          kkt_residual, lambda_max, lambda_path,
                          lasso_path_to_csv, lsa_solve, psd_project,
                          select_lambda, two_step_refit, validation_loss)
from netsde.model import (ConstantDiagonal, LayoutMismatchError, LinearDrift,
                          NsdeSpec, ParamVector, RadialDictionaryDrift,
                          TanhClipped, parameter_layout)
from netsde.simulate import SamplePath, simulate_path
from reference import exact_box_lasso


def rand_instance(rng, n_alpha=2, n_beta=4, scale=1.0):
    p = n_alpha + n_beta
    a = rng.standard_normal((p, p))
    h = a.T @ a + 0.1 * np.eye(p)
    pilot = ParamVector(alpha=np.abs(rng.standard_normal(n_alpha)) + 0.1,
                        beta=scale * rng.standard_normal(n_beta))
    gamma = adaptive_weights(pilot, penalize_momentum=True)
    return h, pilot, gamma


def test_adaptive_weights_blocks_and_flags():
    pilot = ParamVector(alpha=[2.0, 4.0], beta=[0.5, -0.25, 0.0, 8.0, -2.0])
    w = adaptive_weights(pilot, 2.0)
    # alpha never penalized, momentum (first len(alpha) beta slots) off too
    assert w.shape == (7,)
    assert np.array_equal(w[:4], [0.0, 0.0, 0.0, 0.0])
    assert w[4] == 1e12  # zero pilot hits the cap
    assert np.allclose(w[5:], [1.0 / 64.0, 0.25])

    on = adaptive_weights(pilot, penalize_momentum=True)
    assert np.array_equal(on[:2], [0.0, 0.0])
    assert np.allclose(on[2:], [2.0, 4.0, 1e12, 0.125, 0.5])


def test_diagonal_h_equals_soft_threshold_exactly():
    # with a diagonal surrogate the coordinate problems separate and the
    # solver must reproduce soft(h_k p_k, lam g_k) / h_k bit for bit
    rng = np.random.default_rng(0)
    for _ in range(20):
        n_alpha, n_beta = 2, 5
        p = n_alpha + n_beta
        diag = np.abs(rng.standard_normal(p)) + 0.2
        h = np.diag(diag)
        pilot = ParamVector(alpha=np.abs(rng.standard_normal(n_alpha)) + 0.1,
                            beta=3.0 * rng.standard_normal(n_beta))
        gamma = adaptive_weights(pilot, penalize_momentum=True)
        lam = float(np.abs(rng.standard_normal())) + 0.05
        sol = lsa_solve(h, pilot, lam, gamma).flat()
        flat = pilot.flat()
        for k in range(p):
            t = diag[k] * flat[k]
            thr = lam * gamma[k]
            want = np.sign(t) * max(abs(t) - thr, 0.0) / diag[k]
            want = min(max(want, 0.0 if k < n_alpha else -1e3), 1e3)
            assert sol[k] == want


def test_solver_matches_convex_oracle():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(1)
    for trial in range(10):
        h, pilot, gamma = rand_instance(rng, scale=2.0)
        lam = 0.5 + float(np.abs(rng.standard_normal()))
        flat = pilot.flat()
        p = flat.shape[0]
        lo = np.full(p, -1e3)
        hi = np.full(p, 1e3)
        lo[:2] = 0.0
        if trial % 3 == 0:
            # make the box bind
            hi = np.full(p, 0.5)
            lo = np.maximum(lo, -0.5)

        x = cvxpy.Variable(p)
        objective = 0.5 * cvxpy.quad_form(x - flat, cvxpy.psd_wrap(h)) \
            + lam * cvxpy.norm1(cvxpy.multiply(gamma, x))
        prob = cvxpy.Problem(cvxpy.Minimize(objective),
                             [x >= lo, x <= hi])
        prob.solve(solver="CLARABEL")
        assert prob.status == "optimal"

        sol = lsa_solve(h, pilot, lam, gamma, bounds=(lo, hi))
        got = sol.flat()

        def f(v):
            return 0.5 * (v - flat) @ h @ (v - flat) + lam * gamma @ np.abs(v)

        assert f(got) <= f(np.asarray(x.value)) + 1e-6 * (1.0 + abs(f(got)))
        assert np.allclose(got, np.asarray(x.value), atol=5e-5)


def test_solver_matches_exact_oracle():
    rng = np.random.default_rng(1)
    for trial in range(10):
        h, pilot, gamma = rand_instance(rng, scale=2.0)
        lam = 0.5 + float(np.abs(rng.standard_normal()))
        p = gamma.shape[0]
        lo = np.full(p, -1e3)
        hi = np.full(p, 1e3)
        lo[:2] = 0.0
        if trial % 3 == 0:
            # make the box bind
            hi = np.full(p, 0.5)
            lo = np.maximum(lo, -0.5)
        want = exact_box_lasso(h, pilot.flat(), lam, gamma, lo, hi)
        got = lsa_solve(h, pilot, lam, gamma, bounds=(lo, hi)).flat()
        assert np.allclose(got, want, atol=5e-5)


def random_block_problem(rng, sizes):
    """Block-diagonal H with the given block sizes under a random
    permutation; the first block is indefinite."""
    p = sum(sizes)
    perm = rng.permutation(p)
    h = np.zeros((p, p))
    members = np.split(perm, np.cumsum(sizes)[:-1])
    for b, idx in enumerate(members):
        a = rng.standard_normal((len(idx), len(idx)))
        blk = a.T @ a + 0.1 * np.eye(len(idx))
        if b == 0:
            blk -= 2.0 * np.abs(np.linalg.eigvalsh(blk)).max() * np.eye(len(idx))
        h[np.ix_(idx, idx)] = blk
    pilot = ParamVector(alpha=np.zeros(0), beta=2.0 * rng.standard_normal(p))
    gamma = adaptive_weights(pilot, penalize_momentum=True)
    return h, pilot, gamma, members


def test_block_diagonal_curvature_splits_into_separate_solves():
    rng = np.random.default_rng(8)
    h, pilot, gamma, members = random_block_problem(rng, [1, 3, 2, 4, 3, 1, 2])
    members = [np.sort(idx) for idx in members]
    blocks = CurvatureBlocks.from_blocks(h.shape[0], members,
                                         [h[np.ix_(idx, idx)] for idx in members])

    # the repair equals the dense eigen-decomposition repair
    vals, vecs = np.linalg.eigh(h)
    floor = 1e-10 * vals[-1]
    want = (vecs * np.maximum(vals, floor)) @ vecs.T
    with pytest.warns(UserWarning, match="not positive definite"):
        fixed = psd_project(blocks).dense()
    assert np.allclose(fixed, want, atol=1e-12)
    assert np.array_equal(fixed != 0.0, h != 0.0)

    flat = pilot.flat()
    lo = np.full(flat.shape[0], -0.8)
    hi = np.full(flat.shape[0], 1e3)
    lam = 0.3
    whole = lsa_solve(fixed, pilot, lam, gamma, bounds=(lo, hi)).flat()
    for idx in members:
        sub = ParamVector(alpha=np.zeros(0), beta=flat[idx])
        part = lsa_solve(fixed[np.ix_(idx, idx)], sub, lam, gamma[idx],
                         bounds=(lo[idx], hi[idx])).flat()
        assert np.allclose(whole[idx], part, atol=1e-9)


def test_kkt_certificate_holds_on_random_solves():
    rng = np.random.default_rng(2)
    for _ in range(25):
        h, pilot, gamma = rand_instance(rng)
        lam = float(np.abs(rng.standard_normal())) + 0.01
        sol = lsa_solve(h, pilot, lam, gamma)
        resid = kkt_residual(h, pilot, sol, lam, gamma)
        assert resid <= 1e-8 * (1.0 + lam)


def test_lambda_max_certificate():
    rng = np.random.default_rng(3)
    for _ in range(25):
        h, pilot, gamma = rand_instance(rng)
        pen = gamma > 0
        lam_top = lambda_max(h, pilot, gamma)
        assert lam_top > 0
        at_top = lsa_solve(h, pilot, lam_top, gamma).flat()
        assert np.all(at_top[pen] == 0.0)
        below = lsa_solve(h, pilot, 0.95 * lam_top, gamma).flat()
        assert np.any(below[pen] != 0.0)


def test_lambda_max_respects_the_box():
    # strong negative coupling pushes the free coordinate to its bound; the
    # restricted solve must honor lo=0 or the certificate breaks
    h = np.array([[1.0, -0.9], [-0.9, 1.0]])
    pilot = ParamVector(alpha=[0.1], beta=[2.0])
    gamma = np.array([0.0, 1.0])
    lam_top = lambda_max(h, pilot, gamma)
    # restricted optimum: alpha clipped at 0, so z_beta = -0.9*(0-0.1) + (0-2)
    assert lam_top == pytest.approx(1.91, abs=1e-9)
    at_top = lsa_solve(h, pilot, lam_top, gamma).flat()
    assert at_top[1] == 0.0
    below = lsa_solve(h, pilot, 0.95 * lam_top, gamma).flat()
    assert below[1] != 0.0


def test_lambda_max_needs_penalized_weight():
    h = np.eye(2)
    pilot = ParamVector(alpha=[1.0], beta=[1.0])
    free = np.zeros(2)
    with pytest.raises(ZeroWeightError):
        lambda_max(h, pilot, free)


def test_separable_lambda_max_value():
    # identity curvature, no unpenalized block: lam_max = max |pilot| weighted
    h = np.eye(2)
    pilot = ParamVector(alpha=np.zeros(0), beta=np.array([3.0, 0.5]))
    gamma = np.ones(2)
    assert lambda_max(h, pilot, gamma) == pytest.approx(3.0, abs=1e-12)


def test_solver_errors(monkeypatch):
    pilot = ParamVector(alpha=[1.0], beta=[1.0])
    gamma = adaptive_weights(pilot, penalize_momentum=True)
    with pytest.raises(NonPSDError):
        lsa_solve(np.diag([1.0, -1.0]), pilot, 0.1, gamma)
    with pytest.raises(NonPSDError, match="singular"):
        lsa_solve(np.ones((2, 2)), pilot, 0.0, gamma)
    with pytest.raises(LassoError):
        lsa_solve(np.eye(3), pilot, 0.1, gamma)
    for lam in (-0.1, np.nan, np.inf):
        with pytest.raises(LassoError, match="finite and non-negative"):
            lsa_solve(np.eye(2), pilot, lam, gamma)
    monkeypatch.setattr(lasso, "_MAX_PASSES", 0)
    with pytest.raises(ConvergenceError):
        lsa_solve(np.eye(2), pilot, 0.5, gamma)


def test_zero_curvature_coordinate_stays_pinned():
    # coordinate 2 has no curvature at all: it stays where the solve starts
    # (the pilot, cold; the warm value, warm) and the others solve as if it
    # were absent
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4))
    rest = a.T @ a + 0.1 * np.eye(4)
    keep = [0, 1, 3, 4]
    h = np.zeros((5, 5))
    h[np.ix_(keep, keep)] = rest
    pilot = ParamVector(alpha=[0.7], beta=[1.5, 0.4, -2.0, 0.8])
    gamma = np.array([0.0, 0.5, 0.0, 1.0, 2.0])
    sub = ParamVector(alpha=[0.7], beta=[1.5, -2.0, 0.8])
    sub_w = np.array([0.0, 0.5, 1.0, 2.0])
    lam = 0.6
    want = lsa_solve(rest, sub, lam, sub_w).flat()
    cold = lsa_solve(h, pilot, lam, gamma).flat()
    assert cold[2] == 0.4
    assert np.allclose(cold[keep], want, atol=1e-12)
    stale = ParamVector(alpha=[0.3], beta=[0.0, -0.25, 1.0, 0.0])
    warm = lsa_solve(h, pilot, lam, gamma, warm=stale).flat()
    assert warm[2] == -0.25
    assert np.allclose(warm[keep], want, atol=1e-12)


def test_cold_start_with_coordinates_at_their_bounds():
    # at lam = lambda_max exactly every penalized coordinate must come out
    # exactly zero.  Here the penalized pilots lie outside their boxes: a
    # start at the clipped pilot would drive the unpenalized coordinate
    # onto its bound at -1.6 and leave ~1e-16 in the last one once it is
    # released; the cold start at the restricted solution avoids that
    h = np.array([[8.65, 0.14, -3.8], [0.14, 3.16, 0.14], [-3.8, 0.14, 2.24]])
    box = (np.array([-0.63, -1.6, -0.3]), np.array([0.53, 2.1, 0.05]))
    pilot = ParamVector(alpha=np.zeros(0), beta=[-1.62, -1.4, -1.3])
    gamma = np.array([1e12, 0.0, 0.41])
    top = lambda_max(h, pilot, gamma, bounds=box)
    at_top = lsa_solve(h, pilot, top, gamma, bounds=box).flat()
    assert at_top[0] == 0.0 and at_top[2] == 0.0
    assert kkt_residual(h, pilot, ParamVector(alpha=np.zeros(0), beta=at_top),
                        top, gamma, bounds=box) <= 1e-8 * (1.0 + top)

    # the unpenalized coordinate's pilot lies below its box as well
    rng = np.random.default_rng(14)
    box = (np.array([0.0, -0.3, -0.3, -0.3, -0.3]), np.full(5, 0.3))
    for _ in range(50):
        a = rng.standard_normal((5, 5))
        h = a.T @ a + 0.1 * np.eye(5)
        pilot = ParamVector(alpha=np.zeros(0), beta=np.concatenate(
            [[-1.0], 2.0 * rng.standard_normal(4)]))
        gamma = np.concatenate([[0.0], rng.uniform(0.2, 3.0, 4)])
        gamma[rng.random(5) < 0.2] = 1e12
        top = lambda_max(h, pilot, gamma, bounds=box)
        at_top = lsa_solve(h, pilot, top, gamma, bounds=box).flat()
        assert np.all(at_top[gamma > 0] == 0.0)
        below = lsa_solve(h, pilot, 0.95 * top, gamma, bounds=box).flat()
        assert np.any(below[gamma > 0] != 0.0)


def test_capped_and_ordinary_weights_match_the_oracle():
    # weights at the 1e12 cap beside ordinary ones in one block: the capped
    # coordinates stay at zero and the rest match the enumeration oracle
    rng = np.random.default_rng(15)
    for trial in range(10):
        h, pilot, _ = rand_instance(rng, scale=2.0)
        flat = pilot.flat()
        flat[[3, 5]] = rng.choice([0.0, 1e-14], 2)
        pilot = ParamVector(alpha=flat[:2], beta=flat[2:])
        gamma = adaptive_weights(pilot, penalize_momentum=True)
        assert np.sum(gamma == 1e12) >= 2 and np.sum((gamma > 0) & (gamma < 1e12)) >= 2
        lo = np.full(6, -1.0)
        hi = np.full(6, 1.0 + trial)
        lo[:2] = 0.0
        top = lambda_max(h, pilot, gamma, bounds=(lo, hi))
        for lam in (1e-3 * top, 0.3 * top, top):
            want = exact_box_lasso(h, flat, lam, gamma, lo, hi)
            got = lsa_solve(h, pilot, lam, gamma, bounds=(lo, hi)).flat()
            assert np.allclose(got, want, atol=5e-5)
            assert np.all(got[gamma == 1e12] == 0.0)


def test_warm_start_agrees_with_cold_start():
    rng = np.random.default_rng(4)
    h, pilot, gamma = rand_instance(rng)
    lam = 0.8
    cold = lsa_solve(h, pilot, lam, gamma).flat()
    stale = ParamVector(alpha=pilot.alpha * 0.5, beta=pilot.beta * -0.3)
    warm = lsa_solve(h, pilot, lam, gamma, warm=stale).flat()
    assert np.allclose(cold, warm, atol=1e-8)


def test_psd_project_behavior():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    spd = a.T @ a + 0.5 * np.eye(4)
    out = psd_project(spd).dense()
    assert np.allclose(out, 0.5 * (spd + spd.T), atol=0.0)

    indef = np.diag([2.0, -1.0])
    with pytest.warns(UserWarning):
        fixed = psd_project(indef).dense()
    vals = np.linalg.eigvalsh(fixed)
    assert vals.min() >= 1e-10 * 2.0 - 1e-15
    assert fixed[0, 0] == pytest.approx(2.0)


def test_lambda_path_grid_and_counts():
    rng = np.random.default_rng(6)
    h, pilot, gamma = rand_instance(rng, n_alpha=1, n_beta=5)
    path = lambda_path(h, pilot, gamma, n_points=12)
    assert path.lambdas.shape == (12,)
    assert path.lambdas[0] == pytest.approx(path.lambda_max)
    assert path.lambdas[-1] == pytest.approx(1e-3 * path.lambda_max)
    assert np.all(np.diff(path.lambdas) < 0)
    pen = gamma > 0
    assert path.active_counts[0] == 0
    assert np.count_nonzero(path.coefficients[0].flat()[pen]) == 0
    assert path.active_counts[-1] > 0
    assert path.adjacency is None  # select_graph fills it, from its layout

    explicit = lambda_path(h, pilot, gamma, fractions=[0.25, 1.0, 0.5])
    assert explicit.lambda_max == path.lambda_max
    assert np.array_equal(explicit.lambdas,
                          [path.lambda_max * f for f in (1.0, 0.5, 0.25)])


def test_lambda_path_tracks_pair_weights():
    rng = np.random.default_rng(7)
    d = 3
    n_w = d * (d - 1)
    p = 2 * d + n_w
    a = rng.standard_normal((p, p))
    h = a.T @ a + 0.5 * np.eye(p)
    layout = pilot_layout(d)
    pilot = layout.pack(alpha=np.ones(d), momentum=np.zeros(d),
                        network=rng.standard_normal(n_w) * 2.0)
    gamma = adaptive_weights(pilot)
    path = lambda_path(h, pilot, gamma, n_points=8)
    adjacency = [estimate_adjacency(layout, theta) for theta in path.coefficients]
    assert adjacency[0].sum() == 0
    assert adjacency[-1].sum() > 0


def small_sim(seed=0, n=400):
    spec = NsdeSpec(d=2, drift=LinearDrift(), diffusion=TanhClipped(clip=100.0))
    g = build_graph(2, [(0, 1)])
    layout = parameter_layout(spec, g)
    theta = layout.pack(alpha=[1.0, 1.5], momentum=[4.0, 5.0], network=[1.5])
    path = simulate_path(spec, g, theta, np.zeros(2), 0.01, n, substeps=5,
                         seed=seed)
    return spec, g, layout, theta, path


def test_validation_loss_matches_direct_computation():
    spec, g, layout, theta, path = small_sim()
    other = layout.pack(alpha=[1.0, 1.5], momentum=[1.0, 1.0], network=[0.0])
    with pytest.warns(UserWarning, match="blocks hold as few"):
        loss, se = validation_loss(path, spec, g, [theta, other], fraction=0.25)
    n_tail = int(np.floor(path.n * 0.25))
    rows = path.data[path.n - n_tail:]
    # direct per-increment evaluation of the first candidate
    per_inc = []
    for i in range(rows.shape[0] - 1):
        x = rows[i]
        dx = rows[i + 1] - x
        from netsde.model import diffusion_eval
        from reference import drift_eval
        b = drift_eval(spec, g, theta, x)
        s = diffusion_eval(spec, theta.alpha, x)
        per_inc.append(float(np.sum((dx - path.delta * b) ** 2
                                    / (2 * path.delta * s * s)
                                    + 0.5 * np.log(s * s))))
    per_inc = np.array(per_inc)
    assert loss[0] == pytest.approx(per_inc.mean(), rel=1e-12)
    assert loss[0] < loss[1]  # truth beats a wrong candidate
    # se is the block-level standard error of the candidate's mean loss
    block_means = [b.mean() for b in np.array_split(per_inc, 10)]
    want_se = np.std(block_means, ddof=1) / np.sqrt(10)
    assert se[0] == pytest.approx(want_se, rel=1e-12)
    assert se.shape == (2,) and np.all(se >= 0)


def test_validation_loss_errors():
    spec, g, layout, theta, path = small_sim()
    with pytest.raises(ValueError):
        validation_loss(path, spec, g, [theta], fraction=1.5)
    tiny = SamplePath(delta=0.01, data=path.data[:30])
    with pytest.warns(UserWarning):
        validation_loss(tiny, spec, g, [theta], fraction=0.3)


def test_validation_warning_counts_parameters_per_node():
    # 10 blocks of 40 increments: fewer than 10 per parameter of the whole
    # vector (5), but not of one node's problem (alpha, momentum, one edge)
    spec, g, layout, theta, path = small_sim(n=2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validation_loss(path, spec, g, [theta], fraction=0.2)


def hand_path():
    lambdas = np.array([8.0, 4.0, 2.0, 1.0, 0.5])
    coeffs = [ParamVector(alpha=[1.0], beta=[0.0])] * 5
    return LassoPath(lambdas=lambdas, coefficients=coeffs,
                     active_counts=np.array([0, 1, 1, 2, 2]),
                     lambda_max=8.0,
                     validation_loss=np.array([5.0, 3.0, 1.0, 1.2, 2.0]),
                     validation_se=np.array([0.1, 0.1, 0.5, 0.1, 0.1]))


def test_select_lambda_rules():
    path = hand_path()
    assert select_lambda(path, rule="min") == 2.0
    # cutoff is min + 0.5 * se at the minimizer = 1.25; the sparser
    # candidates (losses 5 and 3) sit above it, so the minimizer wins
    assert select_lambda(path, rule="half_se") == 2.0
    # widen the minimizer's se and the candidate at lambda=4 comes in reach
    path.validation_se = np.array([0.1, 0.1, 4.0, 0.1, 0.1])
    assert select_lambda(path, rule="half_se") == 4.0
    with pytest.raises(ValueError):
        select_lambda(path, rule="aic")
    bare = LassoPath(lambdas=path.lambdas, coefficients=path.coefficients,
                     active_counts=path.active_counts, lambda_max=8.0)
    with pytest.raises(MissingValidationLossError):
        select_lambda(bare, rule="min")


def pilot_layout(d):
    spec = NsdeSpec(d=d, drift=LinearDrift(), diffusion=ConstantDiagonal())
    return parameter_layout(spec, complete_graph(d), augmented=True)


def network_theta(layout, network):
    return layout.pack(alpha=np.ones(layout.d), momentum=np.ones(layout.d),
                       network=network)


def test_estimate_adjacency_mapping():
    # row-major pair order for d=3: (0,1),(0,2),(1,0),(1,2),(2,0),(2,1)
    w = np.array([0.5, 0.0, 0.0, -0.3, 0.0, 1e-9])
    layout = pilot_layout(3)
    a = estimate_adjacency(layout, network_theta(layout, w))
    want = np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]])
    assert np.array_equal(a, want)
    with pytest.raises(LayoutMismatchError):
        estimate_adjacency(layout, ParamVector(alpha=np.ones(3), beta=np.zeros(5)))
    g = graph_from_adjacency(want)
    assert set(g.edges) == {(0, 1), (1, 2), (2, 1)}
    assert np.array_equal(g.adjacency(), want)


def loop_adjacency(w_hat, d):
    # the pair-by-pair reading of the complete graph's network block
    a = np.zeros((d, d), dtype=int)
    pos = 0
    for i in range(d):
        for j in range(d):
            if j == i:
                continue
            if w_hat[pos] != 0.0:
                a[i, j] = 1
            pos += 1
    return a


def test_vectorised_adjacency_matches_the_loop():
    rng = np.random.default_rng(11)
    for d in range(1, 8):
        w = rng.standard_normal(d * (d - 1))
        w[rng.random(w.shape) < 0.4] = 0.0
        w[rng.random(w.shape) < 0.3] *= 1e-9
        layout = pilot_layout(d)
        got = estimate_adjacency(layout, network_theta(layout, w))
        want = loop_adjacency(w, d)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # a nonzero diagonal is ignored, any nonzero entry is an edge
        a = rng.integers(0, 2, (d, d)) * rng.choice([1.0, -0.5], (d, d))
        want_edges = tuple((i, j) for i in range(d) for j in range(d)
                           if i != j and a[i, j])
        assert graph_from_adjacency(a).edges == want_edges


@pytest.mark.parametrize("family", ["linear", "radial"])
def test_estimate_adjacency_reads_any_layout(family):
    # a sparse known graph with unsorted edges, and the pilot's layout
    g = build_graph(5, [(3, 1), (0, 4), (2, 0), (0, 1), (4, 2)])
    drift = (LinearDrift() if family == "linear" else
             RadialDictionaryDrift(offsets=(1.0, 2.0), exponents=(-0.5, 0.5)))
    layout = parameter_layout(NsdeSpec(d=5, drift=drift,
                                       diffusion=ConstantDiagonal()), g)
    n_net = layout.pi_total - 2 * layout.d
    theta = network_theta(layout, np.arange(1.0, 1.0 + n_net))
    assert np.array_equal(estimate_adjacency(layout, theta), g.adjacency())
    if family == "radial":
        # an edge is kept while any dictionary level carries it
        net = np.arange(1.0, 1.0 + n_net)
        net[layout.edge_slot(3, 1, level=0) - 2 * layout.d] = 0.0
        theta = network_theta(layout, net)
        assert np.array_equal(estimate_adjacency(layout, theta), g.adjacency())
        return
    pilot = pilot_layout(5)
    net = np.zeros(pilot.pi_total - 10)
    for i, j in g.edges:
        net[pilot.edge_slot(i, j) - 10] = -0.5
    got = estimate_adjacency(pilot, network_theta(pilot, net))
    assert np.array_equal(got, g.adjacency())


def test_two_step_refit_routes_agree():
    spec, g, layout, theta, path = small_sim(n=2000)
    a_hat = g.adjacency()
    closed = two_step_refit(path, spec, a_hat)
    direct = fit_adaptive_closed_form(path, spec, g)
    assert np.allclose(layout.flatten(closed.theta_hat),
                       layout.flatten(direct.theta_hat), atol=0.0)


def test_lasso_path_csv():
    path = hand_path()
    text = lasso_path_to_csv(path, ["alpha_0", "mu_0"])
    lines = text.strip().split("\n")
    assert lines[0] == "lambda,coef_name,value"
    assert len(lines) == 1 + 5 * 2
    assert lines[1] == "8.0,alpha_0,1.0"
    with pytest.raises(LassoError):
        lasso_path_to_csv(path, ["alpha_0"])
