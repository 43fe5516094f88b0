import numpy as np
import pytest

from netsde.estimate import (DegenerateDiffusionError, InsufficientDataError,
                             SingularGramError, _path_moments,
                             fit_adaptive_closed_form, fit_linear_closed_form,
                             fit_qmle, fit_result_to_dict,
                             model_hessian, quasi_loglik, rate_diagonal)
from netsde.experiments import select_graph
from netsde.graph import build_graph, complete_graph, erdos_renyi, polymer
from netsde.model import (ConstantDiagonal, LayoutMismatchError, LinearDrift,
                          NsdeSpec, ParamVector, RadialDictionaryDrift,
                          TanhClipped, diffusion_shape, parameter_layout)
from netsde.simulate import SamplePath, simulate_path
from reference import (contrast_by_rows, diffusion_contrast, diffusion_eval,
                       drift_contrast, drift_eval, node_designs,
                       numerical_hessian, quasi_grad, sigma_path,
                       stage_one_scales)


def small_model(clip=100.0):
    spec = NsdeSpec(d=3, drift=LinearDrift(),
                    diffusion=TanhClipped(clip=clip))
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    layout = parameter_layout(spec, g)
    theta = layout.pack(alpha=[1.5, 2.0, 1.0], momentum=[5.0, 6.0, 7.0],
                        network=[1.0, -1.0, 2.0])
    return spec, g, layout, theta


def simulated(spec, g, theta, n=4000, seed=1, delta=0.01):
    return simulate_path(spec, g, theta, np.zeros(spec.d), delta, n,
                         substeps=5, seed=seed)


def naive_contrast(path, spec, g, theta):
    # direct transcription of the local-Gaussian contrast, one term at a time
    total = 0.0
    for i in range(path.n):
        x = path.data[i]
        dx = path.data[i + 1] - x
        b = drift_eval(spec, g, theta, x)
        s = diffusion_eval(spec, theta.alpha, x)
        for j in range(path.d):
            r = dx[j] - path.delta * b[j]
            total += r * r / (2.0 * path.delta * s[j] ** 2)
            total += 0.5 * np.log(s[j] ** 2)
    return total


def test_quasi_loglik_matches_naive_loop():
    spec, g, layout, theta = small_model()
    path = simulated(spec, g, theta, n=200)
    want = naive_contrast(path, spec, g, theta)
    assert contrast_by_rows(path, spec, g, theta) == pytest.approx(want, rel=1e-12)
    # the moments' contrast, one chunk or several, at once for two vectors
    flat = layout.flatten(theta)
    for sizes in (None, [120, 50, 30]):
        got = quasi_loglik(_path_moments(spec, layout, path.data, sizes),
                           np.stack([flat, 1.1 * flat]), path.delta)
        assert got.shape == (2, 1 if sizes is None else 3)
        assert got[0].sum() == pytest.approx(want, rel=1e-12)
        assert got[1].sum() == pytest.approx(contrast_by_rows(
            path, spec, g, layout.unflatten(1.1 * flat)), rel=1e-12)


def test_contrast_identities():
    spec, g, layout, theta = small_model()
    path = simulated(spec, g, theta, n=150)
    x0 = path.data[:-1]
    sig = sigma_path(path, spec, theta.alpha)
    log_term = 0.5 * float(np.sum(np.log(sig * sig)))
    assert contrast_by_rows(path, spec, g, theta) == pytest.approx(
        0.5 * drift_contrast(path, spec, g, theta) + log_term, rel=1e-12)
    assert sig.shape == (path.n, 3)
    assert np.allclose(sig, theta.alpha * 100.0 * np.tanh(
        np.sqrt(1.0 + x0 * x0) / 100.0))


def test_stage_one_scale_is_the_exact_minimizer():
    spec, g, layout, theta = small_model()
    path = simulated(spec, g, theta, n=3000)
    alpha_hat = stage_one_scales(path, spec)
    # the contrast is separable; scanning one coordinate at a time must not
    # find anything better than the closed form
    from scipy.optimize import minimize_scalar
    for j in range(3):
        def coord_obj(a):
            trial = alpha_hat.copy()
            trial[j] = a
            return diffusion_contrast(path, spec, trial)
        res = minimize_scalar(coord_obj, bounds=(1e-3, 50.0), method="bounded",
                              options={"xatol": 1e-10})
        assert res.x == pytest.approx(alpha_hat[j], abs=1e-6)
    # and it recovers the truth decently at this sample size
    assert np.all(np.abs(alpha_hat - theta.alpha) < 0.12 * theta.alpha)


def test_stage_one_clipping():
    spec, g, layout, theta = small_model()
    path = simulated(spec, g, theta, n=100)
    clipped = stage_one_scales(path, spec, lo=0.0, hi=0.5)
    assert np.all(clipped <= 0.5)


def test_scalar_ou_closed_form_matches_hand_formula():
    # one node, no edges, constant diffusion: the weighted GLS collapses to
    # mu_hat = -sum(x dx) / (delta sum(x^2))
    spec = NsdeSpec(d=1, drift=LinearDrift(), diffusion=ConstantDiagonal())
    g = build_graph(1, [])
    theta = ParamVector(alpha=[1.2], beta=[4.0])
    path = simulated(spec, g, theta, n=5000, seed=3)
    x = path.data[:-1, 0]
    dx = np.diff(path.data[:, 0])
    mu_hand = -float(x @ dx) / (path.delta * float(x @ x))
    fit = fit_linear_closed_form(path, g, sigma_hat=1.0)
    assert fit.converged
    layout = parameter_layout(spec, g)
    theta_hat = ParamVector(alpha=[1.2], beta=fit.theta_hat.beta)
    assert layout.momentum(theta_hat)[0] == pytest.approx(mu_hand, rel=1e-12)
    assert abs(mu_hand - 4.0) < 1.0


def test_closed_form_weights_change_the_estimate():
    # state-dependent weights must matter under a clipped diffusion
    spec, g, layout, theta = small_model(clip=2.0)
    path = simulated(spec, g, theta, n=2000, seed=5)
    flat_w = fit_linear_closed_form(path, g, sigma_hat=1.0)
    true_w = fit_linear_closed_form(path, g, sigma_path(path, spec, theta.alpha))
    assert not np.allclose(flat_w.theta_hat.beta, true_w.theta_hat.beta)


def test_closed_form_singular_gram():
    flat = SamplePath(delta=0.1, data=np.zeros((50, 2)))
    g = build_graph(2, [(0, 1)])
    with pytest.raises(SingularGramError) as err:
        fit_linear_closed_form(flat, g, sigma_hat=1.0)
    assert err.value.node == 0


def test_gradient_matches_central_differences():
    spec, g, layout, theta = small_model()
    path = simulated(spec, g, theta, n=300)
    flat = layout.flatten(theta) * 0.9
    grad = quasi_grad(path, spec, g, layout, flat)

    def obj(v):
        return contrast_by_rows(path, spec, g, layout.unflatten(v))

    num = np.empty_like(flat)
    for k in range(flat.size):
        h = 1e-6 * (1.0 + abs(flat[k]))
        e = np.zeros_like(flat)
        e[k] = h
        num[k] = (obj(flat + e) - obj(flat - e)) / (2.0 * h)
    assert np.allclose(grad, num, rtol=2e-5, atol=1e-4)


def test_hessian_matches_central_differences():
    spec, g, layout, theta = small_model()
    path = simulated(spec, g, theta, n=300)

    def obj(v):
        return contrast_by_rows(path, spec, g, layout.unflatten(v))

    flat = layout.flatten(theta)
    analytic = model_hessian(path, spec, g, theta)
    numeric = numerical_hessian(obj, flat)
    scale = np.abs(analytic).max()
    assert np.allclose(analytic, numeric, atol=2e-5 * scale)
    assert np.allclose(analytic, analytic.T, atol=0.0)


def test_hessian_matches_for_radial_and_augmented_forms():
    rng = np.random.default_rng(8)
    # radial family
    spec = NsdeSpec(d=2, drift=RadialDictionaryDrift(offsets=(1.0,),
                                                     exponents=(0.0,)),
                    diffusion=ConstantDiagonal())
    g = build_graph(2, [(0, 1), (1, 0)])
    layout = parameter_layout(spec, g)
    theta = layout.unflatten(np.array([1.0, 1.5, 2.0, 3.0, 0.5, -0.5]))
    path = simulate_path(spec, g, theta, [0.5, -0.3], 0.02, 200, substeps=4,
                         seed=2)

    def obj(v):
        return contrast_by_rows(path, spec, g, layout.unflatten(v))

    analytic = model_hessian(path, spec, g, theta)
    numeric = numerical_hessian(obj, layout.flatten(theta))
    assert np.allclose(analytic, numeric, atol=2e-5 * np.abs(analytic).max())

    # the augmented (complete-graph) layout
    spec2 = NsdeSpec(d=2, drift=LinearDrift(), diffusion=ConstantDiagonal())
    layout2 = parameter_layout(spec2, g, augmented=True)
    flat2 = np.concatenate([[1.0, 2.0], [3.0, 4.0], rng.standard_normal(2)])
    theta2 = layout2.unflatten(flat2)

    def obj2(v):
        return contrast_by_rows(path, spec2, g, layout2.unflatten(v))

    analytic2 = model_hessian(path, spec2, g, theta2)
    numeric2 = numerical_hessian(obj2, flat2)
    assert np.allclose(analytic2, numeric2, atol=2e-5 * np.abs(analytic2).max())


def _designs_match_the_loop_drift(spec, g, theta, rows, augmented=False):
    """The reference designs of the increments of rows reproduce the drift,
    and the fold's Gram and cross sums are their weighted products."""
    layout = parameter_layout(spec, g, augmented=augmented)
    flat = layout.flatten(theta)
    x0 = rows[:-1]
    want = np.stack([drift_eval(spec, g, theta, row) for row in x0])
    designs = node_designs(spec, layout, x0)
    assert len(designs) == spec.d
    mom = _path_moments(spec, layout, rows)
    scale = diffusion_shape(spec, x0)
    std = np.diff(rows, axis=0) / scale
    for j, (reg, slots) in enumerate(designs):
        assert np.allclose(reg @ flat[slots], want[:, j], atol=1e-12)
        live = mom.slots[j] >= 0
        assert np.array_equal(mom.slots[j, live], slots)
        z = reg / scale[:, j, None]
        assert np.allclose(mom.gram[0, j][np.ix_(live, live)], z.T @ z,
                           rtol=1e-12, atol=0.0)
        assert np.allclose(mom.cross[0, j, live], z.T @ std[:, j], rtol=1e-12,
                           atol=1e-12 * np.abs(z.T @ std[:, j]).max())
    return designs


def test_node_designs_reproduce_the_drift():
    spec, g, layout, theta = small_model()
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((21, 3))
    _designs_match_the_loop_drift(spec, g, theta, rows)
    # augmented designs regress on every other coordinate
    aug = parameter_layout(spec, complete_graph(3), augmented=True)
    theta_aug = aug.pack(alpha=[1.5, 2.0, 1.0], momentum=[5.0, 6.0, 7.0],
                         network=rng.standard_normal(6))
    designs_aug = _designs_match_the_loop_drift(
        spec, complete_graph(3), theta_aug, rows, augmented=True)
    assert all(reg.shape[1] == 3 for reg, _ in designs_aug)


@pytest.mark.parametrize("family", ["intercepts", "radial"])
def test_node_designs_follow_unsorted_edges(family):
    # polymer(7) lists (0, 1) and (3, 4) after the chain, out of sorted order
    g = polymer(7)
    if family == "intercepts":
        drift = LinearDrift(with_intercepts=True)
    else:
        drift = RadialDictionaryDrift(offsets=(1.0, 2.0), exponents=(-0.5, 0.5))
    spec = NsdeSpec(d=7, drift=drift, diffusion=ConstantDiagonal())
    layout = parameter_layout(spec, g)
    rng = np.random.default_rng(2)
    theta = layout.unflatten(np.r_[np.ones(7),
                                   rng.standard_normal(layout.pi_total - 7)])
    rows = rng.standard_normal((31, 7))
    designs = _designs_match_the_loop_drift(spec, g, theta, rows)
    levels = max(layout.n_levels, 1)
    for j, (reg, slots) in enumerate(designs):
        assert slots[0] == layout.momentum_slot(j)
        assert reg.shape[1] == 1 + layout.with_intercepts + levels * int(g.adjacency()[j].sum())


def test_adaptive_closed_form_vs_optimizer():
    spec, g, layout, theta = small_model()
    path = simulated(spec, g, theta, n=4000, seed=7)
    closed = fit_adaptive_closed_form(path, spec, g)
    iterative = fit_qmle(path, spec, g, mode="adaptive")
    a = layout.flatten(closed.theta_hat)
    b = layout.flatten(iterative.theta_hat)
    assert np.allclose(a, b, atol=1e-6 * (1.0 + np.abs(a).max()))
    assert closed.converged and iterative.converged
    assert closed.gram_cond is not None and np.all(closed.gram_cond < 1e6)


def test_joint_fit_tracks_the_truth():
    spec, g, layout, theta = small_model()
    path = simulated(spec, g, theta, n=4000, seed=11)
    fit = fit_qmle(path, spec, g, mode="joint")
    flat_true = layout.flatten(theta)
    flat_hat = layout.flatten(fit.theta_hat)
    assert fit.converged
    # drift params at this horizon are loose; scales are tight
    assert np.all(np.abs(flat_hat[:3] - flat_true[:3]) < 0.15)
    assert np.all(np.abs(flat_hat[3:] - flat_true[3:]) < 2.5)
    # joint optimum cannot be worse than the two-stage fit
    two_stage = fit_adaptive_closed_form(path, spec, g)
    assert fit.contrast_value <= two_stage.contrast_value + 1e-6


@pytest.mark.parametrize("seed", [0, 10, 18])
def test_joint_fit_is_certified_on_er_graphs(seed):
    # d = 4 instances drawn as in test_acceptance's closed-form check; an
    # iterative descent left seeds 0 and 18 above the certificate
    rng = np.random.default_rng(seed)
    d = 4
    spec = NsdeSpec(d=d, drift=LinearDrift(), diffusion=TanhClipped(clip=100.0))
    g = erdos_renyi(d, p=0.4, seed=int(rng.integers(1 << 30)))
    layout = parameter_layout(spec, g)
    theta = layout.pack(alpha=1.0 + rng.uniform(0.0, 1.5, d),
                        momentum=rng.uniform(4.0, 8.0, d),
                        network=rng.uniform(-1.0, 1.0, g.n_edges))
    path = simulate_path(spec, g, theta, np.zeros(d), 0.01, 5000,
                         substeps=10, seed=seed)
    fit = fit_qmle(path, spec, g, mode="joint")
    assert fit.converged
    # no bound binds, so the whole gradient vanishes
    grad = quasi_grad(path, spec, g, layout, layout.flatten(fit.theta_hat))
    assert np.max(np.abs(grad)) <= 1e-8 * (1.0 + abs(fit.contrast_value))


def test_freeze_alpha_is_respected():
    spec, g, layout, theta = small_model()
    path = simulated(spec, g, theta, n=500)
    frozen = np.array([1.1, 2.2, 3.3])
    fit = fit_qmle(path, spec, g, mode="joint", freeze_alpha=frozen)
    assert np.array_equal(fit.theta_hat.alpha, frozen)
    # values in [0, 1e-8) are floored there
    fit = fit_qmle(path, spec, g, freeze_alpha=[1.0, 0.0, 1e-9])
    assert fit.theta_hat.alpha.tolist() == [1.0, 1e-8, 1e-8]


@pytest.mark.parametrize("frozen", [[1.0, np.nan, 1.0], [1.0, np.inf, 1.0],
                                    [1.0, -1.0, 1.0], [1.0, 1.0]])
def test_freeze_alpha_rejects_bad_scales(frozen):
    spec, g, layout, theta = small_model()
    path = simulated(spec, g, theta, n=500)
    with pytest.raises(DegenerateDiffusionError, match="freeze_alpha"):
        fit_qmle(path, spec, g, freeze_alpha=frozen)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_linear_closed_form_rejects_non_finite_weights(bad):
    spec, g, layout, theta = small_model()
    path = simulated(spec, g, theta, n=200)
    sigma = np.ones((path.n, 3))
    sigma[17, 1] = bad
    with pytest.raises(DegenerateDiffusionError,
                       match="sigma_hat must be finite and strictly positive"):
        fit_linear_closed_form(path, g, sigma)


def test_joint_scale_needs_more_increments_than_coefficients():
    # one increment and one drift coefficient (the momentum) per node: the
    # fit interpolates the increment, and Q_j is left at rounding noise
    spec = NsdeSpec(d=3, drift=LinearDrift(), diffusion=ConstantDiagonal())
    g = build_graph(3, [])
    theta = parameter_layout(spec, g).pack(alpha=np.ones(3), momentum=np.ones(3))
    rng = np.random.default_rng(0)
    for seed in range(20):
        x0 = rng.standard_normal(3)
        short = simulate_path(spec, g, theta, x0, 0.01, 1, seed=seed)
        with pytest.raises(InsufficientDataError,
                           match="node 0 .* its 1 drift coefficients, got 1"):
            fit_qmle(short, spec, g, mode="joint")
        longer = simulate_path(spec, g, theta, x0, 0.01, 2, seed=seed)
        alpha = fit_qmle(longer, spec, g, mode="joint").theta_hat.alpha
        assert np.all(np.isfinite(alpha)) and np.all(alpha > 0.0)
    # a noiseless path with spare increments leaves Q_j at rounding noise
    # as well, below zero for some rates: no scale can be read off it
    one = NsdeSpec(d=1, drift=LinearDrift(), diffusion=ConstantDiagonal())
    for rate in np.linspace(0.5, 0.99, 20):
        noiseless = SamplePath(delta=0.01, data=(2.0 * rate ** np.arange(4))[:, None])
        with pytest.raises(DegenerateDiffusionError,
                           match="node 0: the drift fits its increments exactly"):
            fit_qmle(noiseless, one, build_graph(1, []), mode="joint")


def test_fit_argument_errors():
    spec, g, layout, theta = small_model()
    path = simulated(spec, g, theta, n=100)
    with pytest.raises(ValueError):
        fit_qmle(path, spec, g, mode="steepest")
    with pytest.raises(InsufficientDataError):
        _path_moments(spec, layout, np.zeros((1, 3)))
    mom = _path_moments(spec, layout, path.data)
    with pytest.raises(DegenerateDiffusionError):
        quasi_loglik(mom, ParamVector(alpha=[0.0, 1.0, 1.0],
                                      beta=theta.beta).flat()[None], path.delta)
    with pytest.raises(LayoutMismatchError, match=r"shape \(1, 4\) for 9 slots"):
        quasi_loglik(mom, np.ones((1, 4)), path.delta)
    assert quasi_loglik(mom, np.empty((0, 9)), path.delta).shape == (0, 1)


@pytest.mark.parametrize("columns", [2, 4])
def test_a_path_of_another_width_names_both_counts(columns):
    # it once failed inside numpy with a broadcast or take message
    spec, g, layout, theta = small_model()
    rows = simulated(spec, g, theta, n=200).data
    rows = np.hstack([rows, rows])[:, :columns]
    path = SamplePath(delta=0.01, data=rows)
    message = f"path has {columns} columns, model has 3 nodes"
    with pytest.raises(LayoutMismatchError, match=message):
        fit_qmle(path, spec, g)
    with pytest.raises(LayoutMismatchError, match=message):
        select_graph(path, spec, {"rule": "min", "n_points": 4})


def test_numerical_hessian_option_agrees():
    # the iterative fit's information against central differences of the
    # contrast at its own estimate
    spec, g, layout, theta = small_model()
    path = simulated(spec, g, theta, n=300, seed=13)
    fa = fit_qmle(path, spec, g, mode="adaptive")

    def obj(v):
        return contrast_by_rows(path, spec, g, layout.unflatten(v))

    numeric = numerical_hessian(obj, layout.flatten(fa.theta_hat))
    info = fa.info_blocks.dense()
    scale = np.abs(info).max()
    assert np.allclose(info, numeric, atol=2e-5 * scale)


def test_rate_normalization():
    spec, g, layout, theta = small_model()
    rate = rate_diagonal(layout, n=400, delta=0.01)
    assert np.allclose(rate[:3], 1.0 / np.sqrt(400))
    assert np.allclose(rate[3:], 1.0 / np.sqrt(4.0))
    path = simulated(spec, g, theta, n=400)
    fit = fit_adaptive_closed_form(path, spec, g)
    se = fit.standard_errors()
    assert se is not None and np.all(np.isfinite(se)) and np.all(se > 0)


def test_fit_result_export():
    spec, g, layout, theta = small_model()
    path = simulated(spec, g, theta, n=300)
    fit = fit_adaptive_closed_form(path, spec, g)
    out = fit_result_to_dict(fit)
    assert out["names"] == list(layout.coord_names)
    assert len(out["values"]) == layout.pi_total
    assert out["converged"] is True
    assert out["n"] == 300 and out["delta"] == 0.01
    import json
    assert json.loads(json.dumps(out)) == out


def test_radial_family_fit_runs():
    spec = NsdeSpec(d=2, drift=RadialDictionaryDrift(offsets=(1.0,),
                                                     exponents=(0.0,)),
                    diffusion=ConstantDiagonal())
    g = build_graph(2, [(0, 1)])
    layout = parameter_layout(spec, g)
    theta = layout.unflatten(np.array([0.8, 0.6, 3.0, 4.0, 2.0]))
    path = simulate_path(spec, g, theta, [0.1, 0.1], 0.01, 4000, substeps=5,
                         seed=4)
    fit = fit_qmle(path, spec, g, mode="adaptive")
    assert fit.converged
    flat_true = layout.flatten(theta)
    flat_hat = layout.flatten(fit.theta_hat)
    assert np.all(np.abs(flat_hat[:2] - flat_true[:2]) < 0.1)
    assert np.all(np.abs(flat_hat[2:] - flat_true[2:]) < 2.0)
