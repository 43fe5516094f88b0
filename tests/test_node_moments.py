"""Per-node moments against the row-by-row reference evaluators."""
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.linalg import cholesky

from netsde import estimate, model
from netsde.estimate import (_derivatives, _MomentFold, _node_terms,
                             _path_moments, _projected_grad,
                             fit_adaptive_closed_form, fit_linear_closed_form,
                             fit_qmle, fit_result_to_dict, model_hessian,
                             quasi_loglik)
from netsde.experiments import error_bound_study, select_graph
from netsde.graph import build_graph, complete_graph
from netsde.lasso import graph_from_adjacency, two_step_refit
from netsde.model import (LinearDrift, NsdeSpec, RadialDictionaryDrift,
                          TanhClipped, default_bounds, diffusion_shape,
                          parameter_layout, path_drift_fn)
from netsde.simulate import simulate_path
from reference import (contrast_by_rows, exact_inverse_diagonal, hessian_by_rows,
                       holdout_loss, node_designs, quasi_grad, sigma_path,
                       stage_one_scales, validation_loss_by_rows)

# node 0's parents are listed out of order, so its slots are not ascending
EDGES = [(0, 2), (0, 1), (1, 2), (2, 0)]


def model_case(name):
    """(spec, g, augmented, path, candidates) for one model family."""
    g = build_graph(3, EDGES)
    if name == "radial":
        spec = NsdeSpec(d=3, drift=RadialDictionaryDrift(offsets=(1.0, 2.0),
                                                         exponents=(0.0, 0.5)),
                        diffusion=TanhClipped(clip=2.0))
        layout = parameter_layout(spec, g)
        theta = layout.pack(alpha=[1.0, 1.5, 0.8], momentum=[5.0, 6.0, 4.0],
                            network=[1.0, -1.0, 0.5, 2.0, 0.3, 0.0, -0.4, 1.0])
    else:
        spec = NsdeSpec(d=3, drift=LinearDrift(with_intercepts=name == "intercepts"),
                        diffusion=TanhClipped(clip=2.0))
        layout = parameter_layout(spec, g)
        theta = layout.pack(alpha=[1.0, 1.5, 0.8], momentum=[5.0, 6.0, 4.0],
                            network=[1.0, -1.0, 2.0, 0.5],
                            intercepts=[0.5, -1.0, 0.3] if name == "intercepts" else None)
    path = simulate_path(spec, g, theta, np.zeros(3), 0.01, 600, substeps=5,
                         seed=21)
    augmented = name == "augmented"
    if augmented:
        g = complete_graph(3)
        theta = fit_adaptive_closed_form(path, spec, g, augmented=True).theta_hat
        layout = parameter_layout(spec, g, augmented=True)
    flat = layout.flatten(theta)
    rng = np.random.default_rng(3)
    sparse = flat.copy()
    sparse[layout.pi_alpha + spec.d:][::2] = 0.0
    candidates = [layout.unflatten(v) for v in (
        flat, sparse, flat * (1.0 + 0.3 * rng.standard_normal(flat.shape[0])) ** 2)]
    return spec, g, augmented, path, candidates


CASES = ("linear", "intercepts", "augmented", "radial")


@pytest.mark.parametrize("name", CASES)
def test_validation_loss_matches_the_row_by_row_loop(name):
    spec, g, _aug, path, candidates = model_case(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small blocks warn; not the point here
        loss, se = holdout_loss(
            path, spec, g, np.stack([c.flat() for c in candidates]), fraction=0.4)
    want_loss, want_se = validation_loss_by_rows(path, spec, g, candidates,
                                                 fraction=0.4)
    assert np.allclose(loss, want_loss, rtol=1e-12, atol=0.0)
    assert np.allclose(se, want_se, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", CASES)
def test_information_blocks_match_model_hessian(name):
    spec, g, augmented, path, candidates = model_case(name)
    layout = parameter_layout(spec, g, augmented=augmented)
    # away from any optimum, so the alpha-drift cross terms are not zero
    for theta in candidates[1:]:
        flat = layout.flatten(theta)
        mom = _path_moments(spec, layout, path.data)
        grad, info = _derivatives(mom, flat, path.delta,
                                  _node_terms(mom, flat, path.delta))
        got = info.dense()
        want = hessian_by_rows(path, spec, g, layout, flat)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        assert np.array_equal(model_hessian(path, spec, g, theta), got)
        contrast = quasi_loglik(mom, flat[None], path.delta).sum()
        assert contrast == pytest.approx(contrast_by_rows(path, spec, g, theta),
                                         rel=1e-12)
        want = quasi_grad(path, spec, g, layout, flat)
        assert np.allclose(grad, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("mode", ["adaptive", "joint"])
def test_fit_qmle_reads_the_path_once_through_its_moments(monkeypatch, mode):
    spec, g, _aug, path, _candidates = model_case("radial")
    linear = model_case("linear")  # the selection takes the linear family
    builds = []
    init = _MomentFold.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    def row_by_row(*args, **kwargs):
        raise AssertionError("a row-by-row evaluator ran during the fit")

    # every NodeMoments comes from one fold per call, whoever builds it
    monkeypatch.setattr(_MomentFold, "__init__", counted)
    monkeypatch.setattr(estimate, "model_hessian", row_by_row)
    monkeypatch.setattr(model, "path_drift_fn", row_by_row)
    fit = fit_qmle(path, spec, g, mode=mode)
    assert len(builds) == 1
    for call in (
            lambda: fit_linear_closed_form(path, g, 1.0),
            lambda: model_hessian(path, spec, g, fit.theta_hat),
            lambda: select_graph(linear[3], linear[0], {"rule": "min",
                                                        "n_points": 4}),
            lambda: error_bound_study({
                "graph": {"kind": "er_fixed_edges", "d": 4, "n_edges": 3,
                          "seed": 1},
                "horizons": [2.0], "n_reps": 2})):
        builds.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small validation blocks warn
            call()
        assert len(builds) == 1
    monkeypatch.undo()
    assert fit.contrast_value == pytest.approx(
        contrast_by_rows(path, spec, g, fit.theta_hat), rel=1e-12)


@pytest.mark.parametrize("name", CASES)
def test_fits_carry_the_reference_contrast_information_and_errors(name):
    spec, g, augmented, path, _candidates = model_case(name)
    if name == "radial":
        fit = fit_qmle(path, spec, g, mode="adaptive")
    else:
        fit = fit_adaptive_closed_form(path, spec, g, augmented=augmented)
    info = fit.info_blocks.dense()
    want = hessian_by_rows(path, spec, g, fit.layout,
                           fit.layout.flatten(fit.theta_hat))
    assert np.allclose(info, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
    assert fit.contrast_value == pytest.approx(
        contrast_by_rows(path, spec, g, fit.theta_hat), rel=1e-12)
    # block-wise standard errors against the exact inverse of the whole
    # matrix (a float inverse of the radial case, condition number 1.6e7,
    # is itself about 1e-12 off)
    rate = fit.rate_diag
    scaled = rate[:, None] * info * rate[None, :]
    dense = rate * exact_inverse_diagonal(scaled) * rate
    assert np.allclose(fit.standard_errors(), np.sqrt(dense), rtol=1e-12,
                       atol=0.0)


def test_joint_radial_fit_meets_its_kkt_conditions():
    # the Gram condition number is 3.6e5 and one coefficient sits on the
    # box at -1000
    spec, g, _aug, path, _candidates = model_case("radial")
    fit = fit_qmle(path, spec, g, mode="joint")
    assert fit.converged
    layout = fit.layout
    flat = layout.flatten(fit.theta_hat)
    grad = quasi_grad(path, spec, g, layout, flat)
    lo, hi = default_bounds(layout)
    at_lo = flat == lo
    assert np.flatnonzero(at_lo).tolist() == [12] and flat[12] == -1000.0
    assert np.all(flat < hi)
    assert grad[12] > 0.0  # the bound blocks the descent direction
    tol = 1e-8 * (1.0 + abs(fit.contrast_value))
    assert np.max(np.abs(grad[~at_lo])) <= tol
    # the joint scales are alpha_j^2 = Q_j / (n delta) at the fitted drift
    x0 = path.data[:-1]
    resid = np.diff(path.data, axis=0) - path.delta * path_drift_fn(
        spec, g, fit.theta_hat)(x0)
    quad = np.sum((resid / diffusion_shape(spec, x0)) ** 2, axis=0)
    assert np.allclose(fit.theta_hat.alpha,
                       np.sqrt(quad / (path.n * path.delta)), rtol=1e-12,
                       atol=0.0)
    # and no lower than the adaptive fit's contrast
    adaptive = fit_qmle(path, spec, g, mode="adaptive")
    assert fit.contrast_value < adaptive.contrast_value


@pytest.mark.parametrize("name", ["linear", "augmented", "radial"])
def test_every_front_end_runs_the_one_certified_fit(name):
    spec, g, augmented, path, _candidates = model_case(name)
    closed = fit_adaptive_closed_form(path, spec, g, augmented=augmented)
    fit = fit_qmle(path, spec, g, mode="adaptive", augmented=augmented)
    assert np.array_equal(closed.theta_hat.flat(), fit.theta_hat.flat())
    assert closed.contrast_value == fit.contrast_value
    assert closed.converged and fit.converged
    if not augmented:
        # the refit, read off the complete graph's moments, is the two-stage
        # fit on the selected graph, whatever the drift family
        a_hat = g.adjacency()
        full = parameter_layout(spec, complete_graph(3))
        refit = two_step_refit(spec, a_hat, _path_moments(spec, full, path.data),
                               full, path.delta)
        want = fit_qmle(path, spec, graph_from_adjacency(a_hat), mode="adaptive")
        # the restricted sums come from wider products, so rounding may
        # differ in the last bits
        np.testing.assert_allclose(refit.theta_hat.flat(), want.theta_hat.flat(),
                                   rtol=1e-12, atol=0)
        assert refit.contrast_value == pytest.approx(want.contrast_value,
                                                     rel=1e-12, abs=0)
        assert refit.converged


@pytest.mark.parametrize("name", ["linear", "intercepts"])
def test_linear_closed_form_is_the_certified_frozen_scale_fit(name):
    # weights sigma_hat = alpha_hat s(x) give the drift of fit_qmle with the
    # scales frozen at alpha_hat; the scales themselves read 1
    spec, g, _aug, path, _candidates = model_case(name)
    alpha_hat = stage_one_scales(path, spec)
    closed = fit_linear_closed_form(path, g, sigma_path(path, spec, alpha_hat),
                                    intercepts=name == "intercepts")
    want = fit_qmle(path, spec, g, freeze_alpha=alpha_hat)
    assert closed.converged and want.converged
    assert np.array_equal(closed.theta_hat.alpha, np.ones(3))
    assert closed.layout == want.layout
    assert np.allclose(closed.theta_hat.beta, want.theta_hat.beta, rtol=1e-12,
                       atol=0.0)
    assert closed.info_blocks.p == closed.layout.pi_total
    assert closed.gram_cond.shape == (3,) and not closed.gram_jittered.any()


def test_certificate_counts_only_coordinates_on_their_bound():
    lo, hi = np.full(3, -1e3), np.full(3, 1e3)
    # descent pushes each coordinate up (negative gradient): one sits on
    # hi, one 0.005 below it, one inside
    x = np.array([1e3, 1e3 - 0.005, 0.0])
    grad = np.array([-1.0, -1.0, 0.0])
    assert _projected_grad(grad, x, lo, hi).tolist() == [0.0, -1.0, 0.0]
    # and down at lo
    assert _projected_grad(-grad, -x, lo, hi).tolist() == [0.0, 1.0, 0.0]


def test_certificate_checks_only_the_optimized_coordinates(monkeypatch):
    spec, g, _aug, path, _candidates = model_case("intercepts")
    # the intercepts are left at zero, off their optimum, and not checked
    fit = fit_adaptive_closed_form(path, spec, g, intercepts=False)
    layout = fit.layout
    grad = quasi_grad(path, spec, g, layout, layout.flatten(fit.theta_hat))
    assert np.max(np.abs(grad[layout.intercept_indices])) > 1.0
    assert fit.converged
    # a solve that misses the Gram solution fails the certificate
    solve = estimate._solve_grams

    def off_by_a_little(gram, rhs, live):
        coefs, conds, jittered = solve(gram, rhs, live)
        return coefs + 1e-3, conds, jittered

    monkeypatch.setattr(estimate, "_solve_grams", off_by_a_little)
    assert not fit_adaptive_closed_form(path, spec, g).converged


def test_unfitted_intercepts_stay_at_zero():
    spec, g, _aug, path, _candidates = model_case("intercepts")
    fit = fit_adaptive_closed_form(path, spec, g, intercepts=False)
    layout = fit.layout
    assert np.all(layout.intercepts(fit.theta_hat) == 0.0)
    # the other coefficients are the fit of the model without intercepts
    plain = NsdeSpec(d=3, drift=LinearDrift(), diffusion=spec.diffusion)
    want = fit_adaptive_closed_form(path, plain, g)
    got = np.delete(fit.theta_hat.flat(), layout.intercept_indices)
    assert np.allclose(got, want.theta_hat.flat(), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name,intercepts", [
    ("linear", None), ("intercepts", None), ("intercepts", False)])
def test_gram_cond_is_the_condition_number_of_the_live_gram(name, intercepts):
    # node 0 has two partners and the others one, so nodes 1 and 2 are
    # padded, and an unfitted intercept is left out of every node's Gram
    # matrix.  (The radial case's condition number, 3.6e5, turns the
    # rounding of the row-by-row Gram matrix into a 1.4e-12 relative
    # change.)
    spec, g, _aug, path, _candidates = model_case(name)
    fit = fit_qmle(path, spec, g, intercepts=intercepts)
    x0 = path.data[:-1]
    scale = diffusion_shape(spec, x0)
    for j, (reg, _slots) in enumerate(node_designs(spec, fit.layout, x0)):
        if intercepts is False:
            reg = np.delete(reg, 1, axis=1)
        z = reg / scale[:, j, None]
        assert fit.gram_cond[j] == pytest.approx(np.linalg.cond(z.T @ z),
                                                 rel=1e-12, abs=0)


def test_a_clean_fit_factors_every_gram_matrix_in_one_call(monkeypatch):
    spec, g, _aug, path, _candidates = model_case("linear")
    calls = []

    def counted(gram, *args, **kwargs):
        calls.append(gram.shape)
        return cholesky(gram, *args, **kwargs)

    monkeypatch.setattr(estimate.np.linalg, "cholesky", counted)
    fit = fit_adaptive_closed_form(path, spec, g)
    assert not fit.gram_jittered.any()
    # node 0 has two partners and the others one, so the stack is padded
    assert calls == [(3, 3, 3)]


def test_jittered_gram_is_flagged_warned_and_exported(monkeypatch):
    spec, g, _aug, path, _candidates = model_case("linear")
    calls = []

    def failing_for_the_stack_and_node_1(gram, *args, **kwargs):
        calls.append(gram.shape)
        # the stack's factorization, then node 1's first one in the node by
        # node retry
        if gram.ndim == 3 or len(calls) == 3:
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(gram, *args, **kwargs)

    monkeypatch.setattr(estimate.np.linalg, "cholesky",
                        failing_for_the_stack_and_node_1)
    with pytest.warns(UserWarning, match=r"node\(s\) 1 \(condition number") as rec:
        fit = fit_adaptive_closed_form(path, spec, g)
    assert len(rec) == 1
    # nodes 0, 1 (failing), 1 jittered and 2, after the stack
    assert calls == [(3, 3, 3)] + [(3, 3)] * 4
    assert f"{fit.gram_cond[1]:.3g}" in str(rec[0].message)
    assert fit.gram_jittered.tolist() == [False, True, False]
    out = fit_result_to_dict(fit)
    assert out["gram_jittered"] == 1
    assert out["gram_cond_max"] == float(fit.gram_cond.max())
    # the jitter is 1e-10 of the mean diagonal: the estimate barely moves
    monkeypatch.undo()
    clean = fit_adaptive_closed_form(path, spec, g)
    assert np.allclose(fit.theta_hat.flat(), clean.theta_hat.flat(),
                       rtol=1e-6, atol=0.0)
    assert fit_result_to_dict(clean)["gram_jittered"] == 0


@pytest.mark.filterwarnings("ignore:validation blocks hold")
def test_select_graph_builds_no_dense_curvature():
    d = 40
    ring = build_graph(d, [(i, (i - 1) % d) for i in range(d)])
    spec = NsdeSpec(d=d, drift=LinearDrift(), diffusion=TanhClipped(clip=100.0))
    layout = parameter_layout(spec, ring)
    theta = layout.pack(alpha=np.full(d, 2.0), momentum=np.full(d, 7.0),
                        network=np.full(d, 2.0))
    path = simulate_path(spec, ring, theta, np.zeros(d), 0.01, 4000,
                         substeps=2, seed=5)
    p = d * d + d
    tracemalloc.start()
    try:
        a_hat, _lam, _lpath, _pilot, _mom = select_graph(
            path, spec, {"rule": "half_se", "holdout": 0.3})
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p * p * 8
    assert a_hat.shape == (d, d)
