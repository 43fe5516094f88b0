"""Per-node moments against the row-by-row reference evaluators."""
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor

from netsde import estimate
from netsde.estimate import (_chunk_contrast, _information, _path_moments,
                             fit_adaptive_closed_form, fit_qmle,
                             fit_result_to_dict, model_hessian, quasi_loglik)
from netsde.experiments import select_graph
from netsde.graph import build_graph, complete_graph
from netsde.lasso import validation_loss
from netsde.model import (LinearDrift, NsdeSpec, RadialDictionaryDrift,
                          TanhClipped, parameter_layout)
from netsde.simulate import simulate_path
from reference import validation_loss_by_rows

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


@pytest.mark.parametrize("scheme", ["holdout_tail", "blocked_kfold"])
@pytest.mark.parametrize("name", CASES)
def test_validation_loss_matches_the_row_by_row_loop(name, scheme):
    spec, g, _aug, path, candidates = model_case(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small blocks warn; not the point here
        loss, se = validation_loss(path, spec, g, candidates, scheme=scheme,
                                   fraction=0.4, k=4)
    want_loss, want_se = validation_loss_by_rows(path, spec, g, candidates,
                                                 scheme=scheme, fraction=0.4, k=4)
    assert np.allclose(loss, want_loss, rtol=1e-12, atol=0.0)
    assert np.allclose(se, want_se, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", CASES)
def test_information_blocks_match_model_hessian(name):
    spec, g, augmented, path, candidates = model_case(name)
    layout = parameter_layout(spec, g, augmented=augmented)
    # away from any optimum, so the alpha-drift cross terms are not zero
    for theta in candidates[1:]:
        flat = layout.flatten(theta)
        mom = _path_moments(spec, g, layout, path.data)
        got = _information(mom, flat, path.delta, layout.pi_total).dense()
        want = model_hessian(path, spec, g, theta, augmented=augmented)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        contrast = _chunk_contrast(mom, flat[None], path.delta).sum()
        assert contrast == pytest.approx(quasi_loglik(path, spec, g, theta),
                                         rel=1e-12)


@pytest.mark.parametrize("name", CASES)
def test_fits_carry_the_reference_contrast_information_and_errors(name):
    spec, g, augmented, path, _candidates = model_case(name)
    if name == "radial":
        fit = fit_qmle(path, spec, g, mode="adaptive", restarts=1)
    else:
        fit = fit_adaptive_closed_form(path, spec, g, augmented=augmented)
    want = model_hessian(path, spec, g, fit.theta_hat, augmented=augmented)
    assert np.allclose(fit.info_matrix, want, rtol=0.0,
                       atol=1e-12 * np.abs(want).max())
    if name != "radial":  # the iterative fit reports the optimizer's value
        assert fit.contrast_value == pytest.approx(
            quasi_loglik(path, spec, g, fit.theta_hat), rel=1e-12)
    # block-wise standard errors against the dense inverse
    rate = fit.rate_diag
    dense = rate * np.diag(np.linalg.inv(fit.scaled_info)) * rate
    assert np.allclose(fit.standard_errors(), np.sqrt(dense), rtol=1e-12,
                       atol=0.0)


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


def test_jittered_gram_is_flagged_warned_and_exported(monkeypatch):
    spec, g, _aug, path, _candidates = model_case("linear")
    calls = []

    def failing_once_for_node_1(gram, *args, **kwargs):
        calls.append(gram.shape)
        if len(calls) == 2:  # node 1's first factorization
            raise np.linalg.LinAlgError("not positive definite")
        return cho_factor(gram, *args, **kwargs)

    monkeypatch.setattr(estimate, "cho_factor", failing_once_for_node_1)
    with pytest.warns(UserWarning, match=r"node\(s\) 1 \(condition number") as rec:
        fit = fit_adaptive_closed_form(path, spec, g)
    assert len(rec) == 1
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
        a_hat, _lam, _lpath, _pilot = select_graph(
            path, spec, {"rule": "half_se", "holdout": 0.3})
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p * p * 8
    assert a_hat.shape == (d, d)
