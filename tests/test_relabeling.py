"""Node relabeling: permuting a path's columns permutes every fit and
selection read off it.

The fold's slot table, ParamLayout.coef_slots, NodeMoments.restrict and
the lasso's index groups all encode which node owns which slot.  A
mix-up there can pass every equal-on-seeds check whose graph is
symmetric, but it breaks this relation.  The known graph has unequal
in-degrees (3, 1, 0 and 1 partners), so its nodes are padded to the
widest one; the selected graph, read off the complete-graph pilot, goes
through the restriction to the refit.
"""
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netsde.estimate import fit_qmle
from netsde.experiments import select_graph
from netsde.graph import build_graph
from netsde.lasso import two_step_refit
from netsde.model import (ConstantDiagonal, LinearDrift, NsdeSpec,
                          RadialDictionaryDrift, TanhClipped, parameter_layout)
from netsde.simulate import simulate_path

PROPERTY = settings(derandomize=True, max_examples=20, deadline=None)
D = 4
EDGES = [(0, 3), (0, 1), (0, 2), (3, 1)]
RTOL = 1e-9


@st.composite
def relabelings(draw, families=("linear", "intercepts", "radial")):
    family = draw(st.sampled_from(families))
    if family == "radial":
        drift = RadialDictionaryDrift(offsets=(1.0, 2.0), exponents=(0.0, 0.5))
    else:
        drift = LinearDrift(with_intercepts=family == "intercepts")
    diffusion = draw(st.sampled_from([ConstantDiagonal(), TanhClipped(clip=2.0)]))
    spec = NsdeSpec(d=D, drift=drift, diffusion=diffusion)
    g = build_graph(D, EDGES)
    layout = parameter_layout(spec, g)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    network = rng.uniform(0.5, 1.5, layout.pi_total - layout.pi_alpha
                          - D * (1 + int(layout.with_intercepts)))
    theta = layout.pack(
        alpha=rng.uniform(0.5, 2.0, D), momentum=rng.uniform(5.0, 8.0, D),
        network=network * rng.choice([-1.0, 1.0], network.shape),
        intercepts=rng.uniform(-1.0, 1.0, D) if layout.with_intercepts else None)
    path = simulate_path(spec, g, theta, np.zeros(D), 0.01, 1500, substeps=2,
                         seed=int(rng.integers(2 ** 31)))
    perm = np.array(draw(st.permutations(range(D))))
    return spec, g, path, perm, draw(st.sampled_from(["adaptive", "joint"]))


def _relabeled(g, perm):
    """g with node perm[k] renamed k: the graph of the path's columns
    taken in the order perm."""
    new = np.argsort(perm)
    return build_graph(g.d, [(int(new[i]), int(new[j])) for i, j in g.edges])


def _by_node(fit):
    """A fit's estimate as arrays indexed by node: the scales, momenta,
    intercepts (0 without them) and the (levels, d, d) network
    coefficients, 0 off the graph."""
    layout, theta = fit.layout, fit.theta_hat
    flat = layout.flatten(theta)
    network = np.where(layout.coef_slots >= 0, flat[layout.coef_slots], 0.0)
    return (theta.alpha, layout.momentum(theta), layout.intercepts(theta),
            network)


def _assert_permuted(fit, moved, perm):
    """moved, the fit of the relabeled path, is fit with its nodes taken in
    the order perm."""
    want, got = _by_node(fit), _by_node(moved)
    for have, ref in zip(got[:3], want[:3]):
        np.testing.assert_allclose(have, ref[perm], rtol=RTOL, atol=0)
    np.testing.assert_allclose(got[3], want[3][:, perm][:, :, perm], rtol=RTOL,
                               atol=RTOL * np.abs(want[3]).max(initial=0.0))
    np.testing.assert_allclose(moved.gram_cond, fit.gram_cond[perm], rtol=RTOL,
                               atol=0)
    assert np.array_equal(moved.gram_jittered, fit.gram_jittered[perm])


@given(relabelings())
@PROPERTY
def test_relabeling_nodes_permutes_the_fit(case):
    spec, g, path, perm, mode = case
    fit = fit_qmle(path, spec, g, mode=mode)
    moved = fit_qmle(type(path)(delta=path.delta, data=path.data[:, perm]),
                     spec, _relabeled(g, perm), mode=mode)
    _assert_permuted(fit, moved, perm)


# the selection takes the linear family
@given(relabelings(families=("linear", "intercepts")))
@PROPERTY
def test_relabeling_nodes_permutes_the_selection_and_refit(case):
    spec, _g, path, perm, _mode = case
    moved_path = type(path)(delta=path.delta, data=path.data[:, perm])
    penalty = {"rule": "half_se", "n_points": 12}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small validation blocks warn
        a_hat, lam, lpath, pilot, mom = select_graph(path, spec, penalty)
        b_hat, lam_b, bpath, moved_pilot, moved_mom = select_graph(
            moved_path, spec, penalty)
    _assert_permuted(pilot, moved_pilot, perm)
    assert np.array_equal(b_hat, a_hat[perm][:, perm])
    assert np.array_equal(bpath.adjacency, lpath.adjacency[:, perm][:, :, perm])
    for have, ref in ((bpath.lambda_max, lpath.lambda_max),
                      (bpath.lambdas, lpath.lambdas), (lam_b, lam),
                      (bpath.validation_loss, lpath.validation_loss),
                      (bpath.validation_se, lpath.validation_se)):
        np.testing.assert_allclose(have, ref, rtol=RTOL, atol=0)
    refit = two_step_refit(spec, a_hat, mom, pilot.layout, path.delta)
    moved_refit = two_step_refit(spec, b_hat, moved_mom, moved_pilot.layout,
                                 path.delta)
    _assert_permuted(refit, moved_refit, perm)
