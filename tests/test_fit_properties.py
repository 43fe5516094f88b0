"""Property test of the fit front end on random small models.

Each example draws a model (d from 1 to 4, the linear family with or
without intercepts or a radial dictionary, constant or tanh diffusion),
a graph (a random one, or the complete one an unknown graph is fitted
on) and a path of n from 3 to 3000 increments at a spacing from 0.001
to 0.1.
The path is a noisy mean-reverting recursion whose noise scale may be
zero in some coordinates.  fit_qmle in both modes must either return a
certified fit or raise one of the named EstimationError subclasses,
and no small move of a coordinate the fit optimizes, within the box,
may lower its contrast.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netsde.estimate import (DegenerateDiffusionError, InsufficientDataError,
                             SingularGramError, _path_moments, fit_qmle,
                             quasi_loglik)
from netsde.graph import complete_graph, erdos_renyi
from netsde.model import (ConstantDiagonal, LinearDrift, NsdeSpec,
                          RadialDictionaryDrift, TanhClipped, default_bounds)
from netsde.simulate import SamplePath

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)
NAMED = (DegenerateDiffusionError, InsufficientDataError, SingularGramError)


@st.composite
def fit_problems(draw):
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        levels = draw(st.integers(1, 2))
        drift = RadialDictionaryDrift(
            offsets=tuple(draw(st.floats(0.5, 3.0)) for _ in range(levels)),
            exponents=tuple(np.linspace(-0.5, 0.5, levels).tolist()))
    else:
        drift = LinearDrift(with_intercepts=draw(st.booleans()))
    diffusion = TanhClipped(clip=draw(st.floats(1.0, 100.0))) \
        if draw(st.booleans()) else ConstantDiagonal()
    spec = NsdeSpec(d=d, drift=drift, diffusion=diffusion)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = complete_graph(d) if draw(st.booleans()) else erdos_renyi(
        d, draw(st.floats(0.0, 1.0)), int(rng.integers(2 ** 31)))
    n = draw(st.integers(3, 3000))
    delta = draw(st.floats(0.001, 0.1))
    # a zero scale leaves a coordinate without noise
    scale = np.where(rng.random(d) < 0.1, 0.0, rng.uniform(0.1, 5.0, d))
    reversion = rng.uniform(0.5, 10.0, d)
    x = np.empty((n + 1, d))
    x[0] = rng.normal(size=d)
    shocks = rng.normal(size=(n, d)) * scale * np.sqrt(delta)
    for k in range(n):
        x[k + 1] = x[k] * (1.0 - delta * reversion) + shocks[k]
    return spec, g, SamplePath(delta=delta, data=x)


@PROPERTY
@given(fit_problems())
def test_every_fit_is_certified_or_raises_a_named_error(problem):
    spec, g, path = problem
    for mode in ("adaptive", "joint"):
        try:
            fit = fit_qmle(path, spec, g, mode=mode)
        except NAMED:
            continue
        assert fit.converged, (mode, fit)


@PROPERTY
@given(fit_problems())
def test_standard_errors_invert_the_rate_normalized_information(problem):
    spec, g, path = problem
    for mode in ("adaptive", "joint"):
        try:
            fit = fit_qmle(path, spec, g, mode=mode)
        except NAMED:
            continue
        rate = fit.rate_diag
        scaled = rate[:, None] * fit.info_blocks.dense() * rate[None, :]
        if np.linalg.cond(scaled) > 1e12:
            continue
        with np.errstate(invalid="ignore"):  # a negative variance reads nan
            want = np.sqrt(rate * np.diag(np.linalg.inv(scaled)) * rate)
        np.testing.assert_allclose(fit.standard_errors(), want, rtol=1e-9, atol=0)


@PROPERTY
@given(fit_problems())
def test_no_small_move_in_the_box_lowers_a_certified_contrast(problem):
    spec, g, path = problem
    for mode in ("adaptive", "joint"):
        try:
            fit = fit_qmle(path, spec, g, mode=mode)
        except NAMED:
            continue
        layout = fit.layout
        flat = layout.flatten(fit.theta_hat)
        lo, hi = default_bounds(layout)
        lo[:layout.pi_alpha] = 1e-8  # the fit's floor on the scales
        # the drift slots, and the scales only when the fit is joint (the
        # adaptive scales minimize the stage-one contrast instead)
        coords = np.arange(0 if mode == "joint" else layout.pi_alpha,
                           layout.pi_total)
        step = 1e-5 * (1.0 + np.abs(flat[coords]))
        moved = np.repeat(flat[None], 2 * coords.size, axis=0)
        rows, cols = np.arange(2 * coords.size), np.tile(coords, 2)
        moved[rows, cols] = np.clip(flat[cols] + np.r_[step, -step],
                                    lo[cols], hi[cols])
        values = quasi_loglik(_path_moments(spec, layout, path.data), moved,
                              path.delta).sum(axis=1)
        # rounding: the worst drop over these examples is 5e-14 (1 + |contrast|)
        floor = fit.contrast_value - 1e-12 * (1.0 + abs(fit.contrast_value))
        assert np.all(values >= floor), (mode, np.argmin(values))
