"""Property tests of the surrogate solver on random block-diagonal problems.

Each problem is a positive definite H made of blocks of size 1 to 4 under
a random permutation of the coordinates (the shape of the pilot
information), a random pilot, penalty weights (some zero), a box around
zero and a penalty level in [0, 1.2 lambda_max].
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netsde.lasso import AdaptiveWeights, kkt_residual, lambda_max, lsa_solve
from netsde.model import ParamVector
from reference import exact_box_lasso

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None)


def _fit_sizes(sizes, max_p):
    kept = []
    for m in sizes:
        if sum(kept) + m > max_p:
            break
        kept.append(m)
    return kept


@st.composite
def block_problems(draw, max_p=12):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_p)
                 .map(lambda s: _fit_sizes(s, max_p)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fraction = draw(st.floats(0.0, 1.2))
    p = sum(sizes)
    h = np.zeros((p, p))
    for idx in np.split(rng.permutation(p), np.cumsum(sizes)[:-1]):
        a = rng.standard_normal((idx.shape[0], idx.shape[0]))
        h[np.ix_(idx, idx)] = a.T @ a + 0.1 * np.eye(idx.shape[0])
    gamma = np.where(rng.random(p) < 0.25, 0.0, rng.uniform(0.2, 3.0, p))
    gamma[rng.integers(p)] = rng.uniform(0.2, 3.0)  # at least one penalized
    pilot = ParamVector(alpha=np.zeros(0), beta=2.0 * rng.standard_normal(p))
    weights = AdaptiveWeights(gamma_alpha=np.zeros(0), gamma_beta=gamma,
                              gamma_w=None, penalize_alpha=False,
                              delta=(1.0, 1.0, 1.0), cap=1e12)
    box = (-rng.uniform(0.0, 3.0, p), rng.uniform(0.0, 3.0, p))
    lam_top = lambda_max(h, pilot, weights, bounds=box)
    return h, pilot, weights, box, fraction * lam_top, lam_top


@PROPERTY
@given(block_problems())
def test_solution_meets_its_certificate(problem):
    h, pilot, weights, box, lam, _top = problem
    sol = lsa_solve(h, pilot, lam, weights, bounds=box)
    assert kkt_residual(h, pilot, sol, lam, weights, bounds=box) \
        <= 1e-8 * (1.0 + lam)


@PROPERTY
@given(block_problems(), st.floats(1.0, 1.5))
def test_lambda_max_zeroes_every_penalized_coordinate(problem, factor):
    h, pilot, weights, box, _lam, top = problem
    sol = lsa_solve(h, pilot, factor * top, weights, bounds=box).flat()
    assert np.all(sol[weights.flat() > 0] == 0.0)


@PROPERTY
@given(block_problems(max_p=6))
def test_small_problems_match_the_enumeration_oracle(problem):
    h, pilot, weights, box, lam, _top = problem
    want = exact_box_lasso(h, pilot.flat(), lam, weights.flat(), *box)
    got = lsa_solve(h, pilot, lam, weights, bounds=box).flat()
    assert np.allclose(got, want, atol=5e-5)
