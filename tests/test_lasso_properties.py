"""Property tests of the surrogate solver on random block-diagonal problems.

Each problem is a positive definite H made of blocks of size 1 to 4 under
a random permutation of the coordinates (the shape of the pilot
information), a random pilot, penalty weights (some zero), a box around
zero and a penalty level in [0, 1.2 lambda_max].  H is passed as one
block (reference.one_block); the block members come along, so the
multi-block CurvatureBlocks form can be checked against it.
"""
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netsde.estimate import CurvatureBlocks
from netsde.lasso import kkt_residual, lambda_max, lsa_solve, psd_project
from netsde.model import ParamVector
from reference import exact_box_lasso, one_block

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
    members = [np.sort(idx) for idx in
               np.split(rng.permutation(p), np.cumsum(sizes)[:-1])]
    for idx in members:
        a = rng.standard_normal((idx.shape[0], idx.shape[0]))
        h[np.ix_(idx, idx)] = a.T @ a + 0.1 * np.eye(idx.shape[0])
    gamma = np.where(rng.random(p) < 0.25, 0.0, rng.uniform(0.2, 3.0, p))
    gamma[rng.integers(p)] = rng.uniform(0.2, 3.0)  # at least one penalized
    pilot = ParamVector(alpha=np.zeros(0), beta=2.0 * rng.standard_normal(p))
    box = (-rng.uniform(0.0, 3.0, p), rng.uniform(0.0, 3.0, p))
    lam_top = lambda_max(one_block(h), pilot, gamma, bounds=box)
    return h, pilot, gamma, box, fraction * lam_top, lam_top, members


@PROPERTY
@given(block_problems())
def test_solution_meets_its_certificate(problem):
    h, pilot, gamma, box, lam, _top, _members = problem
    sol = lsa_solve(one_block(h), pilot, lam, gamma, bounds=box)
    assert kkt_residual(one_block(h), pilot, sol, lam, gamma, bounds=box) \
        <= 1e-8 * (1.0 + lam)


@PROPERTY
@given(block_problems(), st.floats(1.0, 1.5))
def test_lambda_max_zeroes_every_penalized_coordinate(problem, factor):
    h, pilot, gamma, box, _lam, top, _members = problem
    sol = lsa_solve(one_block(h), pilot, factor * top, gamma, bounds=box).flat()
    assert np.all(sol[gamma > 0] == 0.0)


@PROPERTY
@given(block_problems(max_p=6))
def test_small_problems_match_the_enumeration_oracle(problem):
    h, pilot, gamma, box, lam, _top, _members = problem
    want = exact_box_lasso(h, pilot.flat(), lam, gamma, *box)
    got = lsa_solve(one_block(h), pilot, lam, gamma, bounds=box).flat()
    assert np.allclose(got, want, atol=5e-5)


def _blocks(h, members):
    return CurvatureBlocks.from_blocks(h.shape[0], members,
                                       [h[np.ix_(idx, idx)] for idx in members])


@PROPERTY
@given(block_problems(), st.floats(0.0, 1.0))
def test_dense_and_block_forms_agree(problem, shift):
    h, pilot, gamma, box, lam, top, members = problem
    blocks = _blocks(h, members)
    assert abs(lambda_max(blocks, pilot, gamma, bounds=box) - top) \
        <= 1e-9 * (1.0 + top)
    want = lsa_solve(one_block(h), pilot, lam, gamma, bounds=box).flat()
    got = lsa_solve(blocks, pilot, lam, gamma, bounds=box).flat()
    assert np.allclose(got, want, rtol=0.0, atol=1e-9)
    # shifted down by a share of its spectrum, H needs repair
    vals = np.linalg.eigvalsh(h)
    bent = h - (vals[0] + shift * (vals[-1] - vals[0])) * np.eye(h.shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the repair warns; not the point here
        want = psd_project(bent).dense()
        got = psd_project(_blocks(bent, members)).dense()
    assert np.allclose(got, want, rtol=0.0, atol=1e-9)
