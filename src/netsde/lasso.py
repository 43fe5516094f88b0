"""Adaptive L1 selection on a local quadratic surrogate.

The selection step replaces the quasi-likelihood by its second-order
expansion around a pilot estimate theta_tilde,

    F(theta) = (theta - theta_tilde)' H (theta - theta_tilde) / 2
               + lam * sum_k gamma_k |theta_k|,

minimized over the box by cyclic coordinate descent with exact
soft-threshold updates.  Weights gamma_k come from the pilot
(|pilot_k|^-delta, capped), so coordinates the pilot finds large are
penalized lightly and noise coordinates are pushed to exact zeros.  The
support of the pair-weight block estimates the adjacency matrix, after
which an unpenalized refit on the selected graph removes the shrinkage
bias.

The contrast separates by node, so H is block diagonal: node j's block
couples only alpha_j, its momentum and its own drift weights.  The
pilot fit hands H over as netsde.estimate.CurvatureBlocks, one block per
node; a dense H is split into the connected components of its nonzero
pattern.  The PSD repair, lambda_max, the coordinate descent and its KKT
certificate work on those blocks, and one numpy step updates the same
coordinate of every block at once.  The validation curve builds the
held-out blocks' per-node moments once and scores each candidate as a
quadratic form in its coefficients.
"""
from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .estimate import (CurvatureBlocks, FitResult, InsufficientDataError,
                       _chunk_contrast, _path_moments,
                       fit_adaptive_closed_form, fit_qmle)
from .graph import DirectedGraph, build_graph
from .model import (LinearDrift, NsdeSpec, ParamVector, default_bounds,
                    parameter_layout)
from .simulate import SamplePath

logger = logging.getLogger(__name__)


class LassoError(RuntimeError):
    pass


class NonPSDError(LassoError):
    pass


class ConvergenceError(LassoError):
    pass


class ZeroWeightError(LassoError):
    pass


class MissingValidationLossError(LassoError):
    pass


DEFAULT_WEIGHT_CAP = 1e12
PILOT_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class AdaptiveWeights:
    """Per-coordinate penalty weights, stored by parameter block."""

    gamma_alpha: np.ndarray
    gamma_beta: np.ndarray
    gamma_w: np.ndarray | None
    penalize_alpha: bool
    delta: tuple[float, ...]
    cap: float

    def flat(self) -> np.ndarray:
        parts = [self.gamma_alpha, self.gamma_beta]
        if self.gamma_w is not None:
            parts.append(self.gamma_w)
        return np.concatenate(parts)


def _weight_block(values: np.ndarray, exponent: float, cap: float,
                  floor: float) -> np.ndarray:
    mag = np.abs(np.asarray(values, dtype=float))
    out = np.full(mag.shape, cap)
    ok = mag >= floor
    out[ok] = np.minimum(mag[ok] ** (-exponent), cap)
    return out


def adaptive_weights(pilot: ParamVector, delta=(1.0, 1.0, 1.0),
                     cap: float = DEFAULT_WEIGHT_CAP, floor: float = PILOT_FLOOR,
                     penalize_alpha: bool = False,
                     penalize_momentum: bool = False) -> AdaptiveWeights:
    """Adaptive weights gamma_k = min(|pilot_k|^-delta, cap) by block.

    delta holds the exponents for the (alpha, beta, w) blocks.  By default
    only the coupling coefficients carry penalty: the diffusion scales are
    exempt unless penalize_alpha is set and the momentum entries (the
    leading d coordinates of the beta block) unless penalize_momentum is.
    Pilot magnitudes below floor get the cap weight.
    """
    d1, d2, d3 = delta
    if penalize_alpha:
        gamma_alpha = _weight_block(pilot.alpha, d1, cap, floor)
    else:
        gamma_alpha = np.zeros(pilot.alpha.shape[0])
    gamma_beta = _weight_block(pilot.beta, d2, cap, floor)
    if not penalize_momentum:
        gamma_beta[:pilot.alpha.shape[0]] = 0.0
    gamma_w = None
    if pilot.w is not None:
        gamma_w = _weight_block(pilot.w, d3, cap, floor)
    return AdaptiveWeights(gamma_alpha=gamma_alpha, gamma_beta=gamma_beta,
                           gamma_w=gamma_w, penalize_alpha=penalize_alpha,
                           delta=tuple(delta), cap=cap)


# ---------------------------------------------------------------------------
# curvature blocks


def curvature_blocks(h) -> CurvatureBlocks:
    """Block form of a dense square matrix: the connected components of its
    nonzero pattern (blocks are returned as given)."""
    if isinstance(h, CurvatureBlocks):
        return h
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise LassoError(f"curvature matrix must be square, got shape {h.shape}")
    _, labels = connected_components(csr_matrix(h != 0.0), directed=False)
    members = np.split(np.argsort(labels, kind="stable"),
                       np.cumsum(np.bincount(labels))[:-1])
    return CurvatureBlocks.from_blocks(h.shape[0], members,
                                       [h[np.ix_(c, c)] for c in members])


# ---------------------------------------------------------------------------
# solver


def _split_like(pilot: ParamVector, flat: np.ndarray) -> ParamVector:
    na = pilot.alpha.shape[0]
    nb = pilot.beta.shape[0]
    w = flat[na + nb:] if pilot.w is not None else None
    return ParamVector(alpha=flat[:na], beta=flat[na:na + nb], w=w)


def _box(pilot: ParamVector, bounds):
    lo, hi = default_bounds(pilot) if bounds is None else bounds
    return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)


def kkt_residual(h, pilot: ParamVector, theta: ParamVector,
                 lam: float, weights: AdaptiveWeights, bounds=None) -> float:
    """Worst violation of the stationarity conditions of the surrogate problem.

    h is a dense matrix or its CurvatureBlocks form.
    """
    lo, hi = _box(pilot, bounds)
    x = theta.flat()
    pen = lam * weights.flat()
    z = curvature_blocks(h).matvec(x - pilot.flat())
    # at a bound the most favorable subgradient must still point into the
    # box; for x != 0 the penalty is differentiable
    slope = pen * np.sign(x)
    at_lo = np.maximum(0.0, -(z + np.where(x != 0.0, slope, pen)))
    at_hi = np.maximum(0.0, z + np.where(x != 0.0, slope, -pen))
    viol = np.select([lo == hi, x <= lo, x >= hi, x == 0.0],
                     [0.0, at_lo, at_hi, np.maximum(0.0, np.abs(z) - pen)],
                     np.abs(z + slope))
    return float(np.max(viol, initial=0.0))


def _cd_solve(hb: CurvatureBlocks, pilot_flat, lam, gamma, lo, hi, x0, tol,
              max_sweeps):
    """Cyclic coordinate descent on the quadratic surrogate; returns (x, sweeps).

    One step updates coordinate k of every block in a group at once.
    Blocks share no curvature, so each sees the iterates of a cyclic sweep
    over the dense matrix, and sweeping stops on the largest change over
    all blocks.  Arrays are held coordinate-major, (m, nb) per group.
    """
    z0 = hb.matvec(x0 - pilot_flat)
    runs = []
    for idx, blocks in hb.groups:
        diag = np.diagonal(blocks, axis1=1, axis2=2).T.copy()
        if np.any(diag < 0.0):
            raise NonPSDError("surrogate curvature matrix has a negative diagonal")
        x, pil, z, thr, lo_g, hi_g = (v[idx].T.copy() for v in (
            x0, pilot_flat, z0, lam * gamma, lo, hi))
        cols = np.ascontiguousarray(blocks.transpose(2, 1, 0))  # cols[k] = column k
        # a coordinate without curvature stays where it is: its box is pinned
        # there and its divisor is a harmless 1
        dead = diag == 0.0
        lo_g[dead] = x[dead]
        hi_g[dead] = x[dead]
        runs.append((idx, x, pil, z, cols, diag, diag * pil,
                     np.where(dead, 1.0, diag), -thr, thr, lo_g, hi_g,
                     np.empty_like(x)))
    sweeps = max_sweeps
    for sweep in range(1, max_sweeps + 1):
        max_change = 0.0
        for (_, x, pil, z, cols, diag, hpil, div, neg_thr, thr, lo_g, hi_g,
             moved) in runs:
            for k in range(x.shape[0]):
                target = hpil[k] - (z[k] - diag[k] * (x[k] - pil[k]))
                # soft threshold: target minus its clip to [-thr, thr]
                u = (target - np.minimum(np.maximum(target, neg_thr[k]), thr[k])) \
                    / div[k]
                u = np.minimum(np.maximum(u, lo_g[k]), hi_g[k])
                np.subtract(u, x[k], out=moved[k])
                z += cols[k] * moved[k]
                x[k] = u
            max_change = max(max_change, float(np.abs(moved).max()))
        if max_change < tol:
            sweeps = sweep
            break
    out = x0.copy()
    for idx, x, *_ in runs:
        out[idx] = x.T
    return out, sweeps


def lsa_solve(h, pilot: ParamVector, lam: float,
              weights: AdaptiveWeights, bounds=None, tol: float | None = None,
              warm: ParamVector | None = None,
              max_sweeps: int = 10000) -> ParamVector:
    """Minimize the penalized quadratic surrogate over the box.

    h is a dense matrix or its CurvatureBlocks form; a dense h is split
    into node blocks first.  Coordinate k with positive curvature h_kk
    gets the exact update soft_threshold(h_kk pilot_k - sum_{m != k} h_km
    (x_m - pilot_m), lam * gamma_k) / h_kk, clipped to the box, and one
    vector step makes it for every block of a size at once.  Sweeping
    pauses when the largest coordinate change in a sweep falls below tol
    (default 1e-10 * (1 + sup-norm of the pilot)).

    The returned point is certified: its stationarity residual must be at
    most 1e-8 * (1 + lam), otherwise ConvergenceError is raised.  When the
    coordinate-change stall is premature (large curvature turns tiny moves
    into visible gradient residuals) the solver resumes with a tighter tol
    until the certificate holds or the sweep budget runs out.

    Raises:
        NonPSDError: if the curvature matrix has a negative diagonal entry.
        ConvergenceError: if the sweep budget is exhausted before the
            certificate holds.
    """
    hb = curvature_blocks(h)
    pilot_flat = pilot.flat()
    p = pilot_flat.shape[0]
    if hb.p != p:
        raise LassoError(f"curvature matrix has shape ({hb.p}, {hb.p}), "
                         f"expected ({p}, {p})")
    if lam < 0:
        raise LassoError(f"penalty level must be non-negative, got {lam}")
    gamma = weights.flat()
    if gamma.shape[0] != p:
        raise LassoError("weights do not match the parameter vector")
    lo, hi = _box(pilot, bounds)
    if tol is None:
        tol = 1e-10 * (1.0 + np.max(np.abs(pilot_flat)))
    x = np.clip(warm.flat() if warm is not None else pilot_flat, lo, hi)
    cert = 1e-8 * (1.0 + lam)
    left = max_sweeps
    total = 0
    cur_tol = tol
    snappable = (gamma > 0) & (lo < 0.0) & (0.0 < hi)
    while True:
        x, used = _cd_solve(hb, pilot_flat, lam, gamma, lo, hi, x, cur_tol, left)
        total += used
        left -= used

        # snap numerically-dead penalized coordinates to exact zero; a
        # coordinate within a few sweep tolerances of zero is residue of a
        # tight threshold (the boundary case lam = lambda_max leaves debris
        # at the tol scale), and the certificate rejects any snap that mattered
        x[snappable & (np.abs(x) < 10.0 * cur_tol)] = 0.0

        theta = _split_like(pilot, x)
        resid = kkt_residual(hb, pilot, theta, lam, weights, bounds=(lo, hi))
        if resid <= cert:
            return theta
        if left <= 0:
            raise ConvergenceError(
                f"coordinate descent stalled: stationarity residual {resid:.3g} "
                f"after {total} sweeps at lam={lam:.6g}")
        # the coordinate-change stall fired before the gradient certificate;
        # with large curvature an x-scale stall is premature, so grind on
        cur_tol *= 0.1


def psd_project(h, rel_floor: float = 1e-10):
    """Clip eigenvalues from below at rel_floor * largest eigenvalue.

    The eigenvalues are those of the node blocks (see CurvatureBlocks),
    which together are the spectrum of the whole matrix; blocks already at
    or above the floor are returned symmetrized but otherwise unchanged.
    An indefinite or rank-deficient matrix is repaired with a warning,
    since downstream solves assume positive curvature.  A dense h gives a
    dense result and a CurvatureBlocks h a CurvatureBlocks result.
    """
    hb = curvature_blocks(h)
    groups = [(idx, 0.5 * (blocks + blocks.transpose(0, 2, 1)))
              for idx, blocks in hb.groups]
    vals = [np.linalg.eigvalsh(blocks) for _, blocks in groups]
    top = max((v[:, -1].max() for v in vals), default=0.0)
    bottom = min((v[:, 0].min() for v in vals), default=np.inf)
    floor = rel_floor * max(top, 0.0)
    if floor <= 0.0:
        floor = rel_floor
    if bottom < floor:
        warnings.warn(
            f"curvature matrix is not positive definite (smallest eigenvalue "
            f"{bottom:.3g}); clipping eigenvalues at {floor:.3g}", stacklevel=2)
        for (_, blocks), v in zip(groups, vals):
            low = v[:, 0] < floor
            if np.any(low):
                w, vecs = np.linalg.eigh(blocks[low])
                blocks[low] = ((vecs * np.maximum(w, floor)[:, None, :])
                               @ vecs.transpose(0, 2, 1))
    out = CurvatureBlocks(p=hb.p, groups=tuple(groups))
    return out if isinstance(h, CurvatureBlocks) else out.dense()


# ---------------------------------------------------------------------------
# penalty scale


def lambda_max(h, pilot: ParamVector, weights: AdaptiveWeights,
               bounds=None, penalized=None) -> float:
    """Smallest penalty level at which every penalized coordinate is zero.

    With theta_star solving the surrogate restricted to penalized
    coordinates fixed at zero (unpenalized block free inside the box), this
    is max_k |(H (theta_star - pilot))_k| / gamma_k over penalized k.  The
    restricted solve respects the box, so the certificate is exact: for any
    lam at or above the returned value the solution of lsa_solve has every
    penalized coordinate at zero.  h is a dense matrix or its
    CurvatureBlocks form.
    """
    hb = curvature_blocks(h)
    pilot_flat = pilot.flat()
    gamma = weights.flat()
    p = pilot_flat.shape[0]
    if penalized is None:
        pen_idx = np.where(gamma > 0)[0]
    else:
        pen_idx = np.asarray(sorted(penalized), dtype=int)
        if np.any(gamma[pen_idx] == 0.0):
            raise ZeroWeightError("penalized coordinate has zero weight")
    if pen_idx.size == 0:
        raise ZeroWeightError("no penalized coordinates")
    lo, hi = _box(pilot, bounds)
    lo = lo.copy()
    hi = hi.copy()
    lo[pen_idx] = 0.0
    hi[pen_idx] = 0.0
    tol = 1e-12 * (1.0 + np.max(np.abs(pilot_flat)))
    x0 = np.clip(pilot_flat, lo, hi)
    star, _ = _cd_solve(hb, pilot_flat, 0.0, np.zeros(p), lo, hi, x0, tol, 10000)
    z = hb.matvec(star - pilot_flat)
    return float(np.max(np.abs(z[pen_idx]) / gamma[pen_idx]))

# ---------------------------------------------------------------------------
# path


@dataclass
class LassoPath:
    """Solutions of the surrogate problem along a decreasing penalty grid."""

    lambdas: np.ndarray
    coefficients: list[ParamVector]
    active_counts: np.ndarray
    lambda_max: float
    adjacency: list[np.ndarray] | None = None
    validation_loss: np.ndarray | None = None
    validation_se: np.ndarray | None = None
    notes: list[str] = field(default_factory=list)


def lambda_path(h, pilot: ParamVector, weights: AdaptiveWeights,
                bounds=None, n_points: int = 50, min_fraction: float = 1e-3,
                lambdas=None, tol: float | None = None) -> LassoPath:
    """Solve along a log-spaced penalty grid with warm starts.

    The grid runs from lambda_max down to min_fraction * lambda_max
    (n_points values); every solution seeds the next.  Active counts
    (nonzero penalized coordinates) should grow as the penalty decreases;
    violations are logged, not raised.  A dense h is split into its
    CurvatureBlocks form once, up front.
    """
    h = curvature_blocks(h)
    lam_top = lambda_max(h, pilot, weights, bounds=bounds)
    if lambdas is None:
        grid = np.geomspace(lam_top, lam_top * min_fraction, n_points)
    else:
        grid = np.sort(np.asarray(lambdas, dtype=float))[::-1]
    gamma = weights.flat()
    pen = gamma > 0
    coefficients = []
    counts = np.empty(grid.shape[0], dtype=int)
    adjacency = None if pilot.w is None else []
    notes: list[str] = []
    warm = None
    for idx, lam in enumerate(grid):
        sol = lsa_solve(h, pilot, float(lam), weights, bounds=bounds,
                        tol=tol, warm=warm)
        warm = sol
        coefficients.append(sol)
        counts[idx] = int(np.count_nonzero(sol.flat()[pen]))
        if adjacency is not None:
            adjacency.append(estimate_adjacency(sol.w))
    for idx in range(1, grid.shape[0]):
        if counts[idx] < counts[idx - 1]:
            msg = (f"active count dropped from {counts[idx - 1]} to {counts[idx]} "
                   f"between lam={grid[idx - 1]:.6g} and lam={grid[idx]:.6g}")
            logger.warning(msg)
            notes.append(msg)
    return LassoPath(lambdas=grid, coefficients=coefficients,
                     active_counts=counts, lambda_max=float(lam_top),
                     adjacency=adjacency, notes=notes)


# ---------------------------------------------------------------------------
# validation and penalty choice


def _node_param_count(layout) -> int:
    """Largest parameter count of one node's contrast: alpha_j, momentum,
    intercept if any, and the coefficients of node j's drift."""
    if layout.augmented:
        coupling = layout.d - 1
    else:
        rows = np.bincount(np.array([i for i, _ in layout.edges], dtype=int),
                           minlength=layout.d)
        coupling = max(layout.n_levels, 1) * int(rows.max())
    return 2 + int(layout.with_intercepts) + coupling


def validation_loss(path_data: SamplePath, spec: NsdeSpec, g: DirectedGraph,
                    theta_per_lambda, scheme: str = "holdout_tail",
                    fraction: float = 0.3, k: int = 5,
                    n_se_blocks: int = 10):
    """Per-increment contrast of each candidate on held-out segments.

    holdout_tail evaluates on the trailing `fraction` of the increments and
    draws standard errors from n_se_blocks contiguous sub-blocks;
    blocked_kfold evaluates on k contiguous blocks spanning the whole path.
    Returns (loss, se) arrays over the candidate list; se is the standard
    error of a candidate's mean loss across the blocks.

    The held-out blocks' per-node moments are built once (see
    netsde.estimate.NodeMoments); each candidate's block loss is then a
    quadratic form in its drift coefficients plus the log terms.
    """
    n = path_data.n
    if n < 2:
        raise InsufficientDataError("validation needs at least two increments")
    if scheme == "holdout_tail":
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
        n_tail = max(1, int(np.floor(n * fraction)))
        rows = path_data.data[n - n_tail:]
        blocks = np.array_split(np.arange(n_tail), min(n_se_blocks, n_tail))
    elif scheme == "blocked_kfold":
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        rows = path_data.data
        blocks = np.array_split(np.arange(n), min(k, n))
    else:
        raise ValueError(f"unknown validation scheme {scheme!r}")

    # the contrast splits by node, so the size that matters is one node's
    # parameter count, not the whole vector's
    per_node = 0
    if theta_per_lambda:
        per_node = _node_param_count(parameter_layout(
            spec, g, augmented=theta_per_lambda[0].w is not None))
    smallest = min(len(b) for b in blocks)
    if smallest < 10 * per_node:
        warnings.warn(
            f"validation blocks hold as few as {smallest} increments for "
            f"{per_node} parameters per node; loss estimates may be unstable",
            stacklevel=2)

    n_cand = len(theta_per_lambda)
    if n_cand == 0:
        return np.empty(0), np.zeros(0)
    layout = parameter_layout(spec, g, augmented=theta_per_lambda[0].w is not None)
    mom = _path_moments(spec, g, layout, rows, [len(b) for b in blocks])
    flats = np.stack([layout.flatten(theta) for theta in theta_per_lambda])
    sums = _chunk_contrast(mom, flats, path_data.delta)
    losses = sums.sum(axis=1) / mom.count.sum()
    ses = np.zeros(n_cand)
    if len(blocks) > 1:
        ses = (sums / mom.count).std(axis=1, ddof=1) / np.sqrt(len(blocks))
    return losses, ses


def select_lambda(path: LassoPath, rule: str = "half_se",
                  fraction: float | None = None) -> float:
    """Pick a penalty level from a solved path.

    Rules: "min" takes the validation-loss minimizer; "half_se" takes the
    largest penalty whose loss stays within half a standard error of the
    minimum, where the standard error is the minimizer's (its block-level
    se from validation_loss); "fixed_fraction" returns
    fraction * lambda_max and needs no validation curve.
    """
    if rule == "fixed_fraction":
        if fraction is None:
            raise ValueError("fixed_fraction rule needs a fraction")
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
        return float(fraction * path.lambda_max)
    if path.validation_loss is None:
        raise MissingValidationLossError(
            f"rule {rule!r} needs a validation curve on the path")
    loss = np.asarray(path.validation_loss, dtype=float)
    best = int(np.argmin(loss))
    if rule == "min":
        return float(path.lambdas[best])
    if rule == "half_se":
        se = np.zeros_like(loss) if path.validation_se is None else path.validation_se
        cutoff = loss[best] + 0.5 * se[best]
        for idx in range(loss.shape[0]):  # lambdas are decreasing
            if loss[idx] <= cutoff:
                return float(path.lambdas[idx])
        return float(path.lambdas[best])
    raise ValueError(f"unknown selection rule {rule!r}")


# ---------------------------------------------------------------------------
# adjacency and refit


def estimate_adjacency(w_hat: np.ndarray, zero_tol: float = 0.0) -> np.ndarray:
    """0/1 adjacency from the pair-weight block: entry (i, j) is 1 iff
    |w_ij| > zero_tol."""
    w_hat = np.asarray(w_hat, dtype=float)
    length = w_hat.shape[0]
    d = int(round((1.0 + np.sqrt(1.0 + 4.0 * length)) / 2.0))
    if d * (d - 1) != length:
        raise LassoError(f"pair-weight block of length {length} fits no dimension")
    a = np.zeros((d, d), dtype=int)
    # boolean assignment fills the off-diagonal in row-major (pair) order
    a[~np.eye(d, dtype=bool)] = np.abs(w_hat) > zero_tol
    return a


def graph_from_adjacency(a_hat: np.ndarray) -> DirectedGraph:
    a_hat = np.asarray(a_hat)
    d = a_hat.shape[0]
    rows, cols = np.nonzero((a_hat != 0) & ~np.eye(d, dtype=bool))
    return build_graph(d, zip(rows.tolist(), cols.tolist()))


def two_step_refit(path_data: SamplePath, spec: NsdeSpec, a_hat: np.ndarray,
                   optimizer: bool = False, restarts: int = 1) -> FitResult:
    """Unpenalized two-stage refit on the selected graph.

    By default the linear family is refit in closed form (the exact
    minimizer of the two-stage contrast); optimizer=True, or a non-linear
    drift family, runs the iterative fit instead.
    """
    g_hat = graph_from_adjacency(a_hat)
    if optimizer or not isinstance(spec.drift, LinearDrift):
        return fit_qmle(path_data, spec, g_hat, mode="adaptive",
                        restarts=restarts)
    return fit_adaptive_closed_form(path_data, spec, g_hat)


# ---------------------------------------------------------------------------
# export


def lasso_path_to_csv(path: LassoPath, coord_names) -> str:
    """Rows 'lambda,coef_name,value' for every grid point and coordinate."""
    names = list(coord_names)
    lines = ["lambda,coef_name,value"]
    for lam, theta in zip(path.lambdas, path.coefficients):
        flat = theta.flat()
        if flat.shape[0] != len(names):
            raise LassoError("coordinate names do not match the path")
        for name, value in zip(names, flat):
            lines.append(f"{float(lam)!r},{name},{float(value)!r}")
    return "\n".join(lines) + "\n"
