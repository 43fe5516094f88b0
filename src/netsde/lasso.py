"""Adaptive L1 selection on a local quadratic surrogate.

The selection step replaces the quasi-likelihood by its second-order
expansion around a pilot estimate theta_tilde,

    F(theta) = (theta - theta_tilde)' H (theta - theta_tilde) / 2
               + lam * sum_k gamma_k |theta_k|,

minimized over the box.  Weights gamma_k come from the pilot
(|pilot_k|^-exponent, capped), so coordinates the pilot finds large are
penalized lightly and noise coordinates are pushed to exact zeros.  The
pilot is fitted on the complete graph, so the support of its network
block estimates the adjacency matrix, after which an unpenalized refit on
the selected graph removes the shrinkage bias.

The contrast separates by node, so H is block diagonal: node j's block
couples only alpha_j, its momentum and its own drift weights.  The pilot
fit hands H over as netsde.estimate.CurvatureBlocks; a dense H is taken
as one block.  On a block, F is piecewise quadratic and its minimizer is
exact once the free coordinates and their signs are known, so one primal
active-set solver, batched over the blocks of a size, serves lsa_solve,
lambda_max and the cold start.  The validation curve builds the held-out
tail's per-node moments once and scores each candidate as a quadratic
form in its coefficients.
"""
from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from .estimate import (CurvatureBlocks, FitResult, InsufficientDataError,
                       NodeMoments, _chunk_contrast, _path_moments,
                       fit_adaptive_closed_form)
from .graph import DirectedGraph, build_graph
from .model import (NsdeSpec, ParamLayout, ParamVector, default_bounds,
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


def adaptive_weights(pilot: ParamVector, exponent: float = 1.0,
                     penalize_momentum: bool = False) -> np.ndarray:
    """Adaptive weights gamma_k = min(|pilot_k|^-exponent, DEFAULT_WEIGHT_CAP)
    over the flat parameter vector.

    The diffusion scales carry no penalty, and neither do the momentum
    entries (the leading d coordinates of the beta block) unless
    penalize_momentum is set.  Pilot magnitudes below PILOT_FLOOR get the
    cap weight.
    """
    mag = np.abs(pilot.flat())
    gamma = np.full(mag.shape, DEFAULT_WEIGHT_CAP)
    ok = mag >= PILOT_FLOOR
    gamma[ok] = np.minimum(mag[ok] ** (-exponent), DEFAULT_WEIGHT_CAP)
    d = pilot.alpha.shape[0]
    gamma[:d if penalize_momentum else 2 * d] = 0.0
    return gamma


# ---------------------------------------------------------------------------
# curvature blocks


def curvature_blocks(h) -> CurvatureBlocks:
    """Block form of the curvature: CurvatureBlocks are returned as given and
    a dense square matrix is one block."""
    if isinstance(h, CurvatureBlocks):
        return h
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise LassoError(f"curvature matrix must be square, got shape {h.shape}")
    p = h.shape[0]
    return CurvatureBlocks.from_blocks(p, [np.arange(p)], [h])


# ---------------------------------------------------------------------------
# solver


def _split_like(pilot: ParamVector, flat: np.ndarray) -> ParamVector:
    na = pilot.alpha.shape[0]
    return ParamVector(alpha=flat[:na], beta=flat[na:])


def _box(pilot: ParamVector, bounds):
    lo, hi = default_bounds(pilot) if bounds is None else bounds
    return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)


def _descent_rates(z, x, thr, lo, hi):
    """Rates at which the surrogate falls as each coordinate moves up and
    down from x (z: gradient of the quadratic part); 0 where the box blocks."""
    sx = np.sign(x)
    up = np.where(x < hi, -(z + thr * np.where(x != 0.0, sx, 1.0)), 0.0)
    down = np.where(x > lo, z + thr * np.where(x != 0.0, sx, -1.0), 0.0)
    return up, down


def kkt_residual(h, pilot: ParamVector, theta: ParamVector,
                 lam: float, gamma: np.ndarray, bounds=None) -> float:
    """Worst violation of the stationarity conditions of the surrogate problem.

    h is CurvatureBlocks or a dense matrix, and gamma the flat weights.
    """
    lo, hi = _box(pilot, bounds)
    x = theta.flat()
    z = curvature_blocks(h).matvec(x - pilot.flat())
    up, down = _descent_rates(z, x, lam * gamma, lo, hi)
    return float(np.max(np.maximum(up, down), initial=0.0))


_MAX_PASSES = 1000  # far above any shipped problem's need


def _solve_group(h, center, thr, lo, hi, x):
    """Primal active-set solve of one size group of blocks; rows (nb, m).

    Each pass frees the fixed coordinates (at a bound, or penalized at
    zero) along which the objective falls by more than rounding at their
    own scale, solves every block's Newton system on its free set with
    signs held, and steps toward it up to the first bound or kink at zero,
    fixing what reaches it.  A block is done once a full step frees nothing.
    """
    diag = np.diagonal(h, axis1=1, axis2=2)
    if np.any(diag < 0.0):
        raise NonPSDError("surrogate curvature matrix has a negative diagonal")
    # a coordinate without curvature stays where it starts
    lo = np.where(diag == 0.0, x, lo)
    hi = np.where(diag == 0.0, x, hi)
    kinked = thr > 0.0
    fixed = (x <= lo) | (x >= hi) | (kinked & (x == 0.0))
    sign = np.sign(x)
    eye = np.eye(h.shape[1])
    full = np.zeros(h.shape[0], dtype=bool)
    moved = ~full
    for _ in range(_MAX_PASSES):
        z = (h @ (x - center)[..., None])[..., 0]
        up, down = _descent_rates(z, x, thr, lo, hi)
        # only a step that moved releases: the objective fell, so no state
        # repeats; a zero-length step just shrinks the free set
        rel = (fixed & moved[:, None]
               & (np.maximum(up, down) > 1e-12 * (1.0 + np.abs(z) + thr)))
        if not np.any(rel | ~full[:, None]):
            return x
        # a released coordinate keeps the sign of its cell: sign(x) off
        # zero, the release direction at zero
        sign[rel] = np.where(x != 0.0, np.sign(x), np.where(up >= down, 1.0, -1.0))[rel]
        free = ~fixed | rel
        # H_FF x_F = H_FF c_F - H_FN (x_N - c_N) - thr_F s_F, fixed rows
        # and columns masked to the identity
        b = (h @ np.where(free, center, center - x)[..., None])[..., 0] - thr * sign
        try:
            newton = np.linalg.solve(np.where(free[:, :, None] & free[:, None, :], h, eye),
                                     np.where(free, b, x)[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise NonPSDError("surrogate curvature is singular on a free set; "
                              "repair it with psd_project") from None
        step = np.where(free, newton - x, 0.0)
        # a free coordinate runs to the edge of its cell: the box, cut at
        # zero on the far side of a penalized coordinate's sign
        edge = np.where(step > 0.0,
                        np.where(kinked & (sign < 0.0), np.minimum(hi, 0.0), hi),
                        np.where(kinked & (sign > 0.0), np.maximum(lo, 0.0), lo))
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.maximum(np.where(step != 0.0, (edge - x) / step, np.inf), 0.0)
        alpha = room.min(axis=1, initial=np.inf)
        # an edge within rounding of the Newton point stops the step there;
        # a full step takes the Newton point itself
        full = alpha > 1.0 + 1e-9
        hit = ~full[:, None] & (room <= alpha[:, None] + 1e-9)
        x = np.where(full[:, None], np.where(free, newton, x),
                     x + np.minimum(alpha, 1.0)[:, None] * step)
        x[hit] = edge[hit]
        fixed = ~free | hit
        moved = alpha > 1e-9
    raise ConvergenceError(f"active-set solve hit its pass bound ({_MAX_PASSES})")


def _active_set(hb: CurvatureBlocks, center, thr, lo, hi, x0):
    """Minimize (x - center)' H (x - center) / 2 + sum thr_k |x_k| over the
    box [lo, hi], from the feasible point x0, one size group at a time."""
    out = x0.copy()
    for idx, blocks in hb.groups:
        out[idx] = _solve_group(blocks, *(v[idx] for v in (center, thr, lo, hi, x0)))
    return out


def _restricted(hb: CurvatureBlocks, center, gamma, lo, hi):
    """Minimizer of the unpenalized surrogate with every penalized
    coordinate pinned at zero."""
    pen = gamma > 0
    lo = np.where(pen, 0.0, lo)
    hi = np.where(pen, 0.0, hi)
    return _active_set(hb, center, np.zeros_like(center), lo, hi,
                       np.clip(center, lo, hi))


def lsa_solve(h, pilot: ParamVector, lam: float, gamma: np.ndarray,
              bounds=None, warm: ParamVector | None = None) -> ParamVector:
    """Minimize the penalized quadratic surrogate over the box.

    h is CurvatureBlocks or a dense matrix (one block), and gamma the flat
    weights of adaptive_weights.  A primal active-set method finds each
    block's free set and signs, on which the solution is exact: H_FF x_F =
    H_FF pilot_F - H_FN (x_N - pilot_N) - lam gamma_F s_F, one batched
    solve per block size and pass.  It starts from warm (clipped to the
    box) or, cold, from lambda_max's restricted solution.  The result is
    certified: ConvergenceError is raised unless its stationarity residual
    is at most 1e-8 * (1 + lam), and also when a fixed bound of passes
    runs out.  A negative curvature diagonal or a singular free set raises
    NonPSDError, and a negative or non-finite lam raises LassoError.
    """
    hb = curvature_blocks(h)
    pilot_flat = pilot.flat()
    p = pilot_flat.shape[0]
    if hb.p != p:
        raise LassoError(f"curvature matrix has shape ({hb.p}, {hb.p}), "
                         f"expected ({p}, {p})")
    if not 0.0 <= lam < np.inf:  # NaN fails every comparison
        raise LassoError(f"penalty level must be finite and non-negative, got {lam}")
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (p,):
        raise LassoError("weights do not match the parameter vector")
    lo, hi = _box(pilot, bounds)
    start = (warm.flat() if warm is not None
             else _restricted(hb, pilot_flat, gamma, lo, hi))
    x = _active_set(hb, pilot_flat, lam * gamma, lo, hi, np.clip(start, lo, hi))
    theta = _split_like(pilot, x)
    resid = kkt_residual(hb, pilot, theta, lam, gamma, bounds=(lo, hi))
    if resid > 1e-8 * (1.0 + lam):
        raise ConvergenceError(
            f"active-set solve failed its certificate: stationarity residual "
            f"{resid:.3g} at lam={lam:.6g}")
    return theta


_PSD_REL_FLOOR = 1e-10


def psd_project(h) -> CurvatureBlocks:
    """Clip eigenvalues from below at 1e-10 * largest eigenvalue.

    The eigenvalues are those of the blocks (see CurvatureBlocks; a dense h
    is one block), which together are the spectrum of the whole matrix;
    blocks already at or above the floor are returned symmetrized but
    otherwise unchanged.  An indefinite or rank-deficient matrix is
    repaired with a warning, since downstream solves assume positive
    curvature.  The result is CurvatureBlocks with h's blocks.
    """
    hb = curvature_blocks(h)
    groups = [(idx, 0.5 * (blocks + blocks.transpose(0, 2, 1)))
              for idx, blocks in hb.groups]
    vals = [np.linalg.eigvalsh(blocks) for _, blocks in groups]
    top = max((v[:, -1].max() for v in vals), default=0.0)
    bottom = min((v[:, 0].min() for v in vals), default=np.inf)
    floor = _PSD_REL_FLOOR * max(top, 0.0)
    if floor <= 0.0:
        floor = _PSD_REL_FLOOR
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
    return CurvatureBlocks(p=hb.p, groups=tuple(groups))


# ---------------------------------------------------------------------------
# penalty scale


def lambda_max(h, pilot: ParamVector, gamma: np.ndarray,
               bounds=None) -> float:
    """Smallest penalty level at which every penalized coordinate is zero.

    With theta_star solving the surrogate restricted to penalized
    coordinates fixed at zero (unpenalized block free inside the box), this
    is max_k |(H (theta_star - pilot))_k| / gamma_k over penalized k.
    theta_star comes from lsa_solve's active-set solver run without penalty
    (same pass bound and errors) and respects the box, so the bound is
    exact: for any lam at or above it lsa_solve returns every penalized
    coordinate at exactly zero.  A cold lsa_solve starts from theta_star.
    h and gamma are as in lsa_solve.
    """
    hb = curvature_blocks(h)
    pilot_flat = pilot.flat()
    pen = gamma > 0
    if not np.any(pen):
        raise ZeroWeightError("no penalized coordinates")
    star = _restricted(hb, pilot_flat, gamma, *_box(pilot, bounds))
    z = hb.matvec(star - pilot_flat)
    return float(np.max(np.abs(z[pen]) / gamma[pen]))


# ---------------------------------------------------------------------------
# path


@dataclass
class LassoPath:
    """Solutions of the surrogate problem along a decreasing penalty grid."""

    lambdas: np.ndarray
    coefficients: list[ParamVector]
    active_counts: np.ndarray
    lambda_max: float
    adjacency: list[np.ndarray] | None = None  # filled by select_graph
    validation_loss: np.ndarray | None = None
    validation_se: np.ndarray | None = None
    notes: list[str] = field(default_factory=list)


def lambda_path(h, pilot: ParamVector, gamma: np.ndarray,
                bounds=None, n_points: int = 50, min_fraction: float = 1e-3,
                fractions=None) -> LassoPath:
    """Solve along a decreasing penalty grid with warm starts.

    The grid runs log-spaced from lambda_max down to
    min_fraction * lambda_max (n_points values), or, when fractions is
    given, is lambda_max * fractions in descending order; lambda_max is
    solved once either way.  The first point is a cold lsa_solve and every
    solution seeds the next one's active set, so each point costs a few
    batched passes; every point carries lsa_solve's certificate.  Active
    counts (nonzero penalized coordinates) should grow as the penalty
    decreases; violations are logged, not raised.  h and gamma are as in
    lsa_solve.
    """
    h = curvature_blocks(h)
    lam_top = lambda_max(h, pilot, gamma, bounds=bounds)
    if fractions is None:
        grid = np.geomspace(lam_top, lam_top * min_fraction, n_points)
    else:
        grid = lam_top * np.sort(np.asarray(fractions, dtype=float))[::-1]
    pen = gamma > 0
    coefficients = []
    counts = np.empty(grid.shape[0], dtype=int)
    notes: list[str] = []
    warm = None
    for idx, lam in enumerate(grid):
        sol = lsa_solve(h, pilot, float(lam), gamma, bounds=bounds, warm=warm)
        warm = sol
        coefficients.append(sol)
        counts[idx] = int(np.count_nonzero(sol.flat()[pen]))
    for idx in range(1, grid.shape[0]):
        if counts[idx] < counts[idx - 1]:
            msg = (f"active count dropped from {counts[idx - 1]} to {counts[idx]} "
                   f"between lam={grid[idx - 1]:.6g} and lam={grid[idx]:.6g}")
            logger.warning(msg)
            notes.append(msg)
    return LassoPath(lambdas=grid, coefficients=coefficients,
                     active_counts=counts, lambda_max=float(lam_top),
                     notes=notes)


# ---------------------------------------------------------------------------
# validation and penalty choice


_SE_BLOCKS = 10  # held-out sub-blocks behind a candidate's standard error


def _holdout_sizes(n: int, fraction: float) -> list[int]:
    """Increment counts of the 10 contiguous held-out sub-blocks (fewer
    for a shorter tail) of the trailing fraction of n increments."""
    n_tail = max(1, int(np.floor(n * fraction)))
    return [len(b) for b in np.array_split(np.arange(n_tail), min(_SE_BLOCKS, n_tail))]


def _validation_curve(mom: NodeMoments, flats: np.ndarray, delta: float):
    """(loss, se) of each candidate flats[k] on the held-out chunks of mom:
    its contrast per increment and that mean's standard error across them."""
    # the contrast splits by node, so the size that matters is one node's
    # parameter count (its scale and its drift slots)
    per_node = 1 + max(sl.shape[0] for sl in mom.slots)
    if mom.count.min() < 10 * per_node:
        warnings.warn(
            f"validation blocks hold as few as {mom.count.min()} increments "
            f"for {per_node} parameters per node; loss estimates may be "
            f"unstable", stacklevel=3)
    sums = _chunk_contrast(mom, flats, delta)
    losses = sums.sum(axis=1) / mom.count.sum()
    if mom.count.shape[0] == 1:
        return losses, np.zeros(flats.shape[0])
    return losses, (sums / mom.count).std(axis=1, ddof=1) / np.sqrt(mom.count.shape[0])


def validation_loss(path_data: SamplePath, spec: NsdeSpec, g: DirectedGraph,
                    theta_per_lambda, fraction: float = 0.3):
    """Per-increment contrast of each candidate on the held-out tail.

    The tail is the trailing `fraction` of the increments, cut into 10
    contiguous sub-blocks.  Returns (loss, se) arrays over the candidate
    list: loss is the mean over the tail and se the standard error of that
    mean across the sub-blocks.

    The tail's per-node moments are built once (see
    netsde.estimate.NodeMoments); each candidate's block loss is then a
    quadratic form in its drift coefficients plus the log terms.
    """
    n = path_data.n
    if n < 2:
        raise InsufficientDataError("validation needs at least two increments")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    if len(theta_per_lambda) == 0:
        return np.empty(0), np.zeros(0)
    sizes = _holdout_sizes(n, fraction)
    layout = parameter_layout(spec, g)
    mom = _path_moments(spec, layout, path_data.data[n - sum(sizes):], sizes)
    return _validation_curve(
        mom, np.stack([layout.flatten(theta) for theta in theta_per_lambda]),
        path_data.delta)


def select_lambda(path: LassoPath, rule: str = "half_se") -> float:
    """Pick a penalty level from a solved path's validation curve.

    Rules: "min" takes the validation-loss minimizer; "half_se" takes the
    largest penalty whose loss stays within half a standard error of the
    minimum, where the standard error is the minimizer's (its block-level
    se from validation_loss).  A fixed fraction of lambda_max needs no
    curve: lambda_path(fractions=[fraction]) solves it directly.
    """
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


def estimate_adjacency(layout: ParamLayout, theta: ParamVector) -> np.ndarray:
    """0/1 adjacency of theta's network block: entry (i, j) is 1 iff the
    coefficient of x_j in node i's drift is nonzero at some dictionary
    level."""
    slots = layout.coef_slots
    flat = layout.flatten(theta)
    return ((slots >= 0) & (np.abs(flat[slots]) > 0.0)).any(axis=0).astype(int)


def graph_from_adjacency(a_hat: np.ndarray) -> DirectedGraph:
    a_hat = np.asarray(a_hat)
    d = a_hat.shape[0]
    rows, cols = np.nonzero((a_hat != 0) & ~np.eye(d, dtype=bool))
    return build_graph(d, zip(rows.tolist(), cols.tolist()))


def two_step_refit(path_data: SamplePath, spec: NsdeSpec,
                   a_hat: np.ndarray) -> FitResult:
    """Unpenalized two-stage refit on the selected graph: the certified
    minimizer of the two-stage contrast over the model box, for either
    drift family (fit_adaptive_closed_form).
    """
    return fit_adaptive_closed_form(path_data, spec, graph_from_adjacency(a_hat))


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
        head = f"{float(lam)!r},"
        lines.extend(f"{head}{name},{value!r}"
                     for name, value in zip(names, flat.tolist()))
    return "\n".join(lines) + "\n"
