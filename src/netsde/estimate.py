"""Quasi-likelihood estimation from discretely observed paths.

The Euler local-Gaussian contrast for a diagonal diffusion is

    sum_i sum_j [ (dX_ij - delta * b_j(X_{i-1}))^2 / (2 delta sigma_j(X_{i-1})^2)
                  + log(sigma_j(X_{i-1})^2) / 2 ],

minimized either jointly or in two stages: the diffusion scales first
(pure-increment contrast), then the drift coefficients with the scales
frozen.  Both drift families are linear in their drift parameters,
b_j(x) = R_j(x) c_j, and sigma_j = alpha_j s(x_j) with alpha_j outside
every sum.  The contrast therefore splits by node, and node j's share of
it depends on the path only through four weighted moment sums over the
increments (NodeMoments):

    sum R_j R_j' / s_j^2,  sum R_j dX_j / s_j^2,  sum dX_j^2 / s_j^2,
    sum log s_j^2.

One pass over the path builds them, per contiguous chunk of increments
when asked, or per replication for a batch of paths; the sums are
additive, so paths that arrive chunk by chunk from the simulator fold
into them without being stored.  Every fit reads the path through them
alone: the stage-one scales, the per-node generalized least squares,
the contrast value and gradient, the observed information (one
CurvatureBlocks block per node, which model_hessian lays out dense)
and, in netsde.lasso, the held-out loss of every penalty candidate.
Only quasi_loglik still evaluates the contrast row by row: one pass of
O(n d^2) costs less than a moments build of O(n d^3) when a single
value is wanted.

Node j's contrast is Q_j(c_j) / (2 delta alpha_j^2) + (n/2) log alpha_j^2
plus a constant, with Q_j the weighted residual sum of squares, a
quadratic in the drift coefficients c_j.  Its minimizer in c_j therefore
does not depend on alpha_j, and every fit is exact.  One moments core,
_closed_form_fit, serves every fit front end (fit_qmle,
fit_adaptive_closed_form, fit_linear_closed_form) and
error_bound_study: it solves each node's Gram system over the model box
(with netsde.lasso's active-set solver wherever the solution leaves
it), sets the scales by stage one, at alpha_j^2 = Q_j / (n delta) for
the joint fit, or at given values, and certifies the result by its
projected gradient.  The Gram systems are factored with numpy's
Cholesky (np.linalg.cholesky) and solved through the triangular
factors, so no fit needs scipy.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .graph import DirectedGraph
from .model import (ConstantDiagonal, LayoutMismatchError, LinearDrift,
                    NsdeSpec, ParamLayout, ParamVector, default_bounds,
                    diffusion_shape, parameter_layout, path_drift_fn)
from .simulate import SamplePath


class EstimationError(RuntimeError):
    pass


class DegenerateDiffusionError(EstimationError):
    pass


class SingularGramError(EstimationError):
    def __init__(self, message: str, node: int, cond: float):
        super().__init__(message)
        self.node = node
        self.cond = cond


class InsufficientDataError(EstimationError):
    pass


_COND_LIMIT = 1e14
_ALPHA_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# contrasts


def _increments(path: SamplePath):
    if path.n < 1:
        raise InsufficientDataError("need at least two rows to form increments")
    x0 = path.data[:-1]
    dx = np.diff(path.data, axis=0)
    return x0, dx


def quasi_loglik(path: SamplePath, spec: NsdeSpec, g: DirectedGraph,
                 theta: ParamVector) -> float:
    """Euler contrast value; lower is better."""
    x0, dx = _increments(path)
    drift = path_drift_fn(spec, g, theta)(x0)
    sig = theta.alpha * diffusion_shape(spec, x0)
    if np.any(sig <= 0):
        raise DegenerateDiffusionError("diffusion must be strictly positive")
    r = dx - path.delta * drift
    var = sig * sig
    return float(np.sum(r * r / (2.0 * path.delta * var)) +
                 0.5 * np.sum(np.log(var)))


def fit_diffusion_scale(path: SamplePath, spec: NsdeSpec,
                        lo: float = 0.0, hi: float = 1e3) -> np.ndarray:
    """Exact minimizer of the stage-one contrast for multiplicative diffusions.

    With sigma_j = alpha_j * s(x_j), the contrast is minimized coordinate-wise
    at alpha_j^2 = mean_i dX_ij^2 / (delta * s_ij^2); the result is clipped to
    [lo, hi].
    """
    x0, dx = _increments(path)
    return _scale_estimate(_node_moments(dx, diffusion_shape(spec, x0)),
                           path.delta, lo, hi)


# ---------------------------------------------------------------------------
# per-node designs (drift is linear in its parameters for both families)


def _designs(spec: NsdeSpec, layout: ParamLayout, x0_rows: np.ndarray):
    """Yield node j's (R_j, slots_j) for j = 0, ..., d - 1, one at a time.

    Node j's partners are the k with a slot in row j of layout.coef_slots,
    ascending.  R_j has columns [-x_j, 1 (with intercepts), x_k for the
    partners k], the partner block repeated once per dictionary level and
    scaled by that level's radial factor for the radial family, so the
    momentum slot comes first.  R_j is one fancy-indexed copy of the rows
    (Fortran-ordered), made C-ordered before the radial scale step.  The
    memory order sets the summation order of the BLAS products
    downstream, so both orders are part of the result.
    """
    levels = layout.coef_slots.shape[0]
    scales = []
    if layout.n_levels:
        nrm = np.linalg.norm(x0_rows, axis=1)
        scales = [(off + nrm) ** (-(q + 1.0))
                  for off, q in zip(spec.drift.offsets, spec.drift.exponents)]
    for j in range(layout.d):
        partners = np.flatnonzero(layout.coef_slots[0, j] >= 0)
        m = len(partners)
        reg = x0_rows[:, np.r_[j, np.tile(partners, levels)]]
        reg[:, 0] *= -1.0
        if scales:
            reg = np.ascontiguousarray(reg)
            for lev, scale in enumerate(scales):
                reg[:, 1 + lev * m:1 + (lev + 1) * m] *= scale[:, None]
        slots = np.r_[layout.momentum_slot(j),
                      layout.coef_slots[:, j, partners].ravel()]
        if layout.with_intercepts:
            reg = np.insert(reg, 1, 1.0, axis=1)
            slots = np.insert(slots, 1, layout.intercept_slot(j))
        yield reg, slots


# ---------------------------------------------------------------------------
# per-node moments


@dataclass(frozen=True)
class NodeMoments:
    """Weighted moment sums of every node's regression, chunk by chunk.

    Node j's drift is R_j c_j with c_j = theta_flat[slots[j]].  Each
    increment is weighted by 1 / s_j^2, where s_j is the diffusion shape
    (sigma_j = alpha_j s_j) or any other scale the caller fixes.  Over the
    count[c] increments of chunk c:

        gram[j][c] = sum R_j R_j' / s_j^2    cross[j][c] = sum R_j dX_j / s_j^2
        sq[c, j]   = sum dX_j^2 / s_j^2      log_scale[c, j] = sum log s_j^2

    alpha_j and c_j enter node j's contrast only through these sums, so one
    set of moments serves every parameter value.  The sums are additive:
    a + b holds, chunk by chunk, the moments of the increments of both.
    """

    count: np.ndarray
    sq: np.ndarray
    log_scale: np.ndarray
    slots: tuple[np.ndarray, ...] = ()
    gram: tuple[np.ndarray, ...] = ()
    cross: tuple[np.ndarray, ...] = ()

    def __add__(self, other: "NodeMoments") -> "NodeMoments":
        return NodeMoments(
            count=self.count + other.count, sq=self.sq + other.sq,
            log_scale=self.log_scale + other.log_scale, slots=self.slots,
            gram=tuple(a + b for a, b in zip(self.gram, other.gram)),
            cross=tuple(a + b for a, b in zip(self.cross, other.cross)))

    def chunk(self, c: int) -> "NodeMoments":
        """The moments of chunk c alone."""
        pick = slice(c, c + 1)
        return NodeMoments(
            count=self.count[pick], sq=self.sq[pick],
            log_scale=self.log_scale[pick], slots=self.slots,
            gram=tuple(gram[pick] for gram in self.gram),
            cross=tuple(cross[pick] for cross in self.cross))


def _node_moments(dx: np.ndarray, scale: np.ndarray, designs=(),
                  sizes=None) -> NodeMoments:
    """One pass over the increments dx (n, d), weighted by 1 / scale^2.

    designs yields node j's (R_j, slots_j) in node order; sizes splits the
    increments into contiguous chunks (default one chunk).  Each chunk's
    Gram sum is R'R of the standardized rows R / s_j, a symmetric product.
    """
    n = dx.shape[0]
    sizes = np.asarray([n] if sizes is None else sizes, dtype=int)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    if np.all(sizes == sizes[0]):
        # chunks of one size: one batched product per node
        def chunk_sums(z, v):
            z = z.reshape(sizes.shape[0], sizes[0], z.shape[1])
            zt = z.transpose(0, 2, 1)
            return zt @ z, (zt @ v.reshape(z.shape[:2] + (1,)))[:, :, 0]
    else:
        spans = [slice(a, a + m) for a, m in zip(starts, sizes)]

        def chunk_sums(z, v):
            return (np.stack([z[s].T @ z[s] for s in spans]),
                    np.stack([z[s].T @ v[s] for s in spans]))
    std = dx / scale
    slots, grams, crosses = [], [], []
    for j, (reg, sl) in enumerate(designs):
        gram, cross = chunk_sums(reg / scale[:, j, None], std[:, j])
        grams.append(gram)
        crosses.append(cross)
        slots.append(sl)
    return NodeMoments(count=sizes,
                       sq=np.add.reduceat(std * std, starts, axis=0),
                       log_scale=np.add.reduceat(np.log(scale * scale),
                                                 starts, axis=0),
                       slots=tuple(slots), gram=tuple(grams),
                       cross=tuple(crosses))


def _path_moments(spec: NsdeSpec, g: DirectedGraph, layout: ParamLayout,
                  rows: np.ndarray, sizes=None) -> NodeMoments:
    """NodeMoments of the increments of rows, weighted by the diffusion
    shape, with the model's node designs.

    rows (n + 1, d) is one path, split into chunks by sizes; rows
    (reps, n + 1, d) holds one path per replication, and replication r's
    increments make chunk r.
    """
    if rows.ndim == 3:
        reps, n = rows.shape[0], rows.shape[1] - 1
        x0 = rows[:, :-1].reshape(reps * n, -1)
        dx = np.diff(rows, axis=1).reshape(reps * n, -1)
        sizes = np.full(reps, n)
    else:
        x0 = rows[:-1]
        dx = np.diff(rows, axis=0)
    return _node_moments(dx, diffusion_shape(spec, x0),
                         _designs(spec, layout, x0), sizes)


def _scale_estimate(mom: NodeMoments, delta: float, lo, hi) -> np.ndarray:
    """Stage-one scales alpha_j^2 = sum dX_j^2 / s_j^2 / (n delta), clipped
    to [lo, hi] (scalars or one bound per node)."""
    return np.clip(np.sqrt(mom.sq.sum(axis=0) / mom.count.sum() / delta), lo, hi)


def _chunk_contrast(mom: NodeMoments, flats: np.ndarray,
                    delta: float) -> np.ndarray:
    """Contrast of each chunk at each flat parameter vector, shape (K, C).

    flats (K, p) holds the alpha block first.  With c = node j's
    coefficients, its residual sum of squares over a chunk is the quadratic
    form sq - 2 delta c'cross + delta^2 c'gram c, and its log term is
    count log alpha_j^2 + log_scale.
    """
    d = mom.sq.shape[1]
    a2 = flats[:, :d] ** 2
    quad = np.repeat(mom.sq[None], flats.shape[0], axis=0)  # (K, C, d)
    n_chunks = mom.count.shape[0]
    for j, sl in enumerate(mom.slots):
        c = flats[:, sl]
        q = sl.shape[0]
        gc = (mom.gram[j].reshape(n_chunks * q, q) @ c.T).reshape(n_chunks, q, -1)
        quad[:, :, j] -= delta * (2.0 * (c @ mom.cross[j].T)
                                  - delta * np.einsum("cqk,kq->kc", gc, c))
    out = quad / (2.0 * delta * a2[:, None, :])
    out += 0.5 * (mom.count[None, :, None] * np.log(a2)[:, None, :]
                  + mom.log_scale[None])
    return out.sum(axis=2)


# ---------------------------------------------------------------------------
# curvature blocks


@dataclass(frozen=True)
class CurvatureBlocks:
    """A p x p curvature matrix held as independent coordinate blocks.

    Coordinates of different blocks share no curvature.  The information
    of a fit has one block per node (alpha_j, its momentum and its own
    drift parameters); netsde.lasso takes a dense matrix as one block.
    Blocks of equal size m
    form one group (index, blocks): blocks (nb, m, m) stacks their
    submatrices and index (nb, m) their flat coordinates in ascending
    order, so netsde.lasso solves a whole group in one batched step.
    """

    p: int
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]

    @classmethod
    def from_blocks(cls, p: int, members, blocks) -> "CurvatureBlocks":
        """Group blocks[k], over the ascending coordinates members[k], by size."""
        sizes = np.array([len(idx) for idx in members])
        groups = []
        for m in np.unique(sizes):
            pick = np.flatnonzero(sizes == m)
            groups.append((np.stack([members[k] for k in pick]),
                           np.stack([blocks[k] for k in pick])))
        return cls(p=p, groups=tuple(groups))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = np.empty(self.p)
        for idx, blocks in self.groups:
            out[idx] = (blocks @ v[idx][:, :, None])[:, :, 0]
        return out

    def dense(self) -> np.ndarray:
        out = np.zeros((self.p, self.p))
        for idx, blocks in self.groups:
            out[idx[:, :, None], idx[:, None, :]] = blocks
        return out


def _node_terms(mom: NodeMoments, j: int, c: np.ndarray, delta: float):
    """Node j's Gram and cross sums over every chunk, G c and its residual
    sum of squares Q = sq - 2 delta c'cross + delta^2 c'G c at coefficients c."""
    gram = mom.gram[j].sum(axis=0)
    cross = mom.cross[j].sum(axis=0)
    gc = gram @ c
    quad = mom.sq[:, j].sum() - delta * (2.0 * (c @ cross) - delta * (c @ gc))
    return gram, cross, gc, quad


def _gradient(mom: NodeMoments, flat: np.ndarray, delta: float) -> np.ndarray:
    """Gradient of the contrast at flat: -Q / (delta alpha^3) + n / alpha on
    alpha_j and (delta G c - cross) / alpha^2 on node j's drift slots."""
    n = mom.count.sum()
    grad = np.zeros(flat.shape[0])
    for j, sl in enumerate(mom.slots):
        _gram, cross, gc, quad = _node_terms(mom, j, flat[sl], delta)
        alpha = flat[j]
        grad[j] = -quad / (delta * alpha ** 3) + n / alpha
        grad[sl] = (delta * gc - cross) / (alpha * alpha)
    return grad


def _information(mom: NodeMoments, flat: np.ndarray, delta: float,
                 p: int) -> CurvatureBlocks:
    """Observed information of the contrast at flat, one block per node.

    Node j's block covers alpha_j and its drift slots: with Q the residual
    sum of squares (see _node_terms), the alpha entry is
    3 Q / (delta alpha^4) - n / alpha^2, the cross terms are
    2 (cross - delta gram c) / alpha^3 and the drift part is
    delta gram / alpha^2.
    """
    n = mom.count.sum()
    members, blocks = [], []
    for j, sl in enumerate(mom.slots):
        gram, cross, gc, quad = _node_terms(mom, j, flat[sl], delta)
        alpha = flat[j]
        a2 = alpha * alpha
        order = np.argsort(sl)
        blk = np.empty((sl.shape[0] + 1,) * 2)
        blk[0, 0] = 3.0 * quad / (delta * a2 * a2) - n / a2
        blk[0, 1:] = (2.0 / (a2 * alpha)) * (cross - delta * gc)[order]
        blk[1:, 0] = blk[0, 1:]
        blk[1:, 1:] = (delta / a2) * gram[np.ix_(order, order)]
        members.append(np.concatenate([[j], sl[order]]))
        blocks.append(blk)
    return CurvatureBlocks.from_blocks(p, members, blocks)


def model_hessian(path: SamplePath, spec: NsdeSpec, g: DirectedGraph,
                  theta: ParamVector) -> np.ndarray:
    """Analytic Hessian of quasi_loglik at theta, as a dense matrix: the
    path's _information blocks at theta (one per node, over its diffusion
    scale and drift parameters) laid out dense.  theta follows the layout
    of g; a pilot fitted with augmented=True is on complete_graph(d)."""
    layout = parameter_layout(spec, g)
    flat = layout.flatten(theta)  # checks the blocks against the layout
    _increments(path)  # raises on a path without increments
    if np.any(theta.alpha <= 0):
        raise DegenerateDiffusionError("diffusion scales must be strictly positive")
    mom = _path_moments(spec, g, layout, path.data)
    return _information(mom, flat, path.delta, layout.pi_total).dense()


# ---------------------------------------------------------------------------
# per-node generalized least squares


def _solve_grams(grams, rhs):
    """Cholesky solve of each node's Gram system; returns (coefs, conds,
    jittered).

    Each Gram matrix G is factored as G = L L' by np.linalg.cholesky, and
    the system is solved through its triangular factors, L y = b and then
    L' c = y, with np.linalg.solve.  A Gram matrix with condition number
    above 1e14 raises SingularGramError.  One whose factorization breaks
    down from rounding (np.linalg.LinAlgError) is retried with a diagonal
    jitter of 1e-10 times its mean diagonal; the jittered nodes are
    flagged and named in one warning.
    """
    conds = np.empty(len(grams))
    jittered = np.zeros(len(grams), dtype=bool)
    coefs = []
    for j, (gram, b) in enumerate(zip(grams, rhs)):
        cond = float(np.linalg.cond(gram))
        conds[j] = cond
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularGramError(
                f"weighted Gram matrix for node {j} is singular "
                f"(condition number {cond:.3g})", node=j, cond=cond)
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            # near-PSD breakdown from rounding; stabilize and flag
            gram = gram + np.eye(gram.shape[0]) * (1e-10 * np.trace(gram) / gram.shape[0])
            jittered[j] = True
            try:
                chol = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                raise SingularGramError(
                    f"weighted Gram matrix for node {j} is not positive definite",
                    node=j, cond=cond) from None
        coefs.append(np.linalg.solve(chol.T, np.linalg.solve(chol, b)))
    if jittered.any():
        listed = ", ".join(f"{j} (condition number {conds[j]:.3g})"
                           for j in np.flatnonzero(jittered))
        warnings.warn(
            f"Cholesky factorization of the weighted Gram matrix failed for "
            f"node(s) {listed}; solved with a diagonal jitter of 1e-10 times "
            f"the mean diagonal", stacklevel=3)
    return coefs, conds, jittered


# ---------------------------------------------------------------------------
# fit driver


def rate_diagonal(layout: ParamLayout, n: int, delta: float) -> np.ndarray:
    """Diagonal of the rate matrix: n^{-1/2} on diffusion scales and
    (n*delta)^{-1/2} on all drift slots."""
    rate = np.full(layout.pi_total, 1.0 / np.sqrt(n * delta))
    rate[:layout.pi_alpha] = 1.0 / np.sqrt(n)
    return rate


@dataclass
class FitResult:
    """Estimate plus diagnostics from a quasi-likelihood fit.

    The observed information is kept as node blocks (info_blocks;
    info_blocks.dense() lays it out as a p x p matrix).  converged is the
    projected-gradient certificate of _closed_form_fit.  gram_cond and
    gram_jittered hold, per node, the condition number of its weighted
    Gram matrix and whether its Cholesky factorization needed a jitter.
    """

    theta_hat: ParamVector
    contrast_value: float
    info_blocks: CurvatureBlocks
    rate_diag: np.ndarray
    converged: bool
    layout: ParamLayout
    n: int
    delta: float
    gram_cond: np.ndarray = field(repr=False)
    gram_jittered: np.ndarray = field(repr=False)

    def standard_errors(self) -> np.ndarray | None:
        """sqrt of the diagonal of the inverse information, or None if a
        block is singular; each block H is inverted rate-normalized,
        diag(rate_diag) H diag(rate_diag), and scaled back."""
        var = np.empty(self.info_blocks.p)
        for idx, blocks in self.info_blocks.groups:
            rate = self.rate_diag[idx]
            try:
                inv = np.linalg.inv(rate[:, :, None] * blocks * rate[:, None, :])
            except np.linalg.LinAlgError:
                return None
            var[idx] = rate * np.diagonal(inv, axis1=1, axis2=2) * rate
        var[var < 0] = np.nan
        return np.sqrt(var)


def _projected_grad(grad, x, lo, hi):
    """grad with the components that push a coordinate lying on its bound
    out of the box set to zero.

    The box solve puts a bound coordinate exactly on lo or hi, so only
    those count as on the bound; a coordinate near one keeps its gradient.
    """
    g = grad.copy()
    g[(x <= lo) & (g > 0)] = 0.0
    g[(x >= hi) & (g < 0)] = 0.0
    return g


def fit_qmle(path: SamplePath, spec: NsdeSpec, g: DirectedGraph,
             mode: str = "adaptive", augmented: bool = False,
             freeze_alpha=None, intercepts: bool | None = None) -> FitResult:
    """Exact quasi-likelihood fit over the model box, node by node; the one
    fit front end for both drift families.

    Args:
        mode: "joint" minimizes the contrast over all parameters at once;
            "adaptive" first solves the stage-one diffusion contrast
            exactly, then minimizes the drift contrast with those scales.
        augmented: fit on the complete graph, whatever g's edges (the
            unknown-graph pilot; see parameter_layout).
        freeze_alpha: fix the diffusion scales at the given values.
        intercepts: False leaves a model's intercepts at zero; the default
            fits them when the model has them.

    Node j's contrast is Q_j(c_j) / (2 delta alpha_j^2) + (n/2) log alpha_j^2
    plus a constant, with Q_j a quadratic in its drift coefficients c_j, so
    the minimizer in c_j does not depend on alpha_j and both modes share it:
    the generalized least squares point, solved over the box
    (default_bounds) wherever that point leaves it.  The joint scales are
    then alpha_j^2 = Q_j / (n delta), which needs more increments than
    node j has drift coefficients (else InsufficientDataError: with no
    more, Q_j is rounding noise).  The path enters only through its
    NodeMoments, built once, and _closed_form_fit reads the fit off them.
    converged certifies the result: the projected gradient over the
    optimized coordinates is below 1e-8 (1 + |contrast|).  A numerically
    singular Gram matrix raises SingularGramError.
    """
    if mode not in ("joint", "adaptive"):
        raise ValueError(f"unknown mode {mode!r}")
    layout = parameter_layout(spec, g, augmented=augmented)
    if intercepts is None:
        intercepts = layout.with_intercepts
    if intercepts and not layout.with_intercepts:
        raise LayoutMismatchError("layout has no intercepts")
    _increments(path)  # raises on a path without increments
    alpha = None
    if freeze_alpha is not None:
        alpha = np.clip(np.asarray(freeze_alpha, dtype=float), _ALPHA_FLOOR, None)
    return _closed_form_fit(_path_moments(spec, g, layout, path.data), layout,
                            path.delta, intercepts,
                            joint=mode == "joint" and alpha is None, alpha=alpha)


def fit_adaptive_closed_form(path: SamplePath, spec: NsdeSpec, g: DirectedGraph,
                             augmented: bool = False,
                             intercepts: bool | None = None) -> FitResult:
    """The two-stage fit, fit_qmle(mode="adaptive"), for either drift family.

    Stage one solves the diffusion contrast exactly; stage two runs the
    per-node generalized least squares with those scales, over the model
    box, and the result is certified.  The sparse-selection pipeline runs
    it as its pilot on the complete graph (augmented=True), where every
    node regresses on all other coordinates, and as its refit.
    """
    return fit_qmle(path, spec, g, augmented=augmented, intercepts=intercepts)


def fit_linear_closed_form(path: SamplePath, g: DirectedGraph,
                           sigma_hat, intercepts: bool = False) -> FitResult:
    """The certified fit of the linear drift family under caller-given
    weights.

    Node j's drift coefficients minimize
    sum_i (dX_ij - delta R_j c_j)^2 / sigma_hat_ij^2 over the model box,
    with R_j its design (see _designs): _closed_form_fit with the scales
    at 1 relative to sigma_hat, so theta_hat.alpha is all ones.
    sigma_hat has shape (n, d); scalars or length-d vectors are
    broadcast.  A numerically singular weighted Gram matrix raises
    SingularGramError.
    """
    x0, dx = _increments(path)
    n, d = x0.shape
    if g.d != d:
        raise ValueError(f"graph has {g.d} nodes, path has {d} coordinates")
    sig = np.broadcast_to(np.asarray(sigma_hat, dtype=float), (n, d))
    if np.any(sig <= 0):
        raise DegenerateDiffusionError("sigma_hat must be strictly positive")
    spec = NsdeSpec(d=d, drift=LinearDrift(with_intercepts=intercepts),
                    diffusion=ConstantDiagonal())
    layout = parameter_layout(spec, g)
    mom = _node_moments(dx, sig, _designs(spec, layout, x0))
    return _closed_form_fit(mom, layout, path.delta, intercepts,
                            alpha=np.ones(d))


def _closed_form_fit(mom: NodeMoments, layout: ParamLayout, delta: float,
                     intercepts: bool, joint: bool = False,
                     alpha=None) -> FitResult:
    """The certified fit read off a path's moments (every chunk of mom
    counts).

    Each node's drift coefficients solve its weighted Gram system; a node
    whose solution leaves the model box (default_bounds, with the scales
    floored at 1e-8) is solved over it by netsde.lasso's active-set method
    at zero penalty.  The scales are sqrt(Q_j / (n delta)) at the fitted
    coefficients when joint (InsufficientDataError when a node has no more
    increments than drift coefficients), else alpha when given, else the
    stage-one scales.  converged holds when the projected gradient over the
    coordinates the fit optimizes (the scales only when joint, the
    intercepts only when fitted) is below 1e-8 (1 + |contrast|).
    """
    n = int(mom.count.sum())
    lo, hi = default_bounds(layout)
    # keep the likelihood away from the degenerate sigma = 0 boundary
    lo[:layout.pi_alpha] = _ALPHA_FLOOR
    # the intercept is column 1 of a design; an unfitted one stays at zero
    keep = [np.arange(sl.shape[0]) for sl in mom.slots]
    if layout.with_intercepts and not intercepts:
        keep = [np.delete(k, 1) for k in keep]
    if joint:
        # a node that interpolates its increments leaves Q_j at rounding
        # noise, and no scale can be read off it
        for j, k in enumerate(keep):
            if n <= k.shape[0]:
                raise InsufficientDataError(
                    f"joint fit of node {j} needs more increments than its "
                    f"{k.shape[0]} drift coefficients, got {n}")
    grams = [gram.sum(axis=0)[np.ix_(k, k)] for gram, k in zip(mom.gram, keep)]
    coefs, conds, jittered = _solve_grams(
        grams, [cross.sum(axis=0)[k] / delta for cross, k in zip(mom.cross, keep)])
    flat = np.zeros(layout.pi_total)
    members = [sl[k] for sl, k in zip(mom.slots, keep)]
    for idx, coef in zip(members, coefs):
        flat[idx] = coef
    outside = [j for j, idx in enumerate(members)
               if np.any((flat[idx] < lo[idx]) | (flat[idx] > hi[idx]))]
    if outside:
        # netsde.lasso imports this module, so its solver is imported here
        from .lasso import _active_set

        order = [np.argsort(members[j]) for j in outside]
        hb = CurvatureBlocks.from_blocks(
            layout.pi_total, [members[j][o] for j, o in zip(outside, order)],
            [grams[j][np.ix_(o, o)] for j, o in zip(outside, order)])
        flat = _active_set(hb, flat, np.zeros_like(flat), lo, hi,
                           np.clip(flat, lo, hi))
    scales = slice(0, layout.pi_alpha)
    if joint:
        quad = [_node_terms(mom, j, flat[sl], delta)[3]
                for j, sl in enumerate(mom.slots)]
        # Q_j >= 0, but rounding takes it below zero on a noiseless path
        alpha = np.clip(np.sqrt(np.maximum(quad, 0.0) / (n * delta)),
                        lo[scales], hi[scales])
    elif alpha is None:
        alpha = _scale_estimate(mom, delta, lo[scales], hi[scales])
    flat[scales] = alpha
    contrast = float(_chunk_contrast(mom, flat[None], delta).sum())
    optimized = np.zeros(layout.pi_total, dtype=bool)
    optimized[np.concatenate(members)] = True
    optimized[scales] = joint
    pg = _projected_grad(_gradient(mom, flat, delta), flat, lo, hi)
    converged = bool(np.max(np.abs(pg[optimized])) < 1e-8 * (1.0 + abs(contrast)))
    return FitResult(theta_hat=layout.unflatten(flat), contrast_value=contrast,
                     info_blocks=_information(mom, flat, delta,
                                              layout.pi_total),
                     rate_diag=rate_diagonal(layout, n, delta),
                     converged=converged, layout=layout,
                     n=n, delta=delta, gram_cond=conds,
                     gram_jittered=jittered)


class _MomentFold:
    """Folds paths handed on chunk by chunk into per-replication moments.

    A consumer for netsde.simulate's Euler loop: each call passes the next
    rows (reps, k, d) of every replication, and the fold joins them to the
    previous call's last row.  moments holds, in chunk r, the NodeMoments of
    replication r's increments so far (None before the first increment).
    Each call's sums are formed on their own and then added to the running
    totals, so long paths keep their precision (Chan, Golub & LeVeque 1983).
    """

    def __init__(self, spec: NsdeSpec, g: DirectedGraph, layout: ParamLayout):
        self._model = (spec, g, layout)
        self._last = None
        self.moments: NodeMoments | None = None

    def __call__(self, lo: int, block: np.ndarray) -> None:
        rows = block if self._last is None else np.concatenate(
            [self._last, block], axis=1)
        self._last = block[:, -1:].copy()
        if rows.shape[1] > 1:
            mom = _path_moments(*self._model, rows)
            self.moments = mom if self.moments is None else self.moments + mom


# ---------------------------------------------------------------------------
# export


def fit_result_to_dict(fit: FitResult) -> dict:
    se = fit.standard_errors()
    flat = fit.layout.flatten(fit.theta_hat)
    return {
        "names": list(fit.layout.coord_names),
        "values": flat.tolist(),
        "standard_errors": None if se is None else
            [None if not np.isfinite(v) else float(v) for v in se],
        "contrast": fit.contrast_value,
        "converged": fit.converged,
        "n": fit.n,
        "delta": fit.delta,
        "gram_cond_max": float(np.max(fit.gram_cond, initial=0.0)),
        "gram_jittered": int(np.count_nonzero(fit.gram_jittered)),
    }


def fit_result_to_json(fit: FitResult) -> str:
    import json

    return json.dumps(fit_result_to_dict(fit), indent=2)
