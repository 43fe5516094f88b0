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
when asked.  The stage-one scales, the closed-form generalized least
squares of the linear family, the contrast value, the observed
information (one CurvatureBlocks block per node) and, in netsde.lasso,
the held-out loss of every penalty candidate are all read off them.
quasi_loglik and model_hessian evaluate the contrast and its Hessian
row by row and serve as the reference evaluators.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from .graph import DirectedGraph
from .model import (LayoutMismatchError, LinearDrift, NsdeSpec, ParamLayout,
                    ParamVector, default_bounds, diffusion_shape,
                    parameter_layout, path_drift_fn)
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


class BoundsViolationError(ValueError):
    pass


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


def diffusion_contrast(path: SamplePath, spec: NsdeSpec, alpha) -> float:
    """Stage-one contrast: increments against a pure-diffusion model."""
    x0, dx = _increments(path)
    alpha = np.asarray(alpha, dtype=float)
    sig = alpha * diffusion_shape(spec, x0)
    if np.any(sig <= 0):
        raise DegenerateDiffusionError("diffusion must be strictly positive")
    var = sig * sig
    return float(np.sum(dx * dx / (path.delta * var)) + np.sum(np.log(var)))


def drift_contrast(path: SamplePath, spec: NsdeSpec, g: DirectedGraph,
                   theta: ParamVector) -> float:
    """Stage-two contrast: weighted squared drift residuals with sigma frozen."""
    x0, dx = _increments(path)
    drift = path_drift_fn(spec, g, theta)(x0)
    sig = theta.alpha * diffusion_shape(spec, x0)
    if np.any(sig <= 0):
        raise DegenerateDiffusionError("diffusion must be strictly positive")
    r = dx - path.delta * drift
    return float(np.sum(r * r / (path.delta * sig * sig)))


def sigma_path(path: SamplePath, spec: NsdeSpec, alpha) -> np.ndarray:
    """sigma evaluated at the left endpoint of every increment, shape (n, d)."""
    alpha = np.asarray(alpha, dtype=float)
    return alpha * diffusion_shape(spec, path.data[:-1])


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


def _designs(spec: NsdeSpec, g: DirectedGraph, layout: ParamLayout,
             x0_rows: np.ndarray):
    """Yield node j's (R_j, slots_j) for j = 0, ..., d - 1, one at a time.

    A linear-family design has columns [-x_j, 1 (with intercepts), x_k for
    the partners k in ascending order], so the momentum slot comes first.
    """
    d = layout.d
    if isinstance(spec.drift, LinearDrift):
        for j in range(d):
            if layout.augmented:
                partners = [k for k in range(d) if k != j]
            else:
                partners = list(g.parents(j))
            reg = x0_rows[:, [j] + partners]
            reg[:, 0] *= -1.0
            slots = [layout.momentum_slot(j)]
            slots += [layout.edge_slot(j, k) for k in partners]
            if layout.with_intercepts:
                reg = np.insert(reg, 1, 1.0, axis=1)
                slots.insert(1, layout.intercept_slot(j))
            yield reg, np.asarray(slots, dtype=int)
        return
    nrm = np.linalg.norm(x0_rows, axis=1)
    scales = [(off + nrm) ** (-(q + 1.0))
              for off, q in zip(spec.drift.offsets, spec.drift.exponents)]
    for j in range(d):
        cols = [-x0_rows[:, j]]
        slots = [layout.momentum_slot(j)]
        for lev in range(spec.drift.n_levels):
            for k in g.parents(j):
                cols.append(x0_rows[:, k] * scales[lev])
                slots.append(layout.edge_slot(j, k, level=lev))
        yield np.column_stack(cols), np.asarray(slots, dtype=int)


def node_designs(spec: NsdeSpec, g: DirectedGraph, layout: ParamLayout,
                 x0_rows: np.ndarray):
    """Per-node regressor matrices: b_j(x) = R_j @ theta_flat[slots_j].

    Returns a list of (R_j, slots_j) with R_j of shape (n, q_j).
    """
    return list(_designs(spec, g, layout, x0_rows))


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
    set of moments serves every parameter value.
    """

    count: np.ndarray
    sq: np.ndarray
    log_scale: np.ndarray
    slots: tuple[np.ndarray, ...] = ()
    gram: tuple[np.ndarray, ...] = ()
    cross: tuple[np.ndarray, ...] = ()


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
    spans = [slice(a, a + m) for a, m in zip(starts, sizes)]
    std = dx / scale
    slots, grams, crosses = [], [], []
    for j, (reg, sl) in enumerate(designs):
        z = reg / scale[:, j, None]
        grams.append(np.stack([z[s].T @ z[s] for s in spans]))
        crosses.append(np.stack([z[s].T @ std[s, j] for s in spans]))
        slots.append(sl)
    return NodeMoments(count=sizes,
                       sq=np.add.reduceat(std * std, starts, axis=0),
                       log_scale=np.add.reduceat(np.log(scale * scale),
                                                 starts, axis=0),
                       slots=tuple(slots), gram=tuple(grams),
                       cross=tuple(crosses))


def _path_moments(spec: NsdeSpec, g: DirectedGraph, layout: ParamLayout,
                  rows: np.ndarray, sizes=None) -> NodeMoments:
    """NodeMoments of the increments of rows (n + 1, d), weighted by the
    diffusion shape, with the model's node designs."""
    x0 = rows[:-1]
    return _node_moments(np.diff(rows, axis=0), diffusion_shape(spec, x0),
                         _designs(spec, g, layout, x0), sizes)


def _scale_estimate(mom: NodeMoments, delta: float, lo: float,
                    hi: float) -> np.ndarray:
    """Stage-one scales alpha_j^2 = sum dX_j^2 / s_j^2 / (n delta), clipped."""
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
    drift parameters); netsde.lasso splits a dense matrix into the
    connected components of its nonzero pattern.  Blocks of equal size m
    form one group (index, blocks): blocks (nb, m, m) stacks their
    submatrices and index (nb, m) their flat coordinates in ascending
    order, so a cyclic sweep visits each block in the same order as the
    dense matrix.
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


def _information(mom: NodeMoments, flat: np.ndarray, delta: float,
                 p: int) -> CurvatureBlocks:
    """Observed information of the contrast at flat, one block per node.

    Node j's block covers alpha_j and its drift slots: with Q the residual
    sum of squares (see _chunk_contrast), the alpha entry is
    3 Q / (delta alpha^4) - n / alpha^2, the cross terms are
    2 (cross - delta gram c) / alpha^3 and the drift part is
    delta gram / alpha^2.
    """
    n = mom.count.sum()
    members, blocks = [], []
    for j, sl in enumerate(mom.slots):
        gram = mom.gram[j].sum(axis=0)
        cross = mom.cross[j].sum(axis=0)
        c = flat[sl]
        gc = gram @ c
        quad = mom.sq[:, j].sum() - delta * (2.0 * (c @ cross) - delta * (c @ gc))
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


# ---------------------------------------------------------------------------
# closed-form per-node generalized least squares (linear drift)


def _solve_grams(grams, rhs):
    """Cholesky solve of each node's Gram system; returns (coefs, conds,
    jittered).

    A Gram matrix with condition number above 1e14 raises
    SingularGramError.  One whose factorization breaks down from rounding
    is retried with a diagonal jitter of 1e-10 times its mean diagonal;
    the jittered nodes are flagged and named in one warning.
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
            factor = cho_factor(gram)
        except np.linalg.LinAlgError:
            # near-PSD breakdown from rounding; stabilize and flag
            gram = gram + np.eye(gram.shape[0]) * (1e-10 * np.trace(gram) / gram.shape[0])
            jittered[j] = True
            try:
                factor = cho_factor(gram)
            except np.linalg.LinAlgError:
                raise SingularGramError(
                    f"weighted Gram matrix for node {j} is not positive definite",
                    node=j, cond=cond) from None
        coefs.append(cho_solve(factor, b))
    if jittered.any():
        listed = ", ".join(f"{j} (condition number {conds[j]:.3g})"
                           for j in np.flatnonzero(jittered))
        warnings.warn(
            f"Cholesky factorization of the weighted Gram matrix failed for "
            f"node(s) {listed}; solved with a diagonal jitter of 1e-10 times "
            f"the mean diagonal", stacklevel=3)
    return coefs, conds, jittered


@dataclass
class LinearClosedFormFit:
    """Per-node regression output of the closed-form drift estimator.

    Node j regresses its increments on the states of {j} + parents(j)
    (columns in ascending node order, intercept column last when enabled).
    The own-column coefficient is the negated momentum, -mu_j.
    """

    delta: float
    columns: list[list[int]]
    coef: list[np.ndarray]
    gram: list[np.ndarray]
    cond: np.ndarray
    jittered: np.ndarray
    intercepts: bool

    def to_params(self, layout: ParamLayout, alpha) -> ParamVector:
        """Map the per-node coefficients into a flat parameter vector."""
        flat = np.zeros(layout.pi_total)
        flat[:layout.pi_alpha] = np.asarray(alpha, dtype=float)
        for j, cols in enumerate(self.columns):
            coefs = self.coef[j]
            for pos, k in enumerate(cols):
                if k == j:
                    flat[layout.momentum_slot(j)] = -coefs[pos]
                else:
                    flat[layout.edge_slot(j, k)] = coefs[pos]
            if self.intercepts:
                flat[layout.intercept_slot(j)] = coefs[-1]
        return layout.unflatten(flat)


def fit_linear_closed_form(path: SamplePath, g: DirectedGraph,
                           sigma_hat, intercepts: bool = False) -> LinearClosedFormFit:
    """Per-node weighted least squares for the linear drift family.

    For node j with regressor block R (states of j and its parents, plus a
    constant column when intercepts is set), solves

        coef_j = (1/delta) * mean(R R' / sigma_hat_j^2)^{-1}
                           * mean(dX_j R / sigma_hat_j^2).

    Args:
        sigma_hat: per-increment diffusion values, shape (n, d); scalars or
            length-d vectors are broadcast.

    Raises:
        SingularGramError: when a node's weighted Gram matrix is numerically
            singular (condition number above 1e14).
    """
    x0, dx = _increments(path)
    n, d = x0.shape
    if g.d != d:
        raise ValueError(f"graph has {g.d} nodes, path has {d} coordinates")
    sig = np.broadcast_to(np.asarray(sigma_hat, dtype=float), (n, d))
    if np.any(sig <= 0):
        raise DegenerateDiffusionError("sigma_hat must be strictly positive")
    columns = [sorted(set(g.parents(j)) | {j}) for j in range(d)]

    def designs():
        for cols in columns:
            reg = x0[:, cols]
            yield (np.column_stack([reg, np.ones(n)]) if intercepts else reg), cols

    mom = _node_moments(dx, sig, designs())
    grams = [gram[0] / n for gram in mom.gram]
    coefs, conds, jittered = _solve_grams(
        grams, [cross[0] / (n * path.delta) for cross in mom.cross])
    return LinearClosedFormFit(delta=path.delta, columns=columns, coef=coefs,
                               gram=grams, cond=conds, jittered=jittered,
                               intercepts=intercepts)


# ---------------------------------------------------------------------------
# gradient and observed information


def _residual_parts(path: SamplePath, spec: NsdeSpec, g: DirectedGraph,
                    layout: ParamLayout, flat: np.ndarray):
    x0, dx = _increments(path)
    theta = layout.unflatten(flat)
    alpha = theta.alpha
    if np.any(alpha <= 0):
        raise DegenerateDiffusionError("diffusion scales must be strictly positive")
    s = diffusion_shape(spec, x0)
    inv_var = 1.0 / (alpha * alpha * s * s)
    drift = path_drift_fn(spec, g, theta)(x0)
    r = dx - path.delta * drift
    return x0, r, inv_var, alpha


def quasi_grad(path: SamplePath, spec: NsdeSpec, g: DirectedGraph,
               layout: ParamLayout, flat: np.ndarray,
               designs=None) -> np.ndarray:
    """Analytic gradient of quasi_loglik with respect to the flat vector."""
    x0, r, inv_var, alpha = _residual_parts(path, spec, g, layout, flat)
    n = x0.shape[0]
    if designs is None:
        designs = node_designs(spec, g, layout, x0)
    grad = np.zeros(layout.pi_total)
    quad = np.sum(r * r * inv_var, axis=0)  # per node
    grad[:layout.pi_alpha] = -quad / (path.delta * alpha) + n / alpha
    for j, (reg, slots) in enumerate(designs):
        grad[slots] += -(reg.T @ (r[:, j] * inv_var[:, j]))
    return grad


def model_hessian(path: SamplePath, spec: NsdeSpec, g: DirectedGraph,
                  theta: ParamVector, augmented: bool | None = None) -> np.ndarray:
    """Analytic Hessian of quasi_loglik at theta, as a dense matrix.

    The contrast separates across nodes, so the Hessian is block diagonal
    with one (1 + q_j) block per node covering its diffusion scale and
    drift parameters.  This evaluates it row by row; the fits build the
    same blocks from NodeMoments.
    """
    if augmented is None:
        augmented = theta.w is not None
    layout = parameter_layout(spec, g, augmented=augmented)
    flat = layout.flatten(theta)
    x0, r, inv_var, alpha = _residual_parts(path, spec, g, layout, flat)
    n = x0.shape[0]
    designs = node_designs(spec, g, layout, x0)
    hess = np.zeros((layout.pi_total, layout.pi_total))
    quad = np.sum(r * r * inv_var, axis=0)
    for j, (reg, slots) in enumerate(designs):
        a = layout.alpha_slot(j)
        hess[a, a] = 3.0 * quad[j] / (path.delta * alpha[j] ** 2) - n / alpha[j] ** 2
        cross = (2.0 / alpha[j]) * (reg.T @ (r[:, j] * inv_var[:, j]))
        hess[a, slots] = cross
        hess[slots, a] = cross
        block = path.delta * ((reg * inv_var[:, j][:, None]).T @ reg)
        hess[np.ix_(slots, slots)] += block
    return hess


# ---------------------------------------------------------------------------
# rate normalization


def rate_diagonal(layout: ParamLayout, n: int, delta: float) -> np.ndarray:
    """Diagonal of the rate matrix: n^{-1/2} on diffusion scales and
    (n*delta)^{-1/2} on all drift slots."""
    rate = np.full(layout.pi_total, 1.0 / np.sqrt(n * delta))
    rate[:layout.pi_alpha] = 1.0 / np.sqrt(n)
    return rate


def scaled_information(fit: "FitResult", n: int | None = None,
                       delta: float | None = None) -> np.ndarray:
    """Rate-normalized information: diag(rate) @ H @ diag(rate)."""
    n = fit.n if n is None else n
    delta = fit.delta if delta is None else delta
    rate = rate_diagonal(fit.layout, n, delta)
    return rate[:, None] * fit.info_matrix * rate[None, :]


# ---------------------------------------------------------------------------
# fit driver


@dataclass
class FitResult:
    """Estimate plus diagnostics from a quasi-likelihood fit.

    The observed information is kept as node blocks (info_blocks);
    info_matrix and scaled_info build dense p x p copies on each access.
    gram_cond and gram_jittered hold, per node, the condition number of
    the closed-form fit's weighted Gram matrix and whether its Cholesky
    factorization needed a jitter (None for iterative fits).
    """

    theta_hat: ParamVector
    contrast_value: float
    info_blocks: CurvatureBlocks
    rate_diag: np.ndarray
    converged: bool
    iterations: int
    layout: ParamLayout
    n: int
    delta: float
    message: str = ""
    gram_cond: np.ndarray | None = field(default=None, repr=False)
    gram_jittered: np.ndarray | None = field(default=None, repr=False)

    @property
    def info_matrix(self) -> np.ndarray:
        return self.info_blocks.dense()

    @property
    def scaled_info(self) -> np.ndarray:
        return scaled_information(self)

    def standard_errors(self) -> np.ndarray | None:
        """sqrt diag of rate @ scaled_info^{-1} @ rate, or None if singular.

        The inverse is taken block by block.
        """
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
    g = grad.copy()
    at_lo = np.isclose(x, lo) & (g > 0)
    at_hi = np.isclose(x, hi) & (g < 0)
    g[at_lo] = 0.0
    g[at_hi] = 0.0
    return g


def fit_qmle(path: SamplePath, spec: NsdeSpec, g: DirectedGraph,
             mode: str = "adaptive", init: ParamVector | None = None,
             augmented: bool = False, bounds=None, restarts: int = 5,
             max_iter: int = 500, grad_tol: float = 1e-8,
             freeze_alpha=None, seed: int = 0) -> FitResult:
    """Quasi-likelihood fit by box-constrained quasi-Newton descent.

    Args:
        mode: "joint" minimizes the contrast over all parameters at once;
            "adaptive" first solves the stage-one diffusion contrast exactly,
            then minimizes the drift contrast with the scales frozen.
        init: starting point (defaults to unit scales and zero drift).
        augmented: use ordered-pair weights instead of per-edge coefficients.
        bounds: (lo, hi) arrays over the flat vector; defaults to the model box.
        restarts: number of descent starts (the extra starts are seeded
            perturbations of init, clipped to the box).
        freeze_alpha: fix the diffusion scales at the given values by
            collapsing their box.
        grad_tol: convergence is certified when the projected gradient
            sup-norm is below grad_tol * (1 + |contrast|).

    The result is returned even when convergence is not certified; check
    FitResult.converged.  The information is the analytic Hessian at the
    estimate, read off the path's NodeMoments.
    """
    layout = parameter_layout(spec, g, augmented=augmented)
    if bounds is None:
        lo, hi = default_bounds(layout)
    else:
        lo = np.asarray(bounds[0], dtype=float).copy()
        hi = np.asarray(bounds[1], dtype=float).copy()
    # keep the likelihood away from the degenerate sigma = 0 boundary
    a_sl = slice(0, layout.pi_alpha)
    lo[a_sl] = np.maximum(lo[a_sl], _ALPHA_FLOOR)

    if init is None:
        flat0 = np.zeros(layout.pi_total)
        flat0[a_sl] = 1.0
    else:
        flat0 = layout.flatten(init).copy()
    if freeze_alpha is not None:
        fa = np.clip(np.asarray(freeze_alpha, dtype=float), _ALPHA_FLOOR, None)
        flat0[a_sl] = fa
        lo[a_sl] = fa
        hi[a_sl] = fa
    flat0 = np.clip(flat0, lo, hi)
    if init is not None and freeze_alpha is None:
        raw = layout.flatten(init)
        if np.any(raw < lo - 1e-12) or np.any(raw > hi + 1e-12):
            raise BoundsViolationError("init lies outside the box bounds")

    x0_rows, dx = _increments(path)
    designs = node_designs(spec, g, layout, x0_rows)

    def objective(flat):
        return quasi_loglik(path, spec, g, layout.unflatten(flat))

    def gradient(flat):
        return quasi_grad(path, spec, g, layout, flat, designs=designs)

    rng = np.random.default_rng(seed)
    iterations = 0

    if mode == "adaptive" and freeze_alpha is None:
        alpha_hat = fit_diffusion_scale(path, spec, lo=float(lo[0]), hi=float(hi[0]))
        alpha_hat = np.clip(alpha_hat, lo[a_sl], hi[a_sl])
        flat0[a_sl] = alpha_hat
        lo = lo.copy()
        hi = hi.copy()
        lo[a_sl] = alpha_hat
        hi[a_sl] = alpha_hat
    elif mode not in ("joint", "adaptive"):
        raise ValueError(f"unknown mode {mode!r}")

    scipy_bounds = list(zip(lo, hi))
    best = None
    for start in range(max(1, restarts)):
        if start == 0:
            x_start = flat0
        else:
            spread = 0.5 * (1.0 + np.abs(flat0))
            x_start = np.clip(flat0 + spread * rng.standard_normal(flat0.shape), lo, hi)
        res = minimize(objective, x_start, jac=gradient, method="L-BFGS-B",
                       bounds=scipy_bounds,
                       options={"maxiter": max_iter, "ftol": 2.3e-16,
                                "gtol": 1e-12, "maxfun": 20 * max_iter * (1 + layout.pi_total)})
        iterations += int(res.nit)
        if best is None or res.fun < best.fun:
            best = res

    flat_hat = np.clip(best.x, lo, hi)
    contrast = float(best.fun)
    pg = _projected_grad(gradient(flat_hat), flat_hat, lo, hi)
    converged = bool(np.max(np.abs(pg)) < grad_tol * (1.0 + abs(contrast)))

    mom = _node_moments(dx, diffusion_shape(spec, x0_rows), designs)
    return FitResult(theta_hat=layout.unflatten(flat_hat), contrast_value=contrast,
                     info_blocks=_information(mom, flat_hat, path.delta,
                                              layout.pi_total),
                     rate_diag=rate_diagonal(layout, path.n, path.delta),
                     converged=converged, iterations=iterations, layout=layout,
                     n=path.n, delta=path.delta,
                     message=str(best.message))


def fit_adaptive_closed_form(path: SamplePath, spec: NsdeSpec, g: DirectedGraph,
                             augmented: bool = False,
                             intercepts: bool | None = None) -> FitResult:
    """Two-stage fit with both stages in closed form (linear drift only).

    Stage one solves the diffusion contrast exactly; stage two runs the
    per-node generalized least squares with those scales.  alpha_j factors
    out of node j's weighted Gram system, so one pass of NodeMoments gives
    both stages, the contrast value and the information blocks.  This is
    the fast pilot used by the sparse-selection pipeline on dense
    (pair-weight) layouts, where every node regresses on all other
    coordinates.  intercepts=False leaves a model's intercepts at zero.
    """
    if not isinstance(spec.drift, LinearDrift):
        raise EstimationError("closed-form fit requires the linear drift family")
    layout = parameter_layout(spec, g, augmented=augmented)
    if intercepts is None:
        intercepts = layout.with_intercepts
    if intercepts and not layout.with_intercepts:
        raise LayoutMismatchError("layout has no intercepts")
    _increments(path)  # raises on a path without increments
    mom = _path_moments(spec, g, layout, path.data)
    alpha_hat = np.clip(_scale_estimate(mom, path.delta, 0.0, 1e3),
                        _ALPHA_FLOOR, None)
    # the intercept is column 1 of a design; an unfitted one stays at zero
    keep = [np.arange(sl.shape[0]) for sl in mom.slots]
    if layout.with_intercepts and not intercepts:
        keep = [np.delete(k, 1) for k in keep]
    coefs, conds, jittered = _solve_grams(
        [gram[0][np.ix_(k, k)] for gram, k in zip(mom.gram, keep)],
        [cross[0][k] / path.delta for cross, k in zip(mom.cross, keep)])
    flat = np.zeros(layout.pi_total)
    flat[:layout.pi_alpha] = alpha_hat
    for sl, k, coef in zip(mom.slots, keep, coefs):
        flat[sl[k]] = coef
    return FitResult(theta_hat=layout.unflatten(flat),
                     contrast_value=float(_chunk_contrast(
                         mom, flat[None], path.delta).sum()),
                     info_blocks=_information(mom, flat, path.delta,
                                              layout.pi_total),
                     rate_diag=rate_diagonal(layout, path.n, path.delta),
                     converged=True, iterations=0, layout=layout,
                     n=path.n, delta=path.delta, gram_cond=conds,
                     gram_jittered=jittered)


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
        "iterations": fit.iterations,
        "n": fit.n,
        "delta": fit.delta,
        "gram_cond_max": None if fit.gram_cond is None
            else float(np.max(fit.gram_cond, initial=0.0)),
        "gram_jittered": None if fit.gram_jittered is None
            else int(np.count_nonzero(fit.gram_jittered)),
    }


def fit_result_to_json(fit: FitResult) -> str:
    import json

    return json.dumps(fit_result_to_dict(fit), indent=2)
