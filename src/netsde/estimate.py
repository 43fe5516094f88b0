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

One builder, _MomentFold, forms them: it takes rows chunk by chunk and
adds every node's sums in batched products, per replication and per
contiguous chunk of increments when asked.  The sums are additive, so
the studies' ensembles fold into per-replication moments as the
simulator hands them on, and a stored path is fed to the same fold as
one replication (_path_moments); a sub-graph's moments are a column
subset of the complete graph's (NodeMoments.restrict).  Every fit, the
observed information (one CurvatureBlocks block per node) and, in
netsde.lasso, the held-out loss of every penalty candidate read the path
through them alone.  Only quasi_loglik evaluates the contrast row by
row: one pass of O(n d^2) costs less than a moments build of O(n d^3)
when a single value is wanted.

Node j's contrast is Q_j(c_j) / (2 delta alpha_j^2) + (n/2) log alpha_j^2
plus a constant, with Q_j the weighted residual sum of squares, a
quadratic in the drift coefficients c_j.  Its minimizer in c_j therefore
does not depend on alpha_j, and every fit is exact.  One moments core,
_closed_form_fit, serves every fit front end (fit_qmle,
fit_adaptive_closed_form, fit_linear_closed_form), the selection
pilot and both studies: it solves each node's Gram system over the model box
(with netsde.lasso's active-set solver wherever the solution leaves
it), sets the scales by stage one, at alpha_j^2 = Q_j / (n delta) for
the joint fit, or at given values, and certifies the result by its
projected gradient.  The Gram systems are factored with numpy's
Cholesky (np.linalg.cholesky) and solved through the triangular
factors, so no fit needs scipy.
"""
from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .graph import DirectedGraph, build_graph
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


def _increments(rows: np.ndarray):
    if rows.shape[0] < 2:
        raise InsufficientDataError("need at least two rows to form increments")
    return rows[:-1], np.diff(rows, axis=0)


def quasi_loglik(path: SamplePath, spec: NsdeSpec, g: DirectedGraph,
                 theta: ParamVector) -> float:
    """Euler contrast value; lower is better."""
    x0, dx = _increments(path.data)
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
    # the empty graph: every design is the momentum column alone
    layout = parameter_layout(spec, build_graph(spec.d, ()))
    return _scale_estimate(_path_moments(spec, layout, path.data), path.delta,
                           lo, hi)


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

    def chunk(self, pick: int | slice) -> "NodeMoments":
        """The moments of chunk pick alone, or of the chunks of a slice."""
        if not isinstance(pick, slice):
            pick = slice(pick, pick + 1)
        return NodeMoments(
            count=self.count[pick], sq=self.sq[pick],
            log_scale=self.log_scale[pick], slots=self.slots,
            gram=tuple(gram[pick] for gram in self.gram),
            cross=tuple(cross[pick] for cross in self.cross))

    def restrict(self, layout: ParamLayout, sub: ParamLayout) -> "NodeMoments":
        """The moments of sub, the layout of the same model on a sub-graph
        of layout's graph: node j's design under sub is a subset of its
        columns under layout, in the same order."""
        kept = sub.coef_slots >= 0
        if np.any(layout.coef_slots[kept] < 0):
            raise LayoutMismatchError("the graph is not a sub-graph of the layout's")
        # scales, momenta and intercepts lead both layouts in the same places
        to_sub = np.arange(layout.pi_total)
        to_sub[layout.coef_slots[layout.coef_slots >= 0]] = -1
        to_sub[layout.coef_slots[kept]] = sub.coef_slots[kept]
        keep = [np.flatnonzero(to_sub[sl] >= 0) for sl in self.slots]
        return NodeMoments(
            count=self.count, sq=self.sq, log_scale=self.log_scale,
            slots=tuple(to_sub[sl[k]] for sl, k in zip(self.slots, keep)),
            gram=tuple(gram[:, k[:, None], k] for gram, k in zip(self.gram, keep)),
            cross=tuple(cross[:, k] for cross, k in zip(self.cross, keep)))


class _MomentFold:
    """Folds rows into NodeMoments: the one builder of every fit's,
    curvature's and validation curve's moments.

    A consumer for netsde.simulate's Euler loop: each call passes the next
    rows (reps, k, d) of every replication and the shape factors the loop
    evaluated at the row before each (see simulate._euler), so no shape is
    recomputed; _path_moments feeds a stored path as one replication.  The
    increment ending at row t is weighted by 1 / s^2, s = factor times the
    factor handed with row t (the clip for the Euler loop's tanh factors, 1
    for a path's shapes or caller weights), or s = 1 when none is handed.

    Node j's design rows are -x_j, a ones row with intercepts (column 1),
    then its partners level after level, each radial level scaled by
    (offset + |x|)^-(q + 1), padded with copies of x_j to the m rows of the
    widest node (their sums are dropped), and dX_j is row m.  Laid out
    node-major as (reps, d, m + 1, k), each node's rows are divided by its
    scale along contiguous memory, and one product of rows 0..m - 1 with
    all m + 1 rows gives its Gram and cross sums (from _SYRK_ROWS rows on,
    a symmetric product for the Gram and another for the cross sums, which
    is faster for a wide design and slower for a narrow one).  A piece of
    a call holds about _GROUP_BYTES of design but no fewer than _PIECE_ROWS
    rows times replications, so that a wide design's products do not get
    too small to run fast, and its nodes are taken in groups of about
    _GROUP_BYTES so that each group stays in cache.

    sizes cuts each replication's increments into contiguous chunks (one
    open-ended chunk by default); pieces are cut at the chunk ends, evenly
    within each.  Each piece's sums are formed on their own and then added
    to its chunk's running totals, so long paths keep their precision
    (Chan, Golub & LeVeque 1983).  moments() slices the totals into
    NodeMoments whose chunk r * len(sizes) + c is chunk c of replication r.
    """

    _GROUP_BYTES = 1 << 20
    _PIECE_ROWS = 1024
    _SYRK_ROWS = 32

    def __init__(self, spec: NsdeSpec, layout: ParamLayout, sizes=None,
                 factor: float = 1.0):
        d = layout.d
        self._factor = factor
        levels = max(layout.n_levels, 1)
        lead = 1 + int(layout.with_intercepts)
        linked = layout.coef_slots[0] >= 0
        count = linked.sum(axis=1)
        width = int(count.max())
        self._m = m = lead + levels * width
        # node j's partners in ascending order, and where each sits
        node, at = np.nonzero(np.arange(width) < count[:, None])
        partner = np.argsort(~linked, axis=1, kind="stable")[node, at]
        # row j lists the rows of the gathered [x | dX | 1 | -x] block that
        # make node j's design: -x_j, the ones row, its partners level after
        # level, padding copies of x_j, then dX_j; slots[j] holds the flat
        # slots of its columns
        self._rows = np.repeat(np.arange(d)[:, None], m + 1, axis=1)
        self._rows[:, 0] = 2 * d + 1 + np.arange(d)
        self._rows[:, 1:lead] = 2 * d
        self._rows[:, m] = d + np.arange(d)
        slots = np.zeros((d, m), dtype=int)
        slots[:, 0] = layout.momentum_slot(np.arange(d))
        slots[:, 1:lead] = layout.intercept_indices.reshape(d, -1)
        # each radial level's offset, exponent and (d, m + 1) mask of rows
        self._radial = []
        for lev in range(levels):
            col = lead + lev * count[node] + at
            self._rows[node, col] = partner
            slots[node, col] = layout.coef_slots[lev, node, partner]
            if layout.n_levels:
                mask = np.zeros(self._rows.shape, dtype=bool)
                mask[node, col] = True
                self._radial.append((spec.drift.offsets[lev],
                                     spec.drift.exponents[lev], mask))
        self._slots = tuple(row[:lead + levels * c] for row, c in zip(slots, count))
        self._ends = np.cumsum([sys.maxsize] if sizes is None else sizes)
        self._last = None
        self._count = 0
        self._sums = self._sq = self._log_scale = None

    def __call__(self, lo: int, block: np.ndarray, shape: np.ndarray | None) -> None:
        if self._last is None:
            # no increment ends at the first row
            self._last = block[:, 0].copy()
            block = block[:, 1:]
            shape = None if shape is None else shape[:, 1:]
        reps, k, d = block.shape
        if k == 0:
            return
        m = self._m
        if self._sums is None:
            chunks = self._ends.shape[0]
            self._sums = np.zeros((reps, chunks, d, m, m + 1))
            self._sq = np.zeros((reps, chunks, d))
            self._log_scale = np.zeros((reps, chunks, d))
        # pieces of span rows of size replications, cut at the chunk ends
        budget = max(self._PIECE_ROWS, self._GROUP_BYTES // (8 * d * (m + 1)))
        span = min(k, budget)
        size = max(1, budget // span)
        start = 0
        for c, stop in enumerate(np.clip(self._ends - self._count, 0, k)):
            cuts = np.linspace(start, stop, 1 - (start - stop) // span)
            for a, b in zip(cuts[:-1].astype(int), cuts[1:].astype(int)):
                for r in range(0, reps, size):
                    pick = slice(r, r + size)
                    self._fold(block[pick, a:b],
                               None if shape is None else shape[pick, a:b],
                               self._last[pick] if a == 0 else block[pick, a - 1],
                               self._sums[pick, c], self._sq[pick, c],
                               self._log_scale[pick, c])
            start = stop
        self._last[...] = block[:, -1]
        self._count += k

    def _fold(self, block, shape, last, sums, sq, log_scale):
        """Add the sums of the increments from last (reps, d) through the
        rows of block to the totals sums, sq and log_scale (views of the
        running totals)."""
        reps, k, d = block.shape
        m = self._m
        # [x | dX | 1 | -x] node-major: x_t in column t of the first d
        # rows, dX_t = x_{t+1} - x_t in column t of the next d (their
        # column k is never read), a row of ones, then -x
        xdx = np.empty((reps, 3 * d + 1, k + 1))
        x = xdx[:, :d]
        x[:, :, 0] = last
        x[:, :, 1:] = block.transpose(0, 2, 1)
        np.subtract(x[:, :, 1:], x[:, :, :-1], out=xdx[:, d:2 * d, :k])
        xdx[:, 2 * d] = 1.0
        np.negative(x, out=xdx[:, 2 * d + 1:])
        radial = [(mask, (off + np.linalg.norm(x, axis=1)[:, None, :])
                   ** (-(q + 1.0))) for off, q, mask in self._radial]
        scale = None
        if shape is not None:
            scale = np.multiply(shape.transpose(0, 2, 1), self._factor,
                                out=np.empty((reps, d, k)))
            log_scale += np.log(scale * scale).sum(axis=2)
        # each node's product is the same whatever its group
        nodes = max(1, self._GROUP_BYTES // (8 * reps * (m + 1) * k))
        gathered = np.empty((reps, min(nodes, d) * (m + 1), k + 1))
        for a in range(0, d, nodes):
            grp = slice(a, a + nodes)
            rows = self._rows[grp].ravel()
            # mode="clip" writes straight into out; "raise" would buffer a
            # copy
            z = np.take(xdx, rows, axis=1, mode="clip",
                        out=gathered[:, :rows.shape[0]])
            z = z.reshape(reps, -1, m + 1, k + 1)
            for mask, factor in radial:
                z[:, mask[grp]] *= factor
            z = z[..., :k]
            if scale is not None:
                z /= scale[:, grp, None]
            design, std = z[:, :, :m], z[:, :, m]
            if m < self._SYRK_ROWS:
                # numpy hands this to BLAS gemm, Z Z' to syrk; the corner
                # left out is sq
                sums[:, grp] += design @ z.transpose(0, 1, 3, 2)
            else:
                sums[:, grp, :, :m] += design @ design.transpose(0, 1, 3, 2)
                sums[:, grp, :, m] += (design @ std[..., None])[..., 0]
            sq[:, grp] += np.einsum("rjt,rjt->rj", std, std)

    def rep_bytes(self) -> int:
        """Bytes of the running totals kept for each replication."""
        return 8 * len(self._ends) * len(self._slots) * (self._m * (self._m + 1) + 2)

    def moments(self) -> NodeMoments | None:
        """The NodeMoments of every chunk of every replication (views of
        the running totals), or None before the first increment."""
        if self._sums is None:
            return None
        m = self._m
        d = len(self._slots)
        sums = self._sums.reshape(-1, d, m, m + 1)
        count = np.diff(np.minimum(np.r_[0, self._ends], self._count))
        return NodeMoments(
            count=np.tile(count, self._sq.shape[0]), sq=self._sq.reshape(-1, d),
            log_scale=self._log_scale.reshape(-1, d), slots=self._slots,
            gram=tuple(sums[:, j, :len(sl), :len(sl)]
                       for j, sl in enumerate(self._slots)),
            cross=tuple(sums[:, j, :len(sl), m]
                        for j, sl in enumerate(self._slots)))


def _path_moments(spec: NsdeSpec, layout: ParamLayout, rows: np.ndarray,
                  sizes=None, scale=None) -> NodeMoments:
    """NodeMoments of the increments of one path's rows (n + 1, d), cut
    into contiguous chunks by sizes (default one chunk), each weighted by
    scale (n, d) (default the diffusion shape at its start): the rows fed
    to a _MomentFold as one replication."""
    _increments(rows)  # raises on a path without increments
    if scale is None and not isinstance(spec.diffusion, ConstantDiagonal):
        scale = diffusion_shape(spec, rows[:-1])
    fold = _MomentFold(spec, layout, sizes)
    fold(0, rows[None, :1], None)
    fold(1, rows[None, 1:], None if scale is None else scale[None])
    return fold.moments()


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
    if np.any(theta.alpha <= 0):
        raise DegenerateDiffusionError("diffusion scales must be strictly positive")
    mom = _path_moments(spec, layout, path.data)
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
        diag(rate_diag) H diag(rate_diag), refined once with the residual
        in extended precision (np.longdouble), and scaled back."""
        var = np.empty(self.info_blocks.p)
        for idx, blocks in self.info_blocks.groups:
            rate = self.rate_diag[idx]
            scaled = rate[:, :, None] * blocks * rate[:, None, :]
            try:
                inv = np.linalg.inv(scaled)
            except np.linalg.LinAlgError:
                return None
            inv = inv + inv @ (np.eye(idx.shape[1])
                               - scaled.astype(np.longdouble) @ inv)
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
    alpha = None
    if freeze_alpha is not None:
        alpha = np.asarray(freeze_alpha, dtype=float)
        if alpha.shape != (layout.pi_alpha,) or not np.all(
                np.isfinite(alpha) & (alpha >= 0)):
            raise DegenerateDiffusionError(
                f"freeze_alpha must hold {layout.pi_alpha} finite non-negative "
                f"scales, got {freeze_alpha!r}")
        alpha = np.maximum(alpha, _ALPHA_FLOOR)
    return _closed_form_fit(_path_moments(spec, layout, path.data), layout,
                            path.delta, intercepts,
                            joint=mode == "joint" and alpha is None, alpha=alpha)


def fit_adaptive_closed_form(path: SamplePath, spec: NsdeSpec, g: DirectedGraph,
                             augmented: bool = False,
                             intercepts: bool | None = None) -> FitResult:
    """The two-stage fit, fit_qmle(mode="adaptive"), for either drift family.

    Stage one solves the diffusion contrast exactly; stage two runs the
    per-node generalized least squares with those scales, over the model
    box, and the result is certified.  two_step_refit runs it on the
    selected graph.
    """
    return fit_qmle(path, spec, g, augmented=augmented, intercepts=intercepts)


def fit_linear_closed_form(path: SamplePath, g: DirectedGraph,
                           sigma_hat, intercepts: bool = False) -> FitResult:
    """The certified fit of the linear drift family under caller-given
    weights.

    Node j's drift coefficients minimize
    sum_i (dX_ij - delta R_j c_j)^2 / sigma_hat_ij^2 over the model box,
    with R_j its design (see _MomentFold): _closed_form_fit with the scales
    at 1 relative to sigma_hat, so theta_hat.alpha is all ones.
    sigma_hat has shape (n, d); scalars or length-d vectors are
    broadcast.  A numerically singular weighted Gram matrix raises
    SingularGramError.
    """
    n, d = path.n, path.d
    if g.d != d:
        raise ValueError(f"graph has {g.d} nodes, path has {d} coordinates")
    sig = np.broadcast_to(np.asarray(sigma_hat, dtype=float), (n, d))
    if not np.all(np.isfinite(sig) & (sig > 0)):
        raise DegenerateDiffusionError(
            "sigma_hat must be finite and strictly positive")
    spec = NsdeSpec(d=d, drift=LinearDrift(with_intercepts=intercepts),
                    diffusion=ConstantDiagonal())
    layout = parameter_layout(spec, g)
    return _closed_form_fit(_path_moments(spec, layout, path.data, scale=sig),
                            layout, path.delta, intercepts,
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
