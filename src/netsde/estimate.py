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

They are held as one node stack, each design padded with zero columns,
so every step works on all nodes at once.  One builder, _MomentFold,
forms them: it takes rows chunk by chunk and adds every node's sums in
batched products, per replication and per contiguous chunk of
increments when asked.  The sums are additive, so
the studies' ensembles fold into per-replication moments as the
simulator hands them on, and a stored path is fed to the same fold as
one replication (_path_moments); a sub-graph's moments are a column
subset of the complete graph's (NodeMoments.restrict), so the refit on a
selected graph reads the selection's moments.  Every fit, the
observed information (one CurvatureBlocks block per node, cut from the
stack) and, in netsde.lasso, the held-out loss of every penalty
candidate read the path through them alone: fit_diffusion_scale reads
the stage-one scales off them, and quasi_loglik the contrast of each
chunk at any number of parameter vectors.

Node j's contrast is Q_j(c_j) / (2 delta alpha_j^2) + (n/2) log alpha_j^2
plus a constant, with Q_j the weighted residual sum of squares, a
quadratic in the drift coefficients c_j.  Its minimizer in c_j therefore
does not depend on alpha_j, and every fit is exact.  One moments core,
_closed_form_fit, serves every fit front end (fit_qmle,
fit_adaptive_closed_form, fit_linear_closed_form), the selection pilot,
the refit and both studies: it solves each node's Gram system over the
model box (with netsde.lasso's active-set solver wherever the solution
leaves it), sets the scales by stage one, at alpha_j^2 = Q_j / (n delta) for
the joint fit, or at given values, and certifies the result by its
projected gradient.  The stack of Gram systems is factored by one call
of numpy's Cholesky (np.linalg.cholesky) and solved through the
triangular factors, so no fit needs scipy.
"""
from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .graph import DirectedGraph
from .model import (ConstantDiagonal, LayoutMismatchError, LinearDrift,
                    NsdeSpec, ParamLayout, ParamVector, default_bounds,
                    diffusion_shape, parameter_layout)
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
# per-node moments


@dataclass(frozen=True)
class NodeMoments:
    """Weighted moment sums of every node's regression, chunk by chunk,
    stacked over the nodes.

    Node j's drift is R_j c_j with c_j = theta_flat[slots[j]], its design
    R_j padded with zero columns, slot -1, to the m of the widest node.
    Each increment is weighted by 1 / s_j^2, where s_j is the diffusion
    shape (sigma_j = alpha_j s_j) or any other scale the caller fixes.
    Over the count[c] increments of chunk c:

        gram[c, j] = sum R_j R_j' / s_j^2    cross[c, j] = sum R_j dX_j / s_j^2
        sq[c, j]   = sum dX_j^2 / s_j^2      log_scale[c, j] = sum log s_j^2

    alpha_j and c_j enter node j's contrast only through these sums, so one
    set of moments serves every parameter value.
    """

    count: np.ndarray  # (C,)
    sq: np.ndarray  # (C, d)
    log_scale: np.ndarray  # (C, d)
    slots: np.ndarray  # (d, m)
    gram: np.ndarray  # (C, d, m, m)
    cross: np.ndarray  # (C, d, m)

    def chunk(self, pick: int | slice) -> "NodeMoments":
        """The moments of chunk pick alone, or of the chunks of a slice."""
        if not isinstance(pick, slice):
            pick = slice(pick, pick + 1)
        return NodeMoments(
            count=self.count[pick], sq=self.sq[pick],
            log_scale=self.log_scale[pick], slots=self.slots,
            gram=self.gram[pick], cross=self.cross[pick])

    def restrict(self, layout: ParamLayout, sub: ParamLayout) -> "NodeMoments":
        """The moments of sub, the layout of the same model on a sub-graph
        of layout's graph: node j's columns under sub are a subset of its
        columns under layout, in the same order, laid out as sub's fold."""
        kept = sub.coef_slots >= 0
        if np.any(layout.coef_slots[kept] < 0):
            raise LayoutMismatchError("the graph is not a sub-graph of the layout's")
        # scales, momenta and intercepts lead both layouts in the same
        # places, and the padding's slot -1 stays -1
        to_sub = np.r_[np.arange(layout.pi_total), -1]
        to_sub[layout.coef_slots[layout.coef_slots >= 0]] = -1
        to_sub[layout.coef_slots[kept]] = sub.coef_slots[kept]
        slots = to_sub[self.slots]
        # each node's kept columns in order, then the rest
        order = np.argsort(slots < 0, axis=1, kind="stable")
        order = order[:, :(slots >= 0).sum(axis=1).max()]
        slots = np.take_along_axis(slots, order, axis=1)
        live = slots >= 0
        node = np.arange(slots.shape[0])[:, None]
        gram = self.gram[:, node[:, :, None], order[:, :, None], order[:, None, :]]
        return NodeMoments(
            count=self.count, sq=self.sq, log_scale=self.log_scale, slots=slots,
            gram=np.where(live[:, :, None] & live[:, None, :], gram, 0.0),
            cross=np.where(live, self.cross[:, node, order], 0.0))


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
    (offset + |x|)^-(q + 1), padded with zero rows (slot -1) to the m rows
    of the widest node, and dX_j is row m.  Laid out node-major as
    (reps, d, m + 1, k), each node's rows are divided by its scale along
    contiguous memory, and one product of rows 0..m - 1 with all m + 1
    rows gives its Gram and cross sums (from _SYRK_ROWS rows on, a
    symmetric product for the Gram and another for the cross sums, which
    is faster for a wide design and slower for a narrow one).  A piece of
    a call holds about _GROUP_BYTES of design but no fewer than
    _PIECE_ROWS rows times replications, so that a wide design's products
    do not get too small to run fast, and its nodes are taken in groups of
    about _GROUP_BYTES so that each group stays in cache.

    sizes cuts each replication's increments into contiguous chunks (one
    open-ended chunk by default); pieces are cut at the chunk ends, evenly
    within each.  Each piece's sums are formed on their own and then added
    to its chunk's running totals, (reps, chunks, d, m, m + 1), so long
    paths keep their precision (Chan, Golub & LeVeque 1983).  moments()
    returns views of the totals as NodeMoments whose chunk
    r * len(sizes) + c is chunk c of replication r.
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
        # row j lists the rows of the gathered [x | dX | 1 | -x | 0] block
        # that make node j's design: -x_j, the ones row, its partners level
        # after level, the zero row as padding, then dX_j; slots[j] holds
        # the flat slots of its columns
        self._rows = np.full((d, m + 1), 3 * d + 1)
        self._rows[:, 0] = 2 * d + 1 + np.arange(d)
        self._rows[:, 1:lead] = 2 * d
        self._rows[:, m] = d + np.arange(d)
        self._slots = slots = np.full((d, m), -1)
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
        # [x | dX | 1 | -x | 0] node-major: x_t in column t of the first d
        # rows, dX_t = x_{t+1} - x_t in column t of the next d (their
        # column k is never read), a row of ones, -x, then a row of zeros
        xdx = np.empty((reps, 3 * d + 2, k + 1))
        x = xdx[:, :d]
        x[:, :, 0] = last
        x[:, :, 1:] = block.transpose(0, 2, 1)
        np.subtract(x[:, :, 1:], x[:, :, :-1], out=xdx[:, d:2 * d, :k])
        xdx[:, 2 * d] = 1.0
        np.negative(x, out=xdx[:, 2 * d + 1:3 * d + 1])
        xdx[:, 3 * d + 1] = 0.0
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
            gram=sums[..., :m], cross=sums[..., m])


def _path_moments(spec: NsdeSpec, layout: ParamLayout, rows: np.ndarray,
                  sizes=None, scale=None) -> NodeMoments:
    """NodeMoments of the increments of one path's rows (n + 1, d), cut
    into contiguous chunks by sizes (default one chunk), each weighted by
    scale (n, d) (default the diffusion shape at its start): the rows fed
    to a _MomentFold as one replication.  InsufficientDataError for fewer
    than two rows, LayoutMismatchError for a column count other than the
    layout's node count."""
    if rows.shape[0] < 2:
        raise InsufficientDataError("need at least two rows to form increments")
    if rows.shape[1] != layout.d:
        raise LayoutMismatchError(f"path has {rows.shape[1]} columns, model "
                                  f"has {layout.d} nodes")
    if scale is None and not isinstance(spec.diffusion, ConstantDiagonal):
        scale = diffusion_shape(spec, rows[:-1])
    fold = _MomentFold(spec, layout, sizes)
    fold(0, rows[None, :1], None)
    fold(1, rows[None, 1:], None if scale is None else scale[None])
    return fold.moments()


# ---------------------------------------------------------------------------
# contrasts


def fit_diffusion_scale(mom: NodeMoments, delta: float, lo, hi) -> np.ndarray:
    """Exact minimizer of the stage-one contrast, read off any moments of
    the path: alpha_j^2 = sum dX_j^2 / s_j^2 / (n delta), clipped to
    [lo, hi] (scalars or one bound per node)."""
    return np.clip(np.sqrt(mom.sq.sum(axis=0) / mom.count.sum() / delta), lo, hi)


def quasi_loglik(mom: NodeMoments, flats: np.ndarray, delta: float) -> np.ndarray:
    """Euler contrast of each chunk of mom at each flat parameter vector,
    shape (K, C); lower is better.

    flats (K, p) holds one vector of mom's layout per row, the alpha block
    first (LayoutMismatchError for another width; DegenerateDiffusionError
    for a scale that is not positive).  With c = node j's coefficients (0
    on its padding), its residual sum of squares over a chunk is the
    quadratic form sq - 2 delta c'cross + delta^2 c'gram c, and its log
    term is count log alpha_j^2 + log_scale.
    """
    d = mom.sq.shape[1]
    flats = np.asarray(flats, dtype=float)
    live = mom.slots >= 0
    p = d + int(live.sum())
    if flats.ndim != 2 or flats.shape[1] != p:
        raise LayoutMismatchError(
            f"candidates of shape {flats.shape} for {p} slots")
    if np.any(flats[:, :d] <= 0):
        raise DegenerateDiffusionError("diffusion scales must be strictly positive")
    a2 = flats[:, :d] ** 2
    c = np.where(live, flats[:, mom.slots], 0.0)  # (K, d, m)
    gc = mom.gram @ c.transpose(1, 2, 0)  # (C, d, m, K)
    quad = mom.sq - delta * (2.0 * np.einsum("kjq,cjq->kcj", c, mom.cross)
                             - delta * np.einsum("cjqk,kjq->kcj", gc, c))
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
    drift parameters), cut from the node stack by from_stack;
    netsde.lasso.psd_project turns a dense matrix into one block.  Blocks
    of equal size m form one group (index, blocks):
    blocks (nb, m, m) stacks their submatrices and index (nb, m) their
    flat coordinates in ascending order, so netsde.lasso solves a whole
    group in one batched step.
    """

    p: int
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]

    @classmethod
    def from_stack(cls, p: int, index: np.ndarray,
                   blocks: np.ndarray) -> "CurvatureBlocks":
        """Group a stack of blocks (nb, w, w) by size: blocks[k] is the
        submatrix over the coordinates index[k], -1 marking padding,
        which no group keeps."""
        live = index >= 0
        order = np.argsort(np.where(live, index, p), axis=1, kind="stable")
        index = np.take_along_axis(index, order, axis=1)
        blocks = blocks[np.arange(order.shape[0])[:, None, None],
                        order[:, :, None], order[:, None, :]]
        size = live.sum(axis=1)
        return cls(p=p, groups=tuple((index[size == m, :m],
                                      blocks[size == m, :m, :m])
                                     for m in np.unique(size)))

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


def _node_terms(mom: NodeMoments, flat: np.ndarray, delta: float):
    """Every node's Gram and cross sums over every chunk, G c and its
    residual sum of squares Q = sq - 2 delta c'cross + delta^2 c'G c at its
    coefficients c = flat[slots[j]] (0 on its padding): arrays over the
    node stack, (gram (d, m, m), cross (d, m), gc (d, m), quad (d,))."""
    c = np.where(mom.slots >= 0, flat[mom.slots], 0.0)
    gram = mom.gram.sum(axis=0)
    cross = mom.cross.sum(axis=0)
    gc = (gram @ c[:, :, None])[:, :, 0]
    quad = mom.sq.sum(axis=0) - delta * (2.0 * np.einsum("jq,jq->j", c, cross)
                                        - delta * np.einsum("jq,jq->j", c, gc))
    return gram, cross, gc, quad


def _derivatives(mom: NodeMoments, flat: np.ndarray, delta: float, terms):
    """Gradient and observed information (CurvatureBlocks, one block per
    node) of the contrast at flat, read off terms, the _node_terms at flat.

    With Q node j's residual sum of squares, the gradient is
    -Q / (delta alpha^3) + n / alpha on alpha_j and
    (delta G c - cross) / alpha^2 on node j's drift slots.  Node j's
    information block covers alpha_j and its drift slots: the alpha entry
    is 3 Q / (delta alpha^4) - n / alpha^2, the cross terms are
    2 (cross - delta G c) / alpha^3 and the drift part is delta G / alpha^2.
    """
    gram, cross, gc, quad = terms
    d, m = mom.slots.shape
    n = mom.count.sum()
    alpha = flat[:d]
    a2 = alpha * alpha
    live = mom.slots >= 0
    grad = np.zeros(flat.shape[0])
    grad[:d] = -quad / (delta * alpha ** 3) + n / alpha
    grad[mom.slots[live]] = ((delta * gc - cross) / a2[:, None])[live]
    blk = np.empty((d, m + 1, m + 1))
    blk[:, 0, 0] = 3.0 * quad / (delta * a2 * a2) - n / a2
    blk[:, 0, 1:] = (2.0 / (a2 * alpha))[:, None] * (cross - delta * gc)
    blk[:, 1:, 0] = blk[:, 0, 1:]
    blk[:, 1:, 1:] = (delta / a2)[:, None, None] * gram
    return grad, CurvatureBlocks.from_stack(
        flat.shape[0], np.c_[np.arange(d), mom.slots], blk)


def model_hessian(path: SamplePath, spec: NsdeSpec, g: DirectedGraph,
                  theta: ParamVector) -> np.ndarray:
    """Analytic Hessian of the path's contrast at theta, as a dense matrix: the
    path's information blocks at theta (_derivatives; one per node, over
    its diffusion scale and drift parameters) laid out dense.  theta
    follows the layout of g; a pilot fitted with augmented=True is on
    complete_graph(d)."""
    layout = parameter_layout(spec, g)
    flat = layout.flatten(theta)  # checks the blocks against the layout
    if np.any(theta.alpha <= 0):
        raise DegenerateDiffusionError("diffusion scales must be strictly positive")
    mom = _path_moments(spec, layout, path.data)
    return _derivatives(mom, flat, path.delta,
                        _node_terms(mom, flat, path.delta))[1].dense()


# ---------------------------------------------------------------------------
# per-node generalized least squares


def _solve_grams(gram, rhs, live):
    """Cholesky solve of the Gram systems gram (d, m, m), rhs (d, m) over
    each node's live columns; returns (coefs, conds, jittered).

    Off live[j], the rows, columns and right-hand side are zeroed and the
    diagonal takes node j's first entry, inside its live block's
    spectrum, so conds are the live blocks' condition numbers.  One
    np.linalg.cholesky call factors the stack as G = L L', and
    np.linalg.solve takes L y = b and then L' c = y.  A condition number
    above 1e14 raises SingularGramError.  When the factorization breaks
    down from rounding (np.linalg.LinAlgError), the nodes are factored one
    by one, and each that breaks down is retried with a diagonal jitter of
    1e-10 times its mean live diagonal, flagged and named in one warning.
    """
    d, m = live.shape
    gram = np.where(live[:, :, None] & live[:, None, :], gram, 0.0)
    diag = np.arange(m)
    gram[:, diag, diag] = np.where(live, gram[:, diag, diag], gram[:, :1, 0])
    conds = np.linalg.cond(gram)
    singular = ~(conds <= _COND_LIMIT)  # NaN too
    if singular.any():
        j = int(np.argmax(singular))
        raise SingularGramError(
            f"weighted Gram matrix for node {j} is singular "
            f"(condition number {conds[j]:.3g})", node=j, cond=float(conds[j]))
    jittered = np.zeros(d, dtype=bool)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        chol = np.empty_like(gram)
        for j in range(d):
            try:
                chol[j] = np.linalg.cholesky(gram[j])
            except np.linalg.LinAlgError:
                # near-PSD breakdown from rounding; stabilize and flag
                jittered[j] = True
                jitter = 1e-10 * gram[j, diag, diag][live[j]].mean()
                try:
                    chol[j] = np.linalg.cholesky(gram[j] + jitter * np.eye(m))
                except np.linalg.LinAlgError:
                    raise SingularGramError(
                        f"weighted Gram matrix for node {j} is not positive "
                        f"definite", node=j, cond=float(conds[j])) from None
    if jittered.any():
        listed = ", ".join(f"{j} (condition number {conds[j]:.3g})"
                           for j in np.flatnonzero(jittered))
        warnings.warn(
            f"Cholesky factorization of the weighted Gram matrix failed for "
            f"node(s) {listed}; solved with a diagonal jitter of 1e-10 times "
            f"the mean diagonal", stacklevel=3)
    rhs = np.where(live, rhs, 0.0)[:, :, None]
    coefs = np.linalg.solve(chol.transpose(0, 2, 1), np.linalg.solve(chol, rhs))
    return coefs[:, :, 0], conds, jittered


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
    box, and the result is certified.  On a selected graph this is the fit
    netsde.lasso.two_step_refit reads off the selection's moments.
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
    stage-one scales (DegenerateDiffusionError when joint and a node's Q_j
    is at most 1e-10 times its sum of squared increments).  converged
    holds when the projected gradient over the coordinates the fit
    optimizes (the scales only when joint, the intercepts only when
    fitted) is below 1e-8 (1 + |contrast|).
    """
    n = int(mom.count.sum())
    lo, hi = default_bounds(layout)
    # keep the likelihood away from the degenerate sigma = 0 boundary
    lo[:layout.pi_alpha] = _ALPHA_FLOOR
    # the intercept is column 1 of a design; an unfitted one is marked as
    # padding and stays at zero
    fitted = mom.slots.copy()
    if layout.with_intercepts and not intercepts:
        fitted[:, 1] = -1
    live = fitted >= 0
    width = live.sum(axis=1)
    if joint and n <= width.max():
        # a node that interpolates its increments leaves Q_j at rounding
        # noise, and no scale can be read off it
        j = int(np.argmax(n <= width))
        raise InsufficientDataError(
            f"joint fit of node {j} needs more increments than its "
            f"{width[j]} drift coefficients, got {n}")
    gram = mom.gram.sum(axis=0)
    coefs, conds, jittered = _solve_grams(gram, mom.cross.sum(axis=0) / delta, live)
    flat = np.zeros(layout.pi_total)
    flat[fitted[live]] = coefs[live]
    outside = (live & ((flat < lo) | (flat > hi))[fitted]).any(axis=1)
    if outside.any():
        # netsde.lasso imports this module, so its solver is imported here
        from .lasso import _active_set

        hb = CurvatureBlocks.from_stack(layout.pi_total, fitted[outside],
                                        gram[outside])
        flat = _active_set(hb, flat, np.zeros_like(flat), lo, hi,
                           np.clip(flat, lo, hi))
    scales = slice(0, layout.pi_alpha)
    # the drift coefficients are final, so their terms serve the scales too
    terms = _node_terms(mom, flat, delta)
    if joint:
        quad = terms[3]
        # a drift that fits node j's increments exactly leaves Q_j at
        # rounding noise, below zero even, and no scale can be read off it
        exact = quad <= 1e-10 * mom.sq.sum(axis=0)
        if exact.any():
            raise DegenerateDiffusionError(f"joint fit of node {np.argmax(exact)}: "
                                           "the drift fits its increments exactly")
        alpha = np.clip(np.sqrt(quad / (n * delta)), lo[scales], hi[scales])
    elif alpha is None:
        alpha = fit_diffusion_scale(mom, delta, lo[scales], hi[scales])
    flat[scales] = alpha
    contrast = float(quasi_loglik(mom, flat[None], delta).sum())
    optimized = np.zeros(layout.pi_total, dtype=bool)
    optimized[fitted[live]] = True
    optimized[scales] = joint
    grad, info = _derivatives(mom, flat, delta, terms)
    pg = _projected_grad(grad, flat, lo, hi)
    converged = bool(np.max(np.abs(pg[optimized])) < 1e-8 * (1.0 + abs(contrast)))
    return FitResult(theta_hat=layout.unflatten(flat), contrast_value=contrast,
                     info_blocks=info,
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

