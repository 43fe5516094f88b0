"""Reference evaluators the tests compare the package against.

They compute the same quantities as netsde by the direct route: central
differences, row-by-row contrasts, fits of stored paths, exhaustive
enumeration and a CSV parse that reads every cell with float().  They are
slow on purpose and live here, not in the package, beside the small
helpers (single-state evaluators, config writers) that only tests use.
"""
import itertools
from fractions import Fraction

import numpy as np

from netsde.estimate import (CurvatureBlocks, _path_moments,
                             fit_adaptive_closed_form, fit_diffusion_scale)
from netsde.experiments import _study_spec, _study_truth, study_graph
from netsde.graph import DirectedGraph, build_graph, complete_graph
from netsde.ingest import (DEFAULT_MISSING_MARKERS, EmptyPanelError,
                           PanelData, ParseError)
from netsde.lasso import (adaptive_weights, estimate_adjacency,
                          graph_from_adjacency, lambda_path, psd_project,
                          select_lambda, validation_loss)
from netsde.model import (ConstantDiagonal, LayoutMismatchError, LinearDrift,
                          NsdeSpec, ParamLayout, ParamVector, diffusion_shape,
                          parameter_layout, path_drift_fn)
from netsde.simulate import SamplePath, derive_seeds, simulate_ensemble


def block_curvature(h, members) -> CurvatureBlocks:
    """The blocks of a dense square matrix h over the coordinates of each
    of members, as they are, grouped by size; h's entries outside them are
    dropped."""
    h = np.asarray(h, dtype=float)
    groups = []
    for m in sorted({len(idx) for idx in members}):
        idx = np.stack([idx for idx in members if len(idx) == m])
        groups.append((idx, h[idx[:, :, None], idx[:, None, :]]))
    return CurvatureBlocks(p=h.shape[0], groups=tuple(groups))


def one_block(h) -> CurvatureBlocks:
    """A dense square matrix as one curvature block, as it is: psd_project
    would symmetrize it and clip its eigenvalues."""
    return block_curvature(h, [np.arange(np.shape(h)[0])])


def flat_weights(theta: ParamVector, n_free: int, exponent: float = 1.0) -> np.ndarray:
    """Adaptive weights of a bare parameter vector, with no layout to read:
    0 on its first n_free flat slots and min(|theta_k|^-exponent, 1e12) on
    the rest (1e12 below a magnitude of 1e-12)."""
    mag = np.abs(theta.flat())
    gamma = np.full(mag.shape, 1e12)
    ok = mag >= 1e-12
    gamma[ok] = np.minimum(mag[ok] ** (-exponent), 1e12)
    gamma[:n_free] = 0.0
    return gamma


def numerical_hessian(fn, x: np.ndarray, rel_step: float = 1e-5) -> np.ndarray:
    """Central-difference Hessian with per-coordinate steps rel_step * (1 + |x_k|)."""
    x = np.asarray(x, dtype=float)
    p = x.size
    steps = rel_step * (1.0 + np.abs(x))
    hess = np.empty((p, p))
    f0 = fn(x)
    for k in range(p):
        ek = np.zeros(p)
        ek[k] = steps[k]
        hess[k, k] = (fn(x + ek) - 2.0 * f0 + fn(x - ek)) / steps[k] ** 2
        for m in range(k + 1, p):
            em = np.zeros(p)
            em[m] = steps[m]
            val = (fn(x + ek + em) - fn(x + ek - em)
                   - fn(x - ek + em) + fn(x - ek - em)) / (4.0 * steps[k] * steps[m])
            hess[k, m] = val
            hess[m, k] = val
    return hess


def exact_inverse_diagonal(matrix: np.ndarray) -> np.ndarray:
    """Diagonal of the inverse of a float matrix, by Gauss-Jordan
    elimination in exact rational arithmetic, rounded to float once."""
    n = matrix.shape[0]
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == k)) for k in range(n)]
            for i, row in enumerate(np.asarray(matrix, dtype=float).tolist())]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return np.array([float(rows[i][n + i]) for i in range(n)])


def spec_to_config(spec: NsdeSpec) -> dict:
    """The model block of a config that spec_from_config reads back as spec."""
    if isinstance(spec.drift, LinearDrift):
        drift = {"family": "linear", "with_intercepts": spec.drift.with_intercepts}
    else:
        drift = {"family": "radial_dictionary",
                 "offsets": list(spec.drift.offsets),
                 "exponents": list(spec.drift.exponents)}
    if isinstance(spec.diffusion, ConstantDiagonal):
        diffusion = {"family": "constant_diagonal"}
    else:
        diffusion = {"family": "tanh_clipped", "clip": spec.diffusion.clip}
    return {"d": spec.d, "drift": drift, "diffusion": diffusion}


def params_to_config(theta: ParamVector) -> dict:
    """The params block of a config that params_from_config reads back."""
    return {"alpha": theta.alpha.tolist(), "beta": theta.beta.tolist()}


def network_block(layout: ParamLayout, theta: ParamVector) -> np.ndarray:
    """theta's network coefficients: the drift block after the momenta and
    intercepts."""
    return theta.beta[layout.d * (1 + int(layout.with_intercepts)):]


def diffusion_eval(spec: NsdeSpec, alpha, x) -> np.ndarray:
    """The diagonal diffusion sigma(x) at a single state."""
    return np.asarray(alpha, dtype=float) * diffusion_shape(spec, x)


def pair_index(i: int, j: int, d: int) -> int:
    """Rank of ordered pair (i, j), i != j, among the d * (d - 1) pairs in
    row-major order, by arithmetic instead of the layout's index."""
    if i == j:
        raise LayoutMismatchError("pair weights exclude the diagonal")
    return i * (d - 1) + (j if j < i else j - 1)


def drift_eval(spec: NsdeSpec, g: DirectedGraph, theta: ParamVector, x) -> np.ndarray:
    """Evaluate the drift vector b(x) at a single state.

    Accumulates own terms and per-edge terms one by one, as a check on the
    package's batch evaluator path_drift_fn.  On the complete graph the
    linear family's network block is read by pair_index, not by edge rank.
    """
    layout = parameter_layout(spec, g)
    x = np.asarray(x, dtype=float)
    mu = layout.momentum(theta)
    out = -mu * x
    if layout.with_intercepts:
        out = out + layout.intercepts(theta)
    net = network_block(layout, theta)
    if isinstance(spec.drift, LinearDrift):
        complete = g.n_edges == spec.d * (spec.d - 1)
        for rank, (i, j) in enumerate(g.edges):
            out[i] += net[pair_index(i, j, spec.d) if complete else rank] * x[j]
    else:
        nrm = float(np.linalg.norm(x))
        for lev in range(spec.drift.n_levels):
            scale = (spec.drift.offsets[lev] + nrm) ** (-(spec.drift.exponents[lev] + 1.0))
            for rank, (i, j) in enumerate(g.edges):
                out[i] += net[lev * len(g.edges) + rank] * x[j] * scale
    return out


def diffusion_contrast(path, spec: NsdeSpec, alpha) -> float:
    """Stage-one contrast: increments against a pure-diffusion model."""
    dx = np.diff(path.data, axis=0)
    sig = np.asarray(alpha, dtype=float) * diffusion_shape(spec, path.data[:-1])
    var = sig * sig
    return float(np.sum(dx * dx / (path.delta * var)) + np.sum(np.log(var)))


def drift_contrast(path, spec: NsdeSpec, g: DirectedGraph,
                   theta: ParamVector) -> float:
    """Stage-two contrast: weighted squared drift residuals with sigma frozen."""
    x0 = path.data[:-1]
    r = np.diff(path.data, axis=0) - path.delta * path_drift_fn(spec, g, theta)(x0)
    sig = theta.alpha * diffusion_shape(spec, x0)
    return float(np.sum(r * r / (path.delta * sig * sig)))


def sigma_path(path, spec: NsdeSpec, alpha) -> np.ndarray:
    """sigma evaluated at the left endpoint of every increment, shape (n, d)."""
    return np.asarray(alpha, dtype=float) * diffusion_shape(spec, path.data[:-1])


def node_designs(spec: NsdeSpec, layout, x0_rows: np.ndarray):
    """Per-node regressor matrices: b_j(x) = R_j @ theta_flat[slots_j].

    Returns a list of (R_j, slots_j) with R_j of shape (n, q_j).  The drift
    is linear in its coefficients, so column q of R_j is node j's drift,
    by path_drift_fn, at the unit vector e_{slots_j[q]}.  slots_j lists
    node j's momentum, its intercept if any, then its partners in
    ascending order, level after level.
    """
    g = build_graph(layout.d, layout.edges)
    drifts = {}
    out = []
    for j in range(layout.d):
        partners = np.flatnonzero(layout.coef_slots[0, j] >= 0)
        slots = np.r_[layout.momentum_slot(j), layout.intercept_indices[j:j + 1],
                      layout.coef_slots[:, j, partners].ravel()]
        for slot in slots:
            if slot not in drifts:
                unit = np.zeros(layout.pi_total)
                unit[slot] = 1.0
                drifts[slot] = path_drift_fn(spec, g, layout.unflatten(unit))(x0_rows)
        out.append((np.stack([drifts[slot][:, j] for slot in slots], axis=1),
                    slots))
    return out


def quasi_grad(path, spec: NsdeSpec, g: DirectedGraph, layout,
               flat: np.ndarray) -> np.ndarray:
    """Analytic gradient of contrast_by_rows with respect to the flat vector,
    summed row by row over the node designs."""
    x0 = path.data[:-1]
    theta = layout.unflatten(flat)
    alpha = theta.alpha
    s = diffusion_shape(spec, x0)
    inv_var = 1.0 / (alpha * alpha * s * s)
    r = np.diff(path.data, axis=0) - path.delta * path_drift_fn(spec, g, theta)(x0)
    grad = np.zeros(layout.pi_total)
    quad = np.sum(r * r * inv_var, axis=0)  # per node
    grad[:layout.pi_alpha] = -quad / (path.delta * alpha) + x0.shape[0] / alpha
    for j, (reg, slots) in enumerate(node_designs(spec, layout, x0)):
        grad[slots] += -(reg.T @ (r[:, j] * inv_var[:, j]))
    return grad


def hessian_by_rows(path, spec: NsdeSpec, g: DirectedGraph, layout,
                    flat: np.ndarray) -> np.ndarray:
    """Analytic Hessian of contrast_by_rows with respect to the flat vector,
    as a dense matrix summed row by row over the node designs: one block
    per node over its diffusion scale and drift parameters."""
    x0 = path.data[:-1]
    theta = layout.unflatten(flat)
    alpha = theta.alpha
    s = diffusion_shape(spec, x0)
    inv_var = 1.0 / (alpha * alpha * s * s)
    r = np.diff(path.data, axis=0) - path.delta * path_drift_fn(spec, g, theta)(x0)
    n = x0.shape[0]
    hess = np.zeros((layout.pi_total, layout.pi_total))
    quad = np.sum(r * r * inv_var, axis=0)
    for j, (reg, slots) in enumerate(node_designs(spec, layout, x0)):
        a = j  # the scales lead the flat vector
        hess[a, a] = 3.0 * quad[j] / (path.delta * alpha[j] ** 2) - n / alpha[j] ** 2
        cross = (2.0 / alpha[j]) * (reg.T @ (r[:, j] * inv_var[:, j]))
        hess[a, slots] = cross
        hess[slots, a] = cross
        hess[np.ix_(slots, slots)] += path.delta * ((reg * inv_var[:, j][:, None]).T @ reg)
    return hess


def path_diffusion_fn(spec: NsdeSpec, theta: ParamVector):
    """Return a callable evaluating sigma on arrays of shape (..., d)."""
    alpha = theta.alpha

    def diffusion(x):
        return alpha * diffusion_shape(spec, x)

    return diffusion


def increment_losses(rows: np.ndarray, delta: float, spec, g,
                     theta: ParamVector) -> np.ndarray:
    """Contrast of every increment of rows (n + 1, d), summed over nodes."""
    x0 = rows[:-1]
    dx = np.diff(rows, axis=0)
    drift = path_drift_fn(spec, g, theta)(x0)
    sig = path_diffusion_fn(spec, theta)(x0)
    r = dx - delta * drift
    var = sig * sig
    return np.sum(r * r / (2.0 * delta * var) + 0.5 * np.log(var), axis=1)


def contrast_by_rows(path, spec: NsdeSpec, g: DirectedGraph,
                     theta: ParamVector) -> float:
    """The Euler contrast of a stored path at theta, summed increment by
    increment: quasi_loglik's value over the path's moments by the direct
    route."""
    return float(increment_losses(path.data, path.delta, spec, g, theta).sum())


def stage_one_scales(path, spec: NsdeSpec, lo=0.0, hi=1e3) -> np.ndarray:
    """fit_diffusion_scale of a stored path: the stage-one scales read off
    its moments on the empty graph, clipped to [lo, hi]."""
    layout = parameter_layout(spec, build_graph(spec.d, ()))
    return fit_diffusion_scale(_path_moments(spec, layout, path.data),
                               path.delta, lo, hi)


def holdout_loss(path, spec: NsdeSpec, g: DirectedGraph, flats,
                 fraction: float = 0.3):
    """validation_loss of the candidates flats (K, p) of g's layout on a
    stored path's trailing fraction of increments, cut into 10 contiguous
    sub-blocks (fewer for a shorter tail): the tail's rows folded on their
    own, where select_graph folds the whole path once."""
    n = path.n
    n_tail = max(1, int(np.floor(n * fraction)))
    sizes = [len(b) for b in np.array_split(np.arange(n_tail), min(10, n_tail))]
    mom = _path_moments(spec, parameter_layout(spec, g), path.data[n - n_tail:],
                        sizes)
    return validation_loss(mom, flats, path.delta)


def validation_loss_by_rows(path, spec, g, thetas, fraction=0.3):
    """holdout_loss evaluated increment by increment for each candidate:
    the trailing fraction of the increments, standard errors over 10
    contiguous sub-blocks."""
    n = path.n
    n_tail = max(1, int(np.floor(n * fraction)))
    rows = path.data[n - n_tail:]
    blocks = np.array_split(np.arange(n_tail), min(10, n_tail))
    losses, ses = [], []
    for theta in thetas:
        per_inc = increment_losses(rows, path.delta, spec, g, theta)
        means = [per_inc[b].mean() for b in blocks]
        losses.append(per_inc.mean())
        ses.append(np.std(means, ddof=1) / np.sqrt(len(blocks))
                   if len(blocks) > 1 else 0.0)
    return np.array(losses), np.array(ses)


def exact_box_lasso(h, center, lam, gamma, lo, hi):
    """Minimizer of (x-c)'H(x-c)/2 + lam sum gamma_k |x_k| over the box, by
    enumeration for small p.

    Every coordinate is at lo, at hi, at zero, or free with a sign; on the
    free set stationarity is a linear system.  The true minimizer is one of
    these candidates, so the feasible, sign-consistent candidate with the
    lowest objective is it.  Candidates sharing a free set share one solve.
    """
    p = center.shape[0]
    levels = np.stack([lo, hi, np.zeros(p)])
    found = []
    for mask in itertools.product([False, True], repeat=p):
        free = np.array(mask)
        fixed = ~free
        at = list(itertools.product(*(levels[:, k] for k in np.flatnonzero(fixed))))
        at = np.array(at, dtype=float).reshape(len(at), int(fixed.sum()))
        signs = list(itertools.product([1.0, -1.0], repeat=int(free.sum())))
        signs = np.array(signs).reshape(len(signs), int(free.sum()))
        x = np.zeros((at.shape[0], signs.shape[0], p))
        x[:, :, fixed] = at[:, None, :]
        rhs = ((at - center[fixed]) @ h[np.ix_(free, fixed)].T)[:, None, :] \
            + lam * gamma[free] * signs[None, :, :]
        x[:, :, free] = center[free] - np.linalg.solve(
            h[np.ix_(free, free)], rhs[..., None])[..., 0]
        consistent = np.all(signs[None, :, :] * x[:, :, free] > 0.0, axis=-1)
        x = x[consistent]
        found.append(x[np.all((x >= lo) & (x <= hi), axis=-1)])
    cand = np.concatenate(found)
    dev = cand - center
    f = 0.5 * np.einsum("ci,ij,cj->c", dev, h, dev) + lam * np.abs(cand) @ gamma
    return cand[np.argmin(f)]


def error_bound_by_paths(config: dict) -> list[tuple[float, float]]:
    """(mean_error, sd_error) per horizon of an error-bound config, from
    stored ensemble paths and one path-based closed-form fit per
    replication: the study's numbers by the direct route."""
    g, _info = study_graph(config["graph"])
    spec = _study_spec(config, g.d)
    theta, layout, _margin = _study_truth(config, spec, g)
    delta = float(config.get("delta", 0.01))
    horizons = [float(t) for t in config["horizons"]]
    n_reps = int(config.get("n_reps", 100))
    seeds = derive_seeds(int(config.get("seed", 0)), n_reps * len(horizons))
    out = []
    for cell, horizon in enumerate(horizons):
        paths = simulate_ensemble(
            spec, g, theta, np.asarray(config.get("x0", np.zeros(g.d)), dtype=float),
            delta, int(round(horizon / delta)),
            seeds=seeds[cell * n_reps:(cell + 1) * n_reps],
            substeps=int(config.get("substeps", 10)),
            burn_in_steps=int(config.get("burn_in", 0)))
        err2 = np.array([
            np.sum((layout.flatten(fit_adaptive_closed_form(p, spec, g).theta_hat)
                    - layout.flatten(theta)) ** 2) for p in paths])
        out.append((float(err2.mean() / layout.pi_total),
                    float(err2.std(ddof=1) / layout.pi_total)))
    return out


def select_by_paths(path, spec: NsdeSpec, penalty: dict):
    """(a_hat, selected_lambda, lambda_max) of the selection pipeline by
    two separate fits of a stored path: the complete-graph pilot fitted on
    the leading 1 - holdout share of it (all of it for fixed_fraction)
    and the candidates scored by holdout_loss on the trailing share."""
    g_full = complete_graph(spec.d)
    rule = penalty.get("rule", "half_se")
    head = path
    if rule != "fixed_fraction":
        holdout = penalty.get("holdout", 0.3)
        n_tail = max(1, int(np.floor(path.n * holdout)))
        head = SamplePath(delta=path.delta, data=path.data[:path.n - n_tail + 1])
    pilot = fit_adaptive_closed_form(head, spec, g_full, augmented=True)
    h = psd_project(pilot.info_blocks)
    gamma = adaptive_weights(pilot, penalty.get("weight_exponent", 1.0))
    if rule == "fixed_fraction":
        lpath = lambda_path(h, pilot.theta_hat, gamma,
                            fractions=[penalty["fraction"]])
        pick = 0
    else:
        lpath = lambda_path(h, pilot.theta_hat, gamma,
                            n_points=penalty.get("n_points", 50),
                            min_fraction=penalty.get("min_fraction", 1e-3))
        lpath.validation_loss, lpath.validation_se = holdout_loss(
            path, spec, g_full, lpath.coefficients, fraction=holdout)
        pick = select_lambda(lpath, rule=rule)
    return (estimate_adjacency(pilot.layout, lpath.coefficients[pick]),
            float(lpath.lambdas[pick]), lpath.lambda_max)


def recovery_by_paths(config: dict) -> list[dict]:
    """Per seed of a recovery config, from stored ensemble paths:
    select_by_paths' adjacency and penalty levels, the reverse links
    (k, k + 1) selected at chain positions k that carry no double link
    (polymer graphs; the double links read off the graph config, every
    third position by default) and the refit (when the config refits),
    the two-stage fit of the stored path on the selected graph: the
    study's route before it folded its paths."""
    graph_cfg = config["graph"]
    g, _info = study_graph(graph_cfg)
    spec = _study_spec(config, g.d)
    theta, _layout, _margin = _study_truth(config, spec, g)
    delta = float(config.get("delta", 0.01))
    seeds = derive_seeds(int(config.get("seed", 0)),
                         int(config.get("n_seeds", 50)))
    paths = simulate_ensemble(
        spec, g, theta, np.asarray(config.get("x0", np.zeros(g.d)), dtype=float),
        delta, int(round(float(config.get("horizon", 200.0)) / delta)),
        seeds=seeds, substeps=int(config.get("substeps", 10)),
        burn_in_steps=int(config.get("burn_in", 0)))
    penalty = config.get("penalty", {"rule": "half_se"})
    out = []
    for path in paths:
        a_hat, lam, lam_max = select_by_paths(path, spec, penalty)
        row = {"seed": path.seed, "a_hat": a_hat, "selected_lambda": lam,
               "lambda_max": lam_max, "refit": None}
        if graph_cfg.get("kind") == "polymer":
            positions = graph_cfg.get("double_link_positions")
            doubles = set(range(0, g.d - 1, 3) if positions is None else positions)
            row["false_reverse_links"] = sum(
                1 for k in range(g.d - 1) if a_hat[k, k + 1] == 1 and k not in doubles)
        if config.get("refit", True):
            row["refit"] = fit_adaptive_closed_form(path, spec,
                                                    graph_from_adjacency(a_hat))
        out.append(row)
    return out


def parse_by_rows(text: str, missing_markers=DEFAULT_MISSING_MARKERS) -> PanelData:
    """parse_panel_csv in one process, row by row: each row is read with
    float() alone, and a row that fails (or every row, where a marker
    reads as a number) is stripped and read cell by cell, a marker as
    NaN.  Raises the same ParseError, message and line, for the first bad
    line."""
    markers = frozenset(missing_markers)

    def reads_as_number(marker):
        try:
            return float(marker) == float(marker)
        except ValueError:
            return False

    strip_all = any(reads_as_number(m) for m in markers)
    lines = text.splitlines()
    header_line = next((lineno for lineno, ln in enumerate(lines, start=1)
                        if ln.strip() != ""), None)
    if header_line is None:
        raise EmptyPanelError("no content")
    header = [cell.strip() for cell in lines[header_line - 1].split(",")]
    if len(header) < 2:
        raise ParseError("header needs a timestamp column and at least one series",
                         line=header_line)
    names, n_cols = tuple(header[1:]), len(header)

    def stripped_row(cells, lineno):
        cells = [cell.strip() for cell in cells]
        try:
            row = [float(cells[0])]
        except ValueError:
            raise ParseError(f"timestamp {cells[0]!r} is not numeric",
                             line=lineno) from None
        for name, cell in zip(names, cells[1:]):
            try:
                row.append(float("nan") if cell in markers else float(cell))
            except ValueError:
                raise ParseError(f"value {cell!r} in column {name!r} is not "
                                 "numeric", line=lineno) from None
        return row

    rows = []
    for lineno, ln in enumerate(lines[header_line:], start=header_line + 1):
        if ln.strip() == "":
            continue
        cells = ln.split(",")
        if len(cells) != n_cols:
            raise ParseError(f"row has {len(cells)} fields, expected {n_cols} "
                             "columns", line=lineno)
        if strip_all:
            rows.append(stripped_row(cells, lineno))
            continue
        try:
            rows.append(list(map(float, cells)))
        except ValueError:
            rows.append(stripped_row(cells, lineno))
    if not rows:
        raise EmptyPanelError("panel has a header but no data rows")
    table = np.array(rows, dtype=float)
    return PanelData(timestamps=table[:, 0].copy(), series_names=names,
                     values=np.ascontiguousarray(table[:, 1:]),
                     timestamp_label=header[0])
