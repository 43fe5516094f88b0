"""Simulation studies: estimation error against horizon, and graph recovery.

Two study drivers share a config-dict interface.  error_bound_study
simulates ensembles on a known graph over several horizons and tracks the
squared estimation error against the bound K * epsilon, where K is the
parameter count over the graph size and epsilon the graph size over the
observation horizon.  recovery_study runs the full selection pipeline
(dense pilot, adaptive L1 path, penalty choice, refit) and scores the
estimated graph against the truth: exact recovery and precision/recall
everywhere, reverse-link false positives on chains, community agreement on
block models.  Both fold the simulator's rows into every replication's
moments (_ensemble_moments), store no path and read each fit off them;
a recovery seed's refit is two_step_refit on its complete-graph moments,
as the refit of `netsde lasso` is.  Both read every setting through
model.setting before the simulation starts; the settings a command
shares with a study (graph, simulator, penalty and refit) have one
reader each here.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .estimate import (FitResult, InsufficientDataError, NodeMoments,
                       _closed_form_fit, _MomentFold, _path_moments)
from .graph import (DirectedGraph, block_labels, build_graph, complete_graph,
                    erdos_renyi, ergodicity_margin, polymer, sbm)
from .lasso import (LassoPath, adaptive_weights, estimate_adjacency,
                    lambda_path, psd_project, select_lambda, two_step_refit,
                    validation_loss)
from .model import (REQUIRED, ConfigFieldError, ConstantDiagonal, LinearDrift,
                    NsdeSpec, ParamLayout, ParamVector, TanhClipped,
                    parameter_layout, setting)
from .simulate import SamplePath, _check_args, _euler, derive_seeds


class StudyError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# reference graph


# 22-edge network on 10 nodes used by the stock recovery configs: largest
# singular value of twice its adjacency matrix is 5.2602, so mean reversion
# 7 leaves a comfortable stability margin.
_REFERENCE_ER_EDGES = (
    (0, 1), (0, 2), (0, 6), (0, 8),
    (1, 0),
    (2, 0), (2, 3), (2, 8),
    (3, 2), (3, 5), (3, 9),
    (4, 5),
    (5, 3), (5, 4), (5, 9),
    (6, 0),
    (7, 9),
    (8, 0), (8, 2),
    (9, 3), (9, 5), (9, 7),
)


def reference_er_graph() -> DirectedGraph:
    """Fixed 10-node, 22-edge random graph shipped with the recovery configs."""
    return build_graph(10, _REFERENCE_ER_EDGES)


_ER_MAX_TRIES = 10000


def find_er_graph_with_edges(d: int, n_edges: int, seed: int = 12345,
                             mean_reversion: float = 7.0, coupling: float = 2.0,
                             min_margin: float = 0.1):
    """First random graph with exactly n_edges edges and a stable linear part.

    Seeds are tried in sequence from `seed`, at most _ER_MAX_TRIES of them;
    each draws n_edges ordered pairs without replacement.  Returns (graph,
    used_seed, margin) for the first draw whose singular-value margin at
    the given coefficients exceeds min_margin.
    """
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    if n_edges > len(pairs):
        raise StudyError(f"{n_edges} edges do not fit in {d} nodes")
    mu = np.full(d, mean_reversion)
    for s in range(seed, seed + _ER_MAX_TRIES):
        rng = np.random.default_rng(s)
        idx = rng.choice(len(pairs), size=n_edges, replace=False)
        edges = [pairs[k] for k in sorted(idx)]
        a = np.zeros((d, d))
        for i, j in edges:
            a[i, j] = 1.0
        margin = ergodicity_margin(mu, coupling * a, mode="singular")
        if margin > min_margin:
            return build_graph(d, edges), s, margin
    raise StudyError(
        f"no stable {n_edges}-edge graph found in {_ER_MAX_TRIES} tries "
        f"from seed {seed}")


# ---------------------------------------------------------------------------
# reports


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.generic):  # numpy bools, integers and floats
        return obj.item()
    return obj


def _finite_or_null(obj):
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


@dataclass
class StudyReport:
    """Rows (one dict per study cell or replication) plus a summary block."""

    study: str
    config: dict
    rows: list[dict]
    summary: dict
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return _jsonable({"study": self.study, "config": self.config,
                          "rows": self.rows, "summary": self.summary,
                          "notes": self.notes})

    def to_json(self) -> str:
        """Strict JSON (RFC 8259): non-finite floats are written as null."""
        return json.dumps(_finite_or_null(self.to_dict()), indent=2,
                          allow_nan=False)

    def rows_csv(self) -> str:
        keys = list(dict.fromkeys(k for row in self.rows for k in row))
        lines = [",".join(keys)]
        for row in self.rows:
            cells = []
            for k in keys:
                v = _jsonable(row.get(k, ""))
                if isinstance(v, float):
                    cells.append(repr(v))
                elif isinstance(v, (list, dict)):
                    cells.append(json.dumps(v).replace(",", ";"))
                else:
                    cells.append(str(v))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config plumbing shared by the studies


def study_graph(cfg: dict, at: str = ""):
    """The graph of the block at `at` in cfg ("graph.", or "" for cfg
    itself; see model.setting) and its info.  What an er_fixed_edges block
    leaves out takes the defaults of find_er_graph_with_edges."""
    kind = setting(cfg, at + "kind", str, allowed=(
        "er_reference", "er_fixed_edges", "erdos_renyi", "polymer", "sbm", "edges"))
    if kind == "er_reference":
        return reference_er_graph(), {"kind": kind}
    if kind == "er_fixed_edges":
        given = {key: setting(cfg, at + key, type_, None) for key, type_ in (
            ("seed", int), ("mean_reversion", float), ("coupling", float),
            ("min_margin", float))}
        g, used, margin = find_er_graph_with_edges(
            setting(cfg, at + "d", int), setting(cfg, at + "n_edges", int),
            **{key: value for key, value in given.items() if value is not None})
        return g, {"kind": kind, "graph_seed": used, "margin": margin}
    if kind in ("erdos_renyi", "sbm"):
        seed = setting(cfg, at + "seed", int, 0)
        if kind == "erdos_renyi":
            return erdos_renyi(setting(cfg, at + "d", int),
                               setting(cfg, at + "p", float), seed), {"kind": kind}
        sizes = setting(cfg, at + "block_sizes", [int])
        g = sbm(sizes, setting(cfg, at + "p_in", float),
                setting(cfg, at + "p_ex", float), seed)
        return g, {"kind": kind, "block_sizes": sizes}
    if kind == "polymer":
        return polymer(setting(cfg, at + "d", int), setting(
            cfg, at + "double_link_positions", [int], None)), {"kind": kind}
    return build_graph(setting(cfg, at + "d", int), setting(
        cfg, at + "edges", [[int]], check=(lambda edges: all(
            len(e) == 2 for e in edges), "hold [child, parent] pairs"))), {"kind": kind}


def _study_spec(config: dict, d: int) -> NsdeSpec:
    family = setting(config, "diffusion", str, "tanh_clipped",
                     allowed=("tanh_clipped", "constant"))
    diffusion = ConstantDiagonal() if family == "constant" else TanhClipped(
        clip=setting(config, "clip", float, TanhClipped.clip))
    return NsdeSpec(d=d, drift=LinearDrift(), diffusion=diffusion)


def _node_setting(config: dict, path: str, default: float, d: int) -> np.ndarray:
    """The setting at path, a number for every node or a list of d."""
    return np.full(d, setting(config, path, (float, [float]), default, (
        lambda v: not isinstance(v, list) or len(v) == d, f"have {d} entries")))


def _study_truth(config: dict, spec: NsdeSpec, g: DirectedGraph):
    """True parameter vector and stability margin for a study config."""
    d = spec.d
    mu = _node_setting(config, "mean_reversion", 7.0, d)
    alpha = _node_setting(config, "noise_scale", 2.0, d)
    coupling = setting(config, "coupling", float, 2.0)
    layout = parameter_layout(spec, g)
    theta = layout.pack(alpha=alpha, momentum=mu,
                        network=np.full(g.n_edges, coupling))
    margin = ergodicity_margin(mu, coupling * g.adjacency(), mode="singular")
    if margin <= 0:
        raise StudyError(
            f"config is not ergodic: stability margin {margin:.3f} at "
            f"coupling {coupling}")
    return theta, layout, margin


_STUDY_DELTA = 0.01  # both studies' default observation step
# the check of an observation step or horizon (NaN fails both comparisons)
_POSITIVE = (lambda v: 0.0 < v < math.inf, "be positive and finite")


def _simulation_settings(config: dict, d: int) -> dict:
    """x0, substeps, seed and burn_in of a config that simulates, as
    simulate_path's keywords."""
    return {"x0": setting(config, "x0", [float], np.zeros(d),
                          (lambda v: len(v) == d, f"have {d} entries")),
            "substeps": setting(config, "substeps", int, 10,
                                (lambda v: v >= 1, "be at least 1")),
            "seed": setting(config, "seed", int, 0),
            "burn_in_steps": setting(config, "burn_in", int, 0,
                                     (lambda v: v >= 0, "be non-negative"))}


_FOLD_BYTES = 200_000_000  # a seed block's fold totals: 25M float64 values


def _ensemble_moments(spec: NsdeSpec, g: DirectedGraph, theta, sim: dict,
                      n: int, delta: float, seeds: list[int],
                      layout: ParamLayout, sizes=None):
    """Fold the paths of the seeds (n increments of delta on g at theta,
    from sim, see _simulation_settings) into NodeMoments on layout, cut by
    sizes (see _MomentFold), in seed blocks whose running totals stay
    under _FOLD_BYTES.  Yields each block's seeds and moments."""
    substeps, burn_in = sim["substeps"], sim["burn_in_steps"]
    x0 = _check_args(spec, g, sim["x0"], delta, n, substeps, burn_in)
    if n < 1:
        raise InsufficientDataError(f"no increment to fold at n = {n}")
    start = 0
    while start < len(seeds):
        fold = _MomentFold(spec, layout, sizes,
                           factor=getattr(spec.diffusion, "clip", 1.0))
        block = seeds[start:start + max(1, _FOLD_BYTES // fold.rep_bytes())]
        _euler(spec, g, theta, x0, delta, n, substeps, burn_in, seeds=block,
               dW=None, ensemble=True, consume=fold)
        yield block, fold.moments()
        start += len(block)


# ---------------------------------------------------------------------------
# error bound study


def error_bound_study(config: dict) -> StudyReport:
    """Squared estimation error of the two-stage fit against the horizon.

    For each horizon T the study simulates n_reps independent paths on the
    known graph, fits diffusion scales and drift coefficients in closed
    form, and records the squared parameter error, both raw and per
    parameter, n_converged, the number of replication fits whose
    certificate passed, and mean_error_se = sd_error / sqrt(n_reps), the
    Monte Carlo standard error of mean_error (null in to_json for a single
    replication).  Each cell is compared with the bound K * epsilon where
    K = pi / |E| and epsilon = |E| / (n * delta), so bound = pi / T.

    No path is stored: each fit is read off its replication's moments on
    the known graph (_ensemble_moments).  The numbers are those of
    simulate_ensemble plus fit_adaptive_closed_form on each path, whose
    moments come from the same fold fed the whole path at once, up to
    where the pieces of the sums are cut, and an explosion raises the
    same ExplosionError.
    """
    g, graph_info = study_graph(config, "graph.")
    spec = _study_spec(config, g.d)
    theta_true, layout, margin = _study_truth(config, spec, g)
    flat_true = layout.flatten(theta_true)

    sim = _simulation_settings(config, g.d)
    delta = setting(config, "delta", float, _STUDY_DELTA, _POSITIVE)
    horizons = setting(config, "horizons", [float], check=(
        lambda v: len(v) > 0 and all(_POSITIVE[0](t) for t in v),
        "be a non-empty list of positive finite numbers"))
    n_reps = setting(config, "n_reps", int, 100, (lambda v: v >= 1, "be positive"))
    ref_means = setting(config, "reference.mean_error", [float], None)
    ref_bounds = setting(config, "reference.bound", [float], None)
    band = setting(config, "reference.band", float, 0.5)

    # Table normalization: K counts parameters per edge and epsilon counts
    # edges per unit of observation time, so bound = K * epsilon = pi / T.
    k_ratio = layout.pi_total / g.n_edges if g.n_edges else float("inf")

    all_seeds = derive_seeds(sim["seed"], n_reps * len(horizons))
    rows = []
    for cell, horizon in enumerate(horizons):
        n = int(round(horizon / delta))
        fits = [_closed_form_fit(moments.chunk(r), layout, delta, intercepts=False)
                for block, moments in _ensemble_moments(
                    spec, g, theta_true, sim, n, delta,
                    all_seeds[cell * n_reps:(cell + 1) * n_reps], layout)
                for r in range(len(block))]
        err2 = np.array([float(diff @ diff) for diff in (
            layout.flatten(fit.theta_hat) - flat_true for fit in fits)])
        n_converged = sum(fit.converged for fit in fits)
        eps = g.n_edges / (n * delta)
        bound = k_ratio * eps
        mean_error = float(err2.mean() / layout.pi_total)
        # one replication has no spread to estimate
        raw_sd = float(err2.std(ddof=1)) if n_reps > 1 else float("nan")
        sd_error = raw_sd / layout.pi_total
        row = {
            "d": g.d,
            "n_edges": g.n_edges,
            "pi": layout.pi_total,
            "horizon": horizon,
            "K": k_ratio,
            "epsilon": eps,
            "bound": bound,
            "mean_error": mean_error,
            "sd_error": sd_error,
            # Monte Carlo standard error of mean_error (NaN, so null in
            # to_json, for one replication)
            "mean_error_se": sd_error / math.sqrt(n_reps),
            "raw_mean": float(err2.mean()),
            "raw_sd": raw_sd,
            "n": n,
            "n_reps": n_reps,
            "n_converged": n_converged,
            "below_bound": bool(mean_error <= bound),
        }
        if ref_means is not None and cell < len(ref_means):
            ref = ref_means[cell]
            row["reference_mean_error"] = ref
            row["within_reference_band"] = bool(
                (1.0 - band) * ref <= mean_error <= (1.0 + band) * ref)
        if ref_bounds is not None and cell < len(ref_bounds):
            ref_b = ref_bounds[cell]
            row["reference_bound"] = ref_b
            # reported bounds that disagree with K * epsilon get flagged
            row["bound_matches_reference"] = bool(
                abs(bound - ref_b) <= 0.05 * max(bound, ref_b))
        rows.append(row)

    means = np.array([row["mean_error"] for row in rows])
    slope = float(np.polyfit(np.log(horizons), np.log(means), 1)[0]) \
        if len(horizons) > 1 else float("nan")
    summary = {
        "pi_total": layout.pi_total,
        "graph_size": g.size,
        "K": k_ratio,
        "stability_margin": margin,
        "slope_log_error_vs_log_horizon": slope,
        "all_below_bound": bool(all(row["below_bound"] for row in rows)),
        "graph": graph_info,
    }
    if ref_means is not None:
        summary["all_within_reference_band"] = bool(
            all(row.get("within_reference_band", False)
                for row in rows[:len(ref_means)]))
    notes = [f"horizon {row['horizon']}: reported reference bound "
             f"{row['reference_bound']} disagrees with K * epsilon = "
             f"{row['bound']:.4g}"
             for row in rows if row.get("bound_matches_reference") is False]
    return StudyReport(study="error_bound", config=config, rows=rows,
                       summary=summary, notes=notes)


# ---------------------------------------------------------------------------
# recovery pipeline


# each numeric penalty setting's kind, default and (check, requirement)
_PENALTY_SETTINGS = {
    "weight_exponent": (float, 1.0, (lambda v: v >= 0.0, "be non-negative")),
    "fraction": (float, REQUIRED, (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")),
    "holdout": (float, 0.3, (lambda v: 0.0 < v < 1.0, "lie in (0, 1)")),
    "n_points": (int, 50, (lambda v: v >= 1, "be at least 1")),
    "min_fraction": (float, 1e-3, (lambda v: 0.0 < v < 1.0, "lie in (0, 1)")),
}


def _penalty(cfg: dict, at: str = "") -> dict:
    """The rule and the settings it reads of the penalty block at `at` in
    cfg ("penalty.", or ""), checked: ConfigFieldError names an unknown
    key, or a setting the rule reads that is missing or not valid."""
    block = setting(cfg, at[:-1], dict, {}) if at else cfg
    unknown = [at + key for key in sorted(
        set(block) - set(_PENALTY_SETTINGS) - {"rule", "penalize_momentum"})]
    if unknown:
        raise ConfigFieldError(unknown[0], "unknown setting" + "".join(
            f"; so is {path!r}" for path in unknown[1:]))
    pen = {"rule": setting(cfg, at + "rule", str, "half_se",
                           allowed=("min", "half_se", "fixed_fraction")),
           "penalize_momentum": setting(cfg, at + "penalize_momentum", bool, False)}
    reads = ["fraction"] if pen["rule"] == "fixed_fraction" else [
        "holdout", "n_points", "min_fraction"]
    for key in ["weight_exponent", *reads]:
        pen[key] = setting(cfg, at + key, *_PENALTY_SETTINGS[key])
    return pen


def _selection_settings(config: dict):
    """The checked penalty block (_penalty) and the refit switch of a
    config that selects a graph: a recovery study's or `netsde lasso`'s."""
    return _penalty(config, "penalty."), setting(config, "refit", bool, True)


def _chunk_sizes(pen: dict, n: int) -> list[int]:
    """The chunks select_graph cuts n increments into: the pilot's head,
    then the trailing holdout share (at least one increment) in 10
    contiguous sub-blocks (fewer for a shorter tail), or one chunk for
    fixed_fraction; StudyError when the holdout leaves the head empty."""
    if pen["rule"] == "fixed_fraction":
        return [n]
    n_tail = max(1, int(np.floor(n * pen["holdout"])))
    if n_tail >= n:
        raise StudyError("holdout leaves no data for the pilot")
    # the sub-blocks give each candidate's standard error
    return [n - n_tail, *(len(b) for b in np.array_split(
        np.arange(n_tail), min(10, n_tail)))]


def select_graph(path: SamplePath, spec: NsdeSpec, penalty_cfg: dict):
    """Dense pilot, adaptive L1 path, penalty choice and adjacency estimate.

    Rules needing a validation curve fit the pilot on the leading 1 - holdout
    share of the increments and score candidates on the trailing share; the
    fixed_fraction rule uses the whole path for the pilot and solves the
    one penalty fraction * lambda_max.  The penalty settings are checked
    first (_penalty), then the path is folded once on the complete graph,
    cut as _chunk_sizes says, and _select reads the rest off its moments.
    The path's adjacency (K, d, d) holds the estimate at every grid point.
    Returns (a_hat, selected_lambda, lasso_path, pilot_fit, moments):
    moments are the path's NodeMoments on the pilot's layout, which
    two_step_refit reads the refit off.
    """
    pen = _penalty(penalty_cfg)
    layout = parameter_layout(spec, complete_graph(spec.d), augmented=True)
    mom = _path_moments(spec, layout, path.data, _chunk_sizes(pen, path.n))
    return (*_select(mom, layout, path.delta, pen), mom)


def _select(mom: NodeMoments, layout: ParamLayout, delta: float, pen: dict):
    """select_graph read off a path's moments on the complete-graph
    layout, cut by _chunk_sizes: the pilot is the fit of chunk 0, and the
    validation curve scores each candidate on the other chunks."""
    pilot = _closed_form_fit(mom.chunk(0), layout, delta, layout.with_intercepts)
    h = psd_project(pilot.info_blocks)
    gamma = adaptive_weights(pilot, pen["weight_exponent"],
                             penalize_momentum=pen["penalize_momentum"])
    if pen["rule"] == "fixed_fraction":
        lpath = lambda_path(h, pilot.theta_hat, gamma, fractions=[pen["fraction"]])
        pick = 0
    else:
        lpath = lambda_path(h, pilot.theta_hat, gamma,
                            n_points=pen["n_points"],
                            min_fraction=pen["min_fraction"])
        lpath.validation_loss, lpath.validation_se = validation_loss(
            mom.chunk(slice(1, None)), lpath.coefficients, delta)
        pick = select_lambda(lpath, rule=pen["rule"])
        loss, se = lpath.validation_loss, lpath.validation_se
        best = int(np.argmin(loss))
        if pick == 0 and best > 0:
            lpath.notes.append(
                f"half_se selected lambda_max, the empty graph: its held-out loss "
                f"{loss[0]:.6g} is within half a standard error ({se[best]:.3g}) "
                f"of the minimum {loss[best]:.6g} at lam={lpath.lambdas[best]:.6g}")
    lpath.adjacency = estimate_adjacency(layout, lpath.coefficients)
    return lpath.adjacency[pick], float(lpath.lambdas[pick]), lpath, pilot


def _edge_scores(a_true: np.ndarray, a_hat: np.ndarray) -> dict:
    tp = int(np.sum((a_true == 1) & (a_hat == 1)))
    fp = int(np.sum((a_true == 0) & (a_hat == 1)))
    fn = int(np.sum((a_true == 1) & (a_hat == 0)))
    precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 1.0
    return {
        "exact": bool(np.array_equal(a_true, a_hat)),
        "n_selected": int(a_hat.sum()),
        "n_extra": fp,
        "n_missing": fn,
        "precision": float(precision),
        "recall": float(recall),
    }


def _refit_scores(refit: FitResult, truth: ParamLayout, theta_true: ParamVector,
                  a_hat: np.ndarray) -> dict:
    """Errors of a refit against theta_true, laid out by truth (the true
    graph's layout); the edges scored are the true ones selected."""
    layout = refit.layout
    flat = layout.flatten(refit.theta_hat)
    flat_true = truth.flatten(theta_true)
    alpha_err = float(np.max(np.abs(refit.theta_hat.alpha - theta_true.alpha)))
    mu_err = float(np.max(np.abs(layout.momentum(refit.theta_hat)
                                 - truth.momentum(theta_true))))
    edge_errs = [abs(flat[layout.edge_slot(i, j)] - flat_true[truth.edge_slot(i, j)])
                 for (i, j) in truth.edges if a_hat[i, j] == 1]
    return {
        "refit_alpha_max_abs_err": alpha_err,
        "refit_momentum_max_abs_err": mu_err,
        "refit_edge_mean_abs_err":
            float(np.mean(edge_errs)) if edge_errs else float("nan"),
        "refit_n_true_edges_scored": len(edge_errs),
    }


def recovery_study(config: dict) -> StudyReport:
    """Graph recovery rates of the selection pipeline over simulated paths.

    Each seed simulates one path on the true graph, runs select_graph, and
    scores the estimated adjacency.  Chain configs additionally count
    reverse links estimated where the chain has none; block-model configs
    cluster the estimated graph and score the community labels against the
    planted blocks.  Every setting is checked before the simulation
    starts.  No path is stored: each seed's moments on the complete graph,
    cut as select_graph cuts a path, give its selection (_select) and its
    refit (two_step_refit).
    """
    g_true, graph_info = study_graph(config, "graph.")
    spec = _study_spec(config, g_true.d)
    theta_true, layout, margin = _study_truth(config, spec, g_true)
    a_true = g_true.adjacency().astype(int)
    kind = graph_info["kind"]

    sim = _simulation_settings(config, g_true.d)
    delta = setting(config, "delta", float, _STUDY_DELTA, _POSITIVE)
    horizon = setting(config, "horizon", float, 200.0, _POSITIVE)
    n = int(round(horizon / delta))
    n_seeds = setting(config, "n_seeds", int, 50, (lambda v: v >= 1, "be positive"))
    pen, do_refit = _selection_settings(config)
    sizes = _chunk_sizes(pen, n)
    agreement_threshold = setting(config, "agreement_threshold", float, 0.9)
    labels_true = block_labels(graph_info["block_sizes"]) if kind == "sbm" else None

    full = parameter_layout(spec, complete_graph(g_true.d), augmented=True)
    rows: list[dict] = []
    for block, moments in _ensemble_moments(
            spec, g_true, theta_true, sim, n, delta,
            derive_seeds(sim["seed"], n_seeds), full, sizes):
        for r, seed in enumerate(block):
            mom = moments.chunk(slice(r * len(sizes), (r + 1) * len(sizes)))
            a_hat, lam, lpath, _pilot = _select(mom, full, delta, pen)
            row = {"seed": seed, "lambda_max": lpath.lambda_max,
                   "selected_lambda": lam}
            row.update(_edge_scores(a_true, a_hat))
            if kind == "polymer":  # links (k, k + 1) the chain lacks
                row["false_reverse_links"] = int(np.sum(
                    np.diagonal(a_hat, 1) > np.diagonal(a_true, 1)))
            if labels_true is not None:
                labels_hat = detect_communities(a_hat)
                row["n_communities"] = int(labels_hat.max() + 1)
                row["agreement"] = label_agreement(labels_true, labels_hat)
            if do_refit:
                refit = two_step_refit(spec, a_hat, mom, full, delta)
                row.update(_refit_scores(refit, layout, theta_true, a_hat))
            rows.append(row)

    summary = {
        "n_seeds": n_seeds,
        "horizon": horizon,
        "stability_margin": margin,
        "n_true_edges": g_true.n_edges,
        "recovery_rate": float(np.mean([row["exact"] for row in rows])),
        "mean_precision": float(np.mean([row["precision"] for row in rows])),
        "mean_recall": float(np.mean([row["recall"] for row in rows])),
        "graph": graph_info,
    }
    if kind == "polymer":
        summary["no_false_reverse_rate"] = float(np.mean(
            [row["false_reverse_links"] == 0 for row in rows]))
    if labels_true is not None:
        agree = np.array([row["agreement"] for row in rows])
        summary["mean_agreement"] = float(agree.mean())
        summary["high_agreement_rate"] = float(
            (agree >= agreement_threshold).mean())
        summary["agreement_threshold"] = agreement_threshold
    if do_refit:
        scored = [row["refit_edge_mean_abs_err"] for row in rows
                  if np.isfinite(row["refit_edge_mean_abs_err"])]
        summary["refit_alpha_max_abs_err"] = float(
            np.max([row["refit_alpha_max_abs_err"] for row in rows]))
        summary["refit_edge_mean_abs_err"] = float(np.mean(scored)) \
            if scored else float("nan")
    return StudyReport(study="recovery", config=config, rows=rows,
                       summary=summary)


def run_study(config: dict) -> StudyReport:
    """Dispatch a study config on its "study" field."""
    studies = {"error_bound": error_bound_study, "recovery": recovery_study}
    return studies[setting(config, "study", str, allowed=studies)](config)


# ---------------------------------------------------------------------------
# community structure


def _symmetric_weights(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StudyError(f"adjacency must be square, got shape {a.shape}")
    w = a + a.T
    np.fill_diagonal(w, 0.0)
    return w


def _local_moving(w: np.ndarray, resolution: float) -> np.ndarray:
    """One level of greedy modularity moves; deterministic node order."""
    d = w.shape[0]
    k = w.sum(axis=1)
    two_m = float(w.sum())
    comm = np.arange(d)
    if two_m <= 0.0:
        return comm
    sigma_tot = k.copy()
    # neighbours other than v itself, with their link weights
    neighbors = [np.flatnonzero((w[v] > 0) & (np.arange(d) != v))
                 for v in range(d)]
    weights = [w[v, nb] for v, nb in enumerate(neighbors)]
    improved = True
    while improved:
        improved = False
        for v in range(d):
            cv = int(comm[v])
            # summed in ascending neighbour order, per community
            links = np.bincount(comm[neighbors[v]], weights[v], minlength=d)
            sigma_tot[cv] -= k[v]
            scale = resolution * k[v]
            best_c = cv
            best_gain = links[cv] - scale * sigma_tot[cv] / two_m
            # every link weight is positive, so a sum is nonzero exactly
            # where v has a neighbour
            present = np.flatnonzero(links)
            gains = links[present] - scale * sigma_tot[present] / two_m
            for c, gain in zip(present.tolist(), gains.tolist()):
                if c != cv and gain > best_gain + 1e-12:
                    best_gain = gain
                    best_c = c
            sigma_tot[best_c] += k[v]
            if best_c != cv:
                comm[v] = best_c
                improved = True
    return comm


def _compact_labels(labels: np.ndarray) -> np.ndarray:
    order: dict[int, int] = {}
    out = np.empty(labels.shape[0], dtype=int)
    for pos, lab in enumerate(labels):
        lab = int(lab)
        if lab not in order:
            order[lab] = len(order)
        out[pos] = order[lab]
    return out


def detect_communities(a, resolution: float = 1.0) -> np.ndarray:
    """Greedy modularity clustering of a directed graph's symmetrized weights.

    Works on w = a + a', alternating local moves with graph aggregation
    until a level merges nothing; each level that merges shrinks the node
    count, so at most d levels run.  Node visiting order is fixed, so the
    result is deterministic.  An empty graph yields singleton communities.
    Returns a label per node, labels compacted in order of first
    appearance.
    """
    w = _symmetric_weights(a)
    d = w.shape[0]
    labels = np.arange(d)
    cur = w
    while True:
        part = _compact_labels(_local_moving(cur, resolution))
        n_comm = int(part.max()) + 1
        if n_comm == cur.shape[0]:
            break
        labels = part[labels]
        onehot = np.eye(n_comm)[part]
        cur = onehot.T @ cur @ onehot
    return _compact_labels(labels)


def modularity(a, labels, resolution: float = 1.0) -> float:
    """Newman modularity of a labeling on the symmetrized weights."""
    w = _symmetric_weights(a)
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (w.shape[0],):
        raise StudyError("labels do not match the adjacency matrix")
    two_m = float(w.sum())
    if two_m <= 0.0:
        return 0.0
    k = w.sum(axis=1)
    same = labels[:, None] == labels[None, :]
    return float(np.sum((w - resolution * np.outer(k, k) / two_m) * same) / two_m)


def _label_indices(labels) -> np.ndarray:
    """Labels as non-negative integer indices; StudyError for any other value."""
    values = np.asarray(labels, dtype=float)
    if not np.all(np.isfinite(values) & (values >= 0) & (values == np.floor(values))):
        raise StudyError("labels must be non-negative whole numbers")
    return values.astype(int)


def label_agreement(labels_a, labels_b) -> float:
    """Fraction of nodes matched under the best label permutation.

    Labels must be non-negative whole numbers (StudyError otherwise).
    """
    # imported here so that `import netsde` and the fits load no scipy
    from scipy.optimize import linear_sum_assignment

    a = _label_indices(labels_a)
    b = _label_indices(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise StudyError("label vectors must share one dimension")
    if a.shape[0] == 0:
        return 1.0
    ka = int(a.max()) + 1
    kb = int(b.max()) + 1
    size = max(ka, kb)
    confusion = np.zeros((size, size))
    np.add.at(confusion, (a, b), 1.0)
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum() / a.shape[0])


def _communities(a, resolution: float = 1.0) -> dict:
    """The community labels of a's graph, their count and their modularity."""
    labels = detect_communities(a, resolution=resolution)
    return {"labels": labels.tolist(), "n_communities": int(labels.max() + 1),
            "modularity": modularity(a, labels, resolution=resolution)}


def cluster_lambda_curve(lpath: LassoPath, resolution: float = 1.0) -> list[dict]:
    """Community count and modularity of the estimated graph along a path."""
    if lpath.adjacency is None:
        raise StudyError("path carries no adjacency estimates")
    curve = []
    for lam, a_hat in zip(lpath.lambdas, lpath.adjacency):
        curve.append({"lambda": float(lam), "n_edges": int(np.sum(a_hat)),
                      **_communities(a_hat, resolution)})
        del curve[-1]["labels"]
    return curve
