"""End-to-end acceptance checks for the study pipeline.

Each test prints one PASS/FAIL line so the suite doubles as a checklist;
tolerances are fixed here and must not be loosened to make a run green.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from netsde.estimate import fit_linear_closed_form, fit_qmle
from netsde.experiments import (error_bound_study, recovery_study,
                                reference_er_graph)
from netsde.graph import erdos_renyi, ergodicity_margin
from netsde.ingest import PanelData, panel_to_csv, parse_panel_csv
from netsde.lasso import kkt_residual, lambda_max, lsa_solve
from netsde.model import (LinearDrift, NsdeSpec, ParamVector, TanhClipped,
                          parameter_layout)
from netsde.simulate import simulate_path
from reference import flat_weights, one_block, sigma_path, stage_one_scales

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _verdict(ok: bool, label: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    return ok


def _load(name: str) -> dict:
    with open(CONFIGS / name) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def er_report():
    return recovery_study(_load("recovery_er.json"))


def test_error_bound_benchmark():
    report = error_bound_study(_load("bench_error_bound_d8.json"))
    reference = {10.0: 0.94, 20.0: 0.52, 40.0: 0.28, 80.0: 0.15}
    in_band = all(
        0.5 * reference[row["horizon"]]
        <= row["mean_error"]
        <= 1.5 * reference[row["horizon"]]
        for row in report.rows)
    below = all(row["mean_error"] <= row["bound"] for row in report.rows)
    slope = report.summary["slope_log_error_vs_log_horizon"]
    ok = in_band and below and -1.15 <= slope <= -0.85
    assert _verdict(
        ok, f"d=8 benchmark: errors in half-band, under K*eps, "
            f"slope {slope:.3f} in [-1.15, -0.85]")


def test_error_bound_benchmark_d16():
    # the paper's claim at both shipped horizons: mean error under K * eps
    report = error_bound_study(_load("bench_error_bound_d16.json"))
    bounds = ", ".join(f"T={row['horizon']:g}: {row['mean_error']:.4f} <= "
                       f"{row['bound']:.4f}" for row in report.rows)
    ok = (len(report.rows) == 2
          and all(row["below_bound"] for row in report.rows))
    assert _verdict(ok, f"d=16 benchmark under K*eps ({bounds})")


def test_closed_form_matches_optimizer():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 6))
        spec = NsdeSpec(d=d, drift=LinearDrift(),
                        diffusion=TanhClipped(clip=100.0))
        g = erdos_renyi(d, p=0.4, seed=int(rng.integers(1 << 30)))
        layout = parameter_layout(spec, g)
        theta = layout.pack(alpha=1.0 + rng.uniform(0.0, 1.5, d),
                            momentum=rng.uniform(4.0, 8.0, d),
                            network=rng.uniform(-1.0, 1.0, g.n_edges))
        path = simulate_path(spec, g, theta, np.zeros(d), 0.01, 5000,
                             substeps=10, seed=trial)
        alpha_hat = stage_one_scales(path, spec)
        closed = ParamVector(
            alpha=alpha_hat,
            beta=fit_linear_closed_form(
                path, g, sigma_path(path, spec, alpha_hat)).theta_hat.beta)
        opt = fit_qmle(path, spec, g, mode="adaptive",
                       freeze_alpha=alpha_hat)
        gap = float(np.max(np.abs(layout.flatten(closed)
                                  - layout.flatten(opt.theta_hat))))
        worst = max(worst, gap)
    ok = worst <= 1e-6
    assert _verdict(
        ok, f"closed form vs frozen-scale optimizer: worst coordinate gap "
            f"{worst:.2e} <= 1e-6 over 20 instances")


def test_er_graph_recovery(er_report):
    rows = er_report.rows
    rate = er_report.summary["recovery_rate"]
    first_exact = bool(rows[0]["exact"])
    perfect = all(row["precision"] == 1.0 and row["recall"] == 1.0
                  for row in rows if row["exact"])
    ok = rate >= 0.8 and first_exact and perfect
    assert _verdict(
        ok, f"ER recovery at 0.1*lambda_max: exact rate {rate:.2f} >= 0.80, "
            f"reference seed exact: {first_exact}")


def test_er_refit_accuracy(er_report):
    rows = er_report.rows
    alpha_worst = max(row["refit_alpha_max_abs_err"] for row in rows)
    beta_worst = max(row["refit_edge_mean_abs_err"] for row in rows)
    ok = alpha_worst <= 0.1 and beta_worst <= 0.5
    assert _verdict(
        ok, f"ER refit: max |alpha_hat - 2| {alpha_worst:.3f} <= 0.1, "
            f"mean true-edge |beta_hat - 2| {beta_worst:.3f} <= 0.5")


def test_polymer_directionality():
    report = recovery_study(_load("recovery_polymer.json"))
    rate = report.summary["no_false_reverse_rate"]
    ok = rate >= 0.8
    assert _verdict(
        ok, f"polymer chain: no false reverse links in {rate:.2f} >= 0.80 "
            f"of 50 seeds")


def test_sbm_clustering():
    report = recovery_study(_load("recovery_sbm.json"))
    hits = [row["n_communities"] == 3 and row["agreement"] >= 0.9
            for row in report.rows]
    rate = float(np.mean(hits))
    ok = rate >= 0.8
    assert _verdict(
        ok, f"block-model clustering: 3 communities with agreement >= 0.9 "
            f"in {rate:.2f} >= 0.80 of 30 seeds")


def test_lasso_solver_certificates():
    rng = np.random.default_rng(12345)
    worst_ratio = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 5))
        n_pairs = d * (d - 1)
        p = 2 * d + n_pairs
        a = rng.normal(size=(p, p))
        h = one_block(a.T @ a + 0.1 * np.eye(p))
        pilot = ParamVector(
            alpha=np.abs(rng.normal(size=d)) + 0.1,
            beta=np.concatenate([
                rng.uniform(2.0, 6.0, d),
                rng.normal(size=n_pairs) * rng.binomial(1, 0.5, n_pairs)]))
        w = flat_weights(pilot, d)
        lam_top = lambda_max(h, pilot, w)
        pen = w > 0
        assert np.all(lsa_solve(h, pilot, lam_top, w).flat()[pen] == 0.0)
        assert np.any(lsa_solve(h, pilot, 0.95 * lam_top, w).flat()[pen] != 0.0)
        for lam in (lam_top, 0.95 * lam_top, 0.3 * lam_top):
            sol = lsa_solve(h, pilot, lam, w)
            resid = kkt_residual(h, pilot, sol, lam, w)
            worst_ratio = max(worst_ratio, resid / (1e-8 * (1.0 + lam)))

    # diagonal curvature reduces every coordinate to one exact update
    soft = lambda v, t: np.sign(v) * max(abs(v) - t, 0.0)
    diag_exact = True
    for trial in range(20):
        d = int(rng.integers(2, 5))
        n_pairs = d * (d - 1)
        p = 2 * d + n_pairs
        h = np.diag(rng.uniform(0.5, 4.0, p))
        pilot = ParamVector(alpha=np.abs(rng.normal(size=d)) + 0.5,
                            beta=np.concatenate([rng.normal(size=d),
                                                 rng.normal(size=n_pairs)]))
        w = flat_weights(pilot, d)
        lam = float(rng.uniform(0.1, 2.0))
        sol = lsa_solve(one_block(h), pilot, lam, w).flat()
        flat = pilot.flat()
        for k in range(p):
            want = soft(h[k, k] * flat[k], lam * w[k]) / h[k, k]
            lo = 0.0 if k < d else -1e3
            want = min(max(want, lo), 1e3)
            if sol[k] != want:
                diag_exact = False
    ok = worst_ratio <= 1.0 and diag_exact
    assert _verdict(
        ok, f"penalized solver: KKT residual at {worst_ratio:.3f} of budget "
            f"over 100 instances, lambda_max certificate holds, diagonal "
            f"solves exactly soft-threshold")


def test_ergodicity_margin_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(2, 9))
        b = np.abs(rng.normal(size=(d, d))) * rng.binomial(1, 0.4, (d, d))
        np.fill_diagonal(b, 0.0)
        mu = rng.uniform(1.0, 10.0, d)
        got = ergodicity_margin(mu, b, mode="singular")
        want = float(np.min(mu) - np.linalg.svd(b, compute_uv=False)[0])
        worst = max(worst, abs(got - want))

    g = reference_er_graph()
    b_star = 2.0 * g.adjacency()
    mu_star = np.full(g.d, 7.0)
    singular = ergodicity_margin(mu_star, b_star, mode="singular")
    rowsum = ergodicity_margin(mu_star, b_star, mode="rowsum")
    ok = worst <= 1e-8 and singular > 0.0 and rowsum < 0.0
    assert _verdict(
        ok, f"stability margin: svd-oracle gap {worst:.2e} <= 1e-8, ER "
            f"study margins singular {singular:.3f} > 0 > rowsum {rowsum:.1f}")


def test_panel_roundtrip_and_recovery_monotonicity():
    rng = np.random.default_rng(99)
    values = rng.normal(size=(1597, 99)) * np.exp(rng.normal(size=(1597, 99)))
    values[rng.random(values.shape) < 0.01] = np.nan
    ts = np.arange(1597, dtype=float) * 0.25
    names = [f"s{k:02d}" for k in range(99)]
    panel = PanelData(timestamps=ts, series_names=names, values=values)
    back = parse_panel_csv(io.StringIO(panel_to_csv(panel)).read())
    round_trip = (np.array_equal(back.values, values, equal_nan=True)
                  and np.array_equal(back.timestamps, ts)
                  and list(back.series_names) == names)

    base = _load("recovery_er.json")
    rates = []
    for horizon in (50.0, 100.0, 200.0):
        cfg = dict(base)
        cfg["horizon"] = horizon
        cfg["n_seeds"] = 100
        cfg["refit"] = False
        rates.append(recovery_study(cfg).summary["recovery_rate"])
    monotone = all(rates[i + 1] >= rates[i] - 0.05 for i in range(2))
    ok = round_trip and monotone
    assert _verdict(
        ok, f"panel 99x1597 round trip exact: {round_trip}; recovery rate "
            f"{[f'{r:.2f}' for r in rates]} non-decreasing in the horizon "
            f"within 5pp: {monotone}")
