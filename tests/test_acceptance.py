"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. The Monte-Carlo studies use fixed seeds and finish in a few
minutes on one core; run with `pytest tests/test_acceptance.py -v -s`. The
C06-C09 studies ask for two workers (`run_study` caps that at the CPU
count); a report does not depend on the worker count.
"""

import time

import numpy as np
import pytest

from twophase_ate.cli import EXIT_OK, main
from twophase_ate.eic import (
    clever_covariate,
    eic_components,
    evaluate_nuisances,
    fulldata_eic_values,
    linearized_slope_values,
    observed_eic,
)
from twophase_ate.estimators import (
    EstimatorOptions,
    rake_weights,
    run_estimator,
)
from twophase_ate.glm import expit, logit
from twophase_ate.nuisance import NuisanceConfig, fit_mbar, fit_nuisances
from twophase_ate.sim import DgpSpec, StudyEstimator, StudySpec, run_study

from util import (
    bisect_oracle,
    fulldata_gcomp,
    fulldata_onestep,
    fulldata_tmle,
    make_full_dataset,
    make_twophase_dataset,
)


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f" :: {detail}" if detail else ""), flush=True)
    assert ok, f"{criterion} :: {detail}"


# estimators whose construction solves the full observed-data EIC
SOLVER_VARIANTS = (
    StudyEstimator("aipcw"),
    StudyEstimator("ipcw_tmle_target_pi"),
    StudyEstimator("ipcw_tmle_target_pi", mode="linearized"),
    StudyEstimator("ipcw_tmle_rake_pi"),
    StudyEstimator("eee"),
    StudyEstimator("quasi_tmle"),
    StudyEstimator("quasi_tmle", mode="linearized"),
    StudyEstimator("tmle_alt"),
)


def test_c01_score_solving_suite():
    """Every full-EIC solver drives |P_n D| below sigma_n/(sqrt(n) log n)."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        ds = make_twophase_dataset(np.random.default_rng(1000 + seed), n=200)
        for est in SOLVER_VARIANTS:
            r = run_estimator(ds, est.estimator_id, options=est.options)
            assert r.converged, (est.label, seed)
            assert r.eic_mean_abs <= r.s_n + 1e-12, (est.label, seed, r.eic_mean_abs, r.s_n)
            worst = max(worst, r.eic_mean_abs / max(r.s_n, 1e-300))
    elapsed = time.perf_counter() - t0
    report("criterion 1 (score-solving suite)",
           elapsed < 60.0,
           f"50 datasets x {len(SOLVER_VARIANTS)} solvers, worst |PnD|/s_n="
           f"{worst:.3g}, {elapsed:.1f}s")


def test_c02_representation_equality():
    """Four-component decomposition equals the weighted-projection form,
    both built by the functions the estimators call, from the same fit."""
    total, worst = 0, 0.0
    seed = 0
    while total < 1000:
        ds = make_twophase_dataset(np.random.default_rng(2000 + seed), n=260)
        pi, g1, q, _, designs2, design = fit_nuisances(ds)
        q_a, q1, q0 = evaluate_nuisances(q, designs2)
        p2 = ds.phase2
        h2 = clever_covariate(ds.a[p2], g1)
        resid2 = h2 * (ds.y[p2] - q_a)
        contrast2 = q1 - q0
        dbar2 = fulldata_eic_values(ds.y[p2], h2, q_a, q1, q0)
        mbar = fit_mbar(design, dbar2)
        r_all = fit_mbar(design, resid2)
        c_all = fit_mbar(design, contrast2)
        d_obs = observed_eic(dbar2, mbar, pi, 0.123, p2, ds.delta)
        parts = eic_components(resid2, r_all, contrast2, c_all, pi, 0.123, p2, ds.delta)
        gap = float(np.max(np.abs(sum(parts) - d_obs)))
        worst = max(worst, gap)
        total += ds.n
        seed += 1
    report("criterion 2 (representation equality)",
           worst <= 1e-10, f"{total} records, max gap {worst:.3e}")


def test_c03_linearization_gradient_check():
    """The analytic slope of the fluctuated influence values matches central
    finite differences at zero."""
    rng = np.random.default_rng(3000)
    n = 1000
    g1 = rng.uniform(0.05, 0.95, n)
    q1 = rng.uniform(0.05, 0.95, n)
    q0 = rng.uniform(0.05, 0.95, n)
    a = (rng.random(n) < 0.5).astype(int)
    q_a = np.where(a == 1, q1, q0)
    y = (rng.random(n) < q_a).astype(float)
    h_a = clever_covariate(a, g1)
    h1, h0 = 1.0 / g1, -1.0 / (1.0 - g1)

    def dbar(eps):
        qe_a = expit(logit(q_a) + eps * h_a)
        qe1 = expit(logit(q1) + eps * h1)
        qe0 = expit(logit(q0) + eps * h0)
        return h_a * (y - qe_a) + qe1 - qe0

    step = 1e-5
    fd = (dbar(step) - dbar(-step)) / (2 * step)
    slope = linearized_slope_values(h_a, h1, h0, q_a, q1, q0)
    rel = np.abs(slope - fd) / np.maximum(np.abs(fd), 1e-8)
    report("criterion 3 (linearization gradient check)",
           float(rel.max()) <= 1e-6, f"max relative error {rel.max():.3e} on {n} records")


def test_c04_no_coarsening_oracle():
    """With sampling probability one, each estimator equals its independently
    coded full-data counterpart."""
    worst = 0.0
    for seed in range(20):
        ds = make_full_dataset(np.random.default_rng(4000 + seed), n=220)
        cfg = NuisanceConfig(known_pi=np.ones(ds.n))
        refs = {
            "aipcw": fulldata_onestep(ds),
            "eee": fulldata_onestep(ds),
            "ipcw_tmle": fulldata_tmle(ds),
            "ipcw_tmle_target_pi": fulldata_tmle(ds),
            "ipcw_tmle_rake_pi": fulldata_tmle(ds),
            "quasi_tmle": fulldata_tmle(ds),
            "tmle_alt": fulldata_tmle(ds),
            "raking": fulldata_gcomp(ds),
        }
        for est, ref in refs.items():
            gap = abs(run_estimator(ds, est, cfg).psi_hat - ref)
            worst = max(worst, gap)
            assert gap <= 1e-8, (est, seed, gap)
    report("criterion 4 (no-coarsening oracle)",
           worst <= 1e-8, f"20 datasets x 8 estimators, max gap {worst:.3e}")


def test_c05_raking_kkt():
    """Calibrated weights satisfy the constraint; the multiplier matches an
    independent bisection oracle; identity when already calibrated."""
    worst_cal, worst_lam = 0.0, 0.0
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(6, 80))
        m = rng.normal(size=n)
        pi = rng.uniform(0.1, 1.0, size=n)
        delta = (rng.random(n) < 0.6).astype(int)
        delta[np.argmax(m)] = 1
        delta[np.argmin(m)] = 1
        sol = rake_weights(m, pi, delta)
        assert sol.converged, seed
        p2 = delta == 1
        cal = abs(np.sum(m[p2] / sol.pi_star[p2]) - m.sum())
        worst_cal = max(worst_cal, cal)

        def F(lam):
            return float(np.sum(np.exp(-lam * m[p2]) * m[p2] / pi[p2]) - m.sum())

        lo, hi = -1.0, 1.0
        while F(lo) * F(hi) > 0:
            lo, hi = 2 * lo, 2 * hi
        worst_lam = max(worst_lam, abs(sol.lam - bisect_oracle(F, lo, hi)))
    # identity case: constraint already satisfied at lambda zero
    ident = rake_weights(np.array([1.0, -2.0]), np.ones(2), np.ones(2, dtype=int))
    assert ident.lam == 0.0 and np.all(ident.pi_star == 1.0)
    ok = worst_cal <= 1e-8 and worst_lam <= 1e-8
    report("criterion 5 (raking KKT)", ok,
           f"100 instances: max calibration residual {worst_cal:.2e}, "
           f"max lambda gap {worst_lam:.2e}")


# paper-reported |bias| x 1e3 for the known-mechanism study at n=2000
_KNOWN_MECH_PAPER_BIAS = {
    "aipcw": 0.870,
    "ipcw_tmle": 1.17,
    "ipcw_tmle_target_pi": 1.10,
    "ipcw_tmle_rake_pi": 1.02,
    "eee": 0.869,
    "quasi_tmle": 1.00,
    "tmle_alt": 1.89,
}


def test_c06_known_mechanism_table():
    """kang_dr with true sampling and treatment mechanisms, n=2000, 500 runs."""
    ests = (StudyEstimator("raking"),) + tuple(
        StudyEstimator(e) for e in _KNOWN_MECH_PAPER_BIAS)
    study = StudySpec(dgp=DgpSpec("kang_dr", n=2000, seed=0), estimators=ests,
                      n_runs=500, base_seed=20240817, known_pi=True, known_g=True,
                      parallelism=2)
    rep = run_study(study)
    lines = []
    ok = True

    rak = rep.row("raking")
    ok &= rak.coverage <= 0.65
    lines.append(f"raking analytic coverage {100 * rak.coverage:.1f}% (need <= 65)")

    for est, paper_bias in _KNOWN_MECH_PAPER_BIAS.items():
        row = rep.row(est)
        mc_err = 1.96 * row.emp_se / np.sqrt(row.n_ok)
        bias_limit = 3.0 * paper_bias * 1e-3 + mc_err
        ok &= 0.92 <= row.oracle_coverage <= 0.98
        ok &= row.abs_bias <= bias_limit
        ok &= row.n_failed == 0
        lines.append(f"{est}: ocov={100 * row.oracle_coverage:.1f} "
                     f"bias={1e3 * row.abs_bias:.2f}e-3 (limit {1e3 * bias_limit:.2f}e-3)")

    # reference MSE values for this study design, within MC tolerance
    for est, paper_mse in (("ipcw_tmle", 1.067e-3), ("ipcw_tmle_rake_pi", 1.068e-3)):
        row = rep.row(est)
        ok &= abs(row.mse - paper_mse) / paper_mse <= 0.15
        lines.append(f"{est} mse={1e3 * row.mse:.3f}e-3 (ref {1e3 * paper_mse:.3f}e-3)")
    report("criterion 6 (known-mechanism table, n=2000)", ok, "; ".join(lines))


def test_c07_missing_rate_table():
    """missing_rate at 20% missingness, n=1000, 500 runs: raking rows match
    the reference values; the others are qualitatively unbiased with
    near-nominal oracle coverage (main-term-GLM nuisances)."""
    ests = tuple(StudyEstimator(e) for e in (
        "raking", "aipcw", "ipcw_tmle", "ipcw_tmle_target_pi",
        "ipcw_tmle_rake_pi", "eee", "quasi_tmle", "tmle_alt"))
    study = StudySpec(dgp=DgpSpec("missing_rate", n=1000, seed=0), estimators=ests,
                      n_runs=500, base_seed=20240818, parallelism=2)
    rep = run_study(study)
    rak = rep.row("raking")
    ok = 0.012 <= rak.abs_bias <= 0.025 and rak.oracle_coverage <= 0.93
    lines = [f"raking bias={1e3 * rak.abs_bias:.1f}e-3 ocov={100 * rak.oracle_coverage:.0f}"]
    for est in ("aipcw", "ipcw_tmle", "ipcw_tmle_target_pi", "ipcw_tmle_rake_pi",
                "eee", "quasi_tmle", "tmle_alt"):
        row = rep.row(est)
        ok &= row.abs_bias <= 0.01 and row.oracle_coverage >= 0.92
        lines.append(f"{est}: bias={1e3 * row.abs_bias:.2f}e-3 "
                     f"ocov={100 * row.oracle_coverage:.0f}")
    report("criterion 7 (missing-rate table, n=1000)", ok, "; ".join(lines))


def test_c08_coverage_gap_grid():
    """Raking oracle coverage degrades with heterogeneity and sample size;
    the EIC-targeting estimators hold nominal coverage across the grid."""
    ests = tuple(StudyEstimator(e) for e in ("raking", "ipcw_tmle", "ipcw_tmle_target_pi"))
    cov = {}
    ok = True
    lines = []
    for n in (500, 2500):
        for gamma in (0.0, 0.5, 1.0):
            study = StudySpec(dgp=DgpSpec("raking_gap", n=n, seed=0, gamma=gamma),
                              estimators=ests, n_runs=300, base_seed=20240820,
                              parallelism=2)
            rep = run_study(study)
            cov[(n, gamma)] = {r.label: r.oracle_coverage for r in rep.rows}
            for est in ("ipcw_tmle", "ipcw_tmle_target_pi"):
                ok &= 0.92 <= cov[(n, gamma)][est] <= 0.98
            lines.append(f"n={n} g={gamma}: rak={100 * cov[(n, gamma)]['raking']:.0f}")
    for n in (500, 2500):
        ok &= cov[(n, 0.0)]["raking"] >= cov[(n, 0.5)]["raking"] >= cov[(n, 1.0)]["raking"]
    ok &= cov[(2500, 1.0)]["raking"] < cov[(500, 1.0)]["raking"]
    report("criterion 8 (coverage-gap grid)", ok, "; ".join(lines))


def test_c09_census_referenced_coverage():
    """Against the census estimand, raking is well calibrated at the full
    heterogeneity setting (gap ~ 0.25)."""
    ok = True
    lines = []
    for n in (500, 1500):
        study = StudySpec(dgp=DgpSpec("raking_gap", n=n, seed=0, gamma=1.0),
                          estimators=(StudyEstimator("raking"),), n_runs=500,
                          base_seed=20240819, reference="census", parallelism=2)
        rep = run_study(study)
        row = rep.row("raking")
        ok &= 0.92 <= row.coverage <= 0.98
        lines.append(f"n={n}: census coverage {100 * row.coverage:.1f}%")
    report("criterion 9 (census-referenced raking)", ok, "; ".join(lines))


def test_c10_linearization_parity_and_positivity():
    """The linearized update matches the refit update under good overlap, and
    under near-positivity violation the plug-in refit solver beats the
    linearized solver, which beats the non-plug-in estimator."""
    study = StudySpec(
        dgp=DgpSpec("missing_rate", n=1000, seed=0),
        estimators=(StudyEstimator("ipcw_tmle_target_pi", label="refit"),
                    StudyEstimator("ipcw_tmle_target_pi", mode="linearized", label="lin")),
        n_runs=200, base_seed=20240821)
    rep = run_study(study)
    mse_r, mse_l = rep.row("refit").mse, rep.row("lin").mse
    rel = abs(mse_r - mse_l) / mse_r
    ok = rel < 0.05

    study = StudySpec(
        dgp=DgpSpec("near_positivity", n=500, seed=0),
        estimators=(StudyEstimator("eee"),
                    StudyEstimator("quasi_tmle", label="quasi_refit"),
                    StudyEstimator("quasi_tmle", mode="linearized", label="quasi_lin")),
        n_runs=200, base_seed=20240822, trunc_g=(1e-4, 1 - 1e-4))
    rep = run_study(study)
    m_refit = rep.row("quasi_refit").mse
    m_lin = rep.row("quasi_lin").mse
    m_eee = rep.row("eee").mse
    ok &= m_refit < m_lin < m_eee
    report("criterion 10 (linearization parity + positivity ordering)", ok,
           f"parity rel diff {100 * rel:.2f}%; "
           f"mse refit={1e3 * m_refit:.1f}e-3 < lin={1e3 * m_lin:.1f}e-3 "
           f"< eee={1e3 * m_eee:.1f}e-3")


def test_c11_determinism(tmp_path):
    """Rerunning a bundled study config reproduces the report byte for byte."""
    from pathlib import Path

    cfg = Path(__file__).resolve().parent.parent / "repro" / "smoke_n300.cfg"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", str(cfg), "--out", str(out1), "--parallelism", "1"]) == EXIT_OK
    assert main(["--config", str(cfg), "--out", str(out2), "--parallelism", "1"]) == EXIT_OK
    b1 = (out1 / "report.csv").read_bytes()
    b2 = (out2 / "report.csv").read_bytes()
    report("criterion 11 (determinism)", b1 == b2,
           f"report.csv identical across reruns ({len(b1)} bytes)")
