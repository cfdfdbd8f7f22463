"""The per-dataset fitted context that every estimator on a dataset shares.

Covers: one nuisance fit and one evaluation per dataset in studies and in
estimate mode, equality with independent per-estimator runs whatever the
order, the shared first steps built once, read-only shared state, and
shared-fit failures reported against every estimator.
"""

import re
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import twophase_ate.estimators as est_mod
import twophase_ate.nuisance as nuisance_mod
from twophase_ate.cli import EXIT_ESTIMATOR_FAILURE, main
from twophase_ate.data_model import CsvSchema, write_csv
from twophase_ate.estimators import (
    ESTIMATOR_IDS,
    OPTIONS_READ,
    EstimateResult,
    EstimatorError,
    EstimatorOptions,
    FittedContext,
    run_estimator,
    run_roster,
)
from twophase_ate.glm import GlmError, fit_glm
from twophase_ate.nuisance import TRUNC_PI_DEFAULT, NuisanceConfig, NuisanceError, aw_designs
from twophase_ate.sim import DgpSpec, StudyEstimator, StudySpec, generate, run_study

from util import make_twophase_dataset

SCHEMA = CsvSchema(treatment="a", outcome="y", delta="d", w1=("u1",), w2=("v1", "v2"))
SCHEMA_LINES = ["schema.treatment = a", "schema.outcome = y", "schema.delta = d",
                "schema.w1 = u1", "schema.w2 = v1, v2"]


@pytest.fixture()
def counted(monkeypatch):
    """Count fit_nuisances and evaluate_nuisances calls made by the estimators."""
    counts = {"fit": 0, "evaluate": 0}
    fit, evaluate = est_mod.fit_nuisances, est_mod.evaluate_nuisances

    def counting_fit(*args, **kwargs):
        counts["fit"] += 1
        return fit(*args, **kwargs)

    def counting_evaluate(*args, **kwargs):
        counts["evaluate"] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(est_mod, "fit_nuisances", counting_fit)
    monkeypatch.setattr(est_mod, "evaluate_nuisances", counting_evaluate)
    return counts


def _write_cohort(tmp_path, ds, estimators):
    data = tmp_path / "cohort.csv"
    write_csv(ds, data, SCHEMA)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(["mode = estimate", f"data.path = {data}", *SCHEMA_LINES,
                              f"estimators = {', '.join(estimators)}"]) + "\n")
    return str(cfg)


class TestFitOncePerDataset:
    def test_study_fits_and_evaluates_once_per_run(self, counted):
        study = StudySpec(dgp=DgpSpec("missing_rate", n=300, seed=0),
                          estimators=tuple(StudyEstimator(e) for e in ESTIMATOR_IDS),
                          n_runs=3, base_seed=11, parallelism=1)
        report = run_study(study)
        assert all(row.n_ok == 3 for row in report.rows)
        assert counted == {"fit": 3, "evaluate": 3}

    def test_estimate_mode_fits_and_evaluates_once(self, counted, tmp_path):
        ds = make_twophase_dataset(np.random.default_rng(0), n=200)
        cfg = _write_cohort(tmp_path, ds, ESTIMATOR_IDS)
        main(["--config", cfg, "--out", str(tmp_path / "out")])
        assert counted == {"fit": 1, "evaluate": 1}


class TestSharedEqualsFresh:
    @pytest.mark.parametrize("dgp, known", [("missing_rate", False), ("raking_gap", False),
                                            ("kang_dr", True)])
    def test_any_order_matches_per_estimator_runs(self, dgp, known):
        ds, truth = generate(DgpSpec(dgp, n=400, seed=5))

        def config():
            return NuisanceConfig(known_pi=truth.pi0 if known else None,
                                  known_g=truth.g0 if known else None)

        options = {e: EstimatorOptions() for e in ESTIMATOR_IDS}
        options["quasi_tmle"] = EstimatorOptions(mode="linearized")
        fresh = {e: run_estimator(ds, e, config(), options[e]) for e in ESTIMATOR_IDS}
        for order in (ESTIMATOR_IDS, ESTIMATOR_IDS[::-1]):
            _, results = run_roster(ds, [(e, options[e]) for e in order], config())
            for e, (res, _) in zip(order, results):
                assert res == fresh[e], e

    def test_context_is_bound_to_its_dataset(self):
        ds = make_twophase_dataset(np.random.default_rng(1))
        other = make_twophase_dataset(np.random.default_rng(2))
        ctx = FittedContext(ds)
        with pytest.raises(EstimatorError, match="another dataset"):
            run_estimator(other, "aipcw", ctx)


class TestOneConstructorOneUnit:
    @pytest.mark.parametrize("e, mode", [(e, "refit") for e in ESTIMATOR_IDS]
                             + [(e, "linearized") for e in ESTIMATOR_IDS
                                if "mode" in OPTIONS_READ[e]])
    def test_estimate_functions_report_on_the_raw_scale(self, e, mode):
        # the outcome spans about 9.5 units, which estimate_* left out
        ds, _ = generate(DgpSpec("raking_gap", n=300, seed=1))
        ctx = FittedContext(ds)
        assert ctx.scale.span > 9.0
        options = EstimatorOptions(mode=mode)
        assert getattr(est_mod, f"estimate_{e}")(ctx, options) == run_estimator(ds, e, ctx, options)

    def test_targeted_pi_keeps_the_configured_bounds(self):
        ds = make_twophase_dataset(np.random.default_rng(13))
        assert FittedContext(ds).trunc_pi == TRUNC_PI_DEFAULT
        ctx = FittedContext(ds, NuisanceConfig(trunc_pi=(0.6, 0.9)))
        assert ctx.trunc_pi == (0.6, 0.9)
        _, mbar = ctx.start
        pi = ctx.fluctuate_pi(ctx.pi0, 100.0 * mbar)
        assert pi.min() == 0.6 and pi.max() == 0.9


def _count_calls(monkeypatch, counts, module, name):
    """Count the calls of module.name in counts[name]."""
    original = getattr(module, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


ALL8 = [(e, EstimatorOptions()) for e in ESTIMATOR_IDS]


class TestSharedSteps:
    def test_roster_builds_each_shared_step_once(self, monkeypatch):
        counts = Counter()
        for module, name in ((est_mod, "fit_fluctuation"), (est_mod, "fit_mbar"),
                             (est_mod, "fit_glm"), (nuisance_mod, "fit_glm")):
            _count_calls(monkeypatch, counts, module, name)
        ds, _ = generate(DgpSpec("missing_rate", n=1000, seed=1, missing_intercept=-0.3))
        _, results = run_roster(ds, ALL8)
        assert all(isinstance(res, EstimateResult) for res, _ in results)
        # each estimator building its own first steps makes 9, 15 and 7
        assert counts == {"fit_fluctuation": 5, "fit_mbar": 10, "fit_glm": 6}

    def test_linearized_roster_builds_the_start_slope_once(self, monkeypatch):
        counts = Counter()
        for name in ("linearized_slope_values", "fit_mbar"):
            _count_calls(monkeypatch, counts, est_mod, name)
        ds, _ = generate(DgpSpec("missing_rate", n=1000, seed=1))
        linearized = EstimatorOptions(mode="linearized")
        roster = [(e, linearized) for e in ("quasi_tmle", "ipcw_tmle_target_pi",
                                            "ipcw_tmle_rake_pi")]
        _, results = run_roster(ds, roster)
        assert all(isinstance(res, EstimateResult) for res, _ in results)
        # each estimator building its own slope makes 3 and 5
        assert counts == {"linearized_slope_values": 1, "fit_mbar": 3}

    def test_readme_lists_exactly_the_shared_steps(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        intro = "each built at most once, on first use, and read-only:\n"
        assert readme.count(intro) == 1
        bullets = readme.split(intro)[1].split("\n\n")[0]
        listed = re.findall(r"^- `(\w+)`:", bullets, flags=re.M)
        steps = [name for name, value in vars(FittedContext).items()
                 if isinstance(value, cached_property)]
        assert sorted(listed) == sorted(steps)

    @pytest.mark.parametrize("dgp, fits", [("missing_rate", 1), ("raking_gap", 2)])
    def test_raking_refits_its_preliminary_model_only_for_a_continuous_outcome(
            self, dgp, fits, monkeypatch):
        # a binary outcome's working model at the design weights is the
        # outcome regression; a continuous one is a gaussian fit of its own
        ds, _ = generate(DgpSpec(dgp, n=300, seed=1))
        ctx = FittedContext(ds)
        calls = []
        fit_glm = est_mod.fit_glm

        def recording(X, y, w=None, family="gaussian"):
            calls.append((w, family))
            return fit_glm(X, y, w=w, family=family)

        monkeypatch.setattr(est_mod, "fit_glm", recording)
        run_estimator(ds, "raking", ctx)
        assert len(calls) == fits
        if fits == 2:
            assert calls[0][0] is ctx.wts0 and calls[0][1] == "gaussian"

    @pytest.mark.parametrize("known", [False, True])
    def test_raking_reuses_exactly_its_own_binary_working_fit(self, known):
        # the outcome regression stands in for raking's preliminary fit only
        # because it is that fit: same design, response, weights and family
        ds, truth = generate(DgpSpec("missing_rate", n=300, seed=1))
        ctx = FittedContext(ds, NuisanceConfig(known_pi=truth.pi0 if known else None))
        designs2 = aw_designs(ctx.scaled, ctx.p2)
        own = fit_glm(designs2[0], ctx.y2, w=ctx.wts0, family="bernoulli")
        np.testing.assert_array_equal(ctx.nuisances.q.coefficients, own.coefficients)
        for reused, X in zip((ctx.q_a0, ctx.q10, ctx.q00), designs2):
            np.testing.assert_array_equal(reused, own.predict(X))

    def test_failing_first_step_fails_every_estimator_that_reads_it(self, monkeypatch):
        def failing(*args, **kwargs):
            raise GlmError("degenerate fluctuation")

        monkeypatch.setattr(est_mod, "fit_fluctuation", failing)
        ds, _ = generate(DgpSpec("missing_rate", n=300, seed=1))
        _, results = run_roster(ds, ALL8)
        errors = {e: str(res) for e, (res, _) in zip(ESTIMATOR_IDS, results)
                  if not isinstance(res, EstimateResult)}
        # a failed step is not kept: each reader raises it again
        assert errors == {e: f"{e} failed: degenerate fluctuation"
                          for e in ("ipcw_tmle", "ipcw_tmle_target_pi", "ipcw_tmle_rake_pi",
                                    "quasi_tmle", "tmle_alt")}


def _arrays(value):
    """The arrays in value, looking inside tuples (the shared steps)."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


class TestSharedStateIsReadOnly:
    def test_every_shared_array_rejects_writes(self):
        ds, _ = generate(DgpSpec("raking_gap", n=300, seed=2))
        ctx = FittedContext(ds)
        arrays = [v for v in vars(ctx).values() if isinstance(v, np.ndarray)]
        arrays += [ctx.design.x_all, ctx.design.x2]
        assert len(arrays) >= 12
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_shared_steps_reject_writes_after_a_roster(self):
        ds, _ = generate(DgpSpec("missing_rate", n=300, seed=1))
        ctx = FittedContext(ds)
        for e in ESTIMATOR_IDS:
            run_estimator(ds, e, ctx)
        run_estimator(ds, "quasi_tmle", ctx, EstimatorOptions(mode="linearized"))
        assert {"start", "start_slope", "first_q", "first_eic"} <= set(vars(ctx))
        arrays = [arr for value in vars(ctx).values() for arr in _arrays(value)]
        assert len(arrays) >= 12 + 8
        for arr in arrays + [ctx.design.x_all, ctx.design.x2]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_estimators_leave_the_context_unchanged(self):
        ds = make_twophase_dataset(np.random.default_rng(3))
        ctx = FittedContext(ds)
        before = {k: v.copy() for k, v in vars(ctx).items() if isinstance(v, np.ndarray)}
        for e in ESTIMATOR_IDS:
            run_estimator(ds, e, ctx)
        for k, v in before.items():
            assert np.array_equal(getattr(ctx, k), v), k


class TestSharedFitFailure:
    def test_study_counts_every_estimator_failed(self, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise NuisanceError("phase-2 indicator is constant")

        monkeypatch.setattr(est_mod, "fit_nuisances", failing_fit)
        study = StudySpec(dgp=DgpSpec("missing_rate", n=200, seed=0),
                          estimators=(StudyEstimator("aipcw"), StudyEstimator("raking"),
                                      StudyEstimator("tmle_alt")),
                          n_runs=2, base_seed=3, parallelism=1)
        report = run_study(study)
        for row in report.rows:
            assert (row.n_ok, row.n_failed) == (0, 2)
            assert row.first_error == "nuisance fitting failed: phase-2 indicator is constant"

    def test_estimate_mode_writes_blank_rows_and_exits_one(self, tmp_path, capsys):
        ds = make_twophase_dataset(np.random.default_rng(4), n=120)
        # every record in phase 2: the sampling mechanism is unidentifiable
        full = type(ds)(w1=ds.w1, a=ds.a, y=ds.y, delta=np.ones(ds.n, dtype=int),
                        w2=np.nan_to_num(ds.w2), y_kind="binary")
        cfg = _write_cohort(tmp_path, full, ("aipcw", "eee"))
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_ESTIMATOR_FAILURE
        rows = (tmp_path / "out" / "estimates.csv").read_text().splitlines()
        assert rows[1:] == ["aipcw,,,,,,,false", "eee,,,,,,,false"]
        err = capsys.readouterr().err
        for e in ("aipcw", "eee"):
            assert f"estimator {e} failed: nuisance fitting failed: phase-2 indicator is constant" in err
