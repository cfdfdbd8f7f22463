"""Whole-roster fuzz: on any valid cohort, however small or badly scaled,
every roster entry is an estimate with a finite psi and SE or a named
EstimatorError, no numpy warning escapes, and a rerun gives the same text.

Exponential raking weights may fall below 1 (Deville & Saerndal 1992), so
nothing here bounds the calibrated pi* by 1.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twophase_ate.data_model import Dataset, default_bounds
from twophase_ate.estimators import (
    ESTIMATOR_IDS,
    OPTIONS_READ,
    EstimateResult,
    EstimatorError,
    EstimatorOptions,
    run_roster,
)
from twophase_ate.nuisance import TRUNC_PI_DEFAULT, NuisanceConfig

from util import compounding_rake_cohort

ROSTER = ([(e, EstimatorOptions()) for e in ESTIMATOR_IDS]
          + [(e, EstimatorOptions(mode="linearized"))
             for e in ESTIMATOR_IDS if "mode" in OPTIONS_READ[e]])


@st.composite
def cohorts(draw):
    """A cohort and its nuisance config: 3 to 59 records, 1-2 w1 and 0-3 w2
    columns each scaled by 10^U(-3, 5), maybe rounded to integers and maybe
    with a constant first column, a binary or continuous outcome, a lower
    pi bound of the default, 1e-6, 1e-12 or 1e-300, and estimated or known
    pi and g, known pi being 10^U(-14, 0) per record."""
    n = draw(st.integers(3, 59))
    d1, d2 = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.normal(size=(n, d1 + d2)) * 10.0 ** rng.uniform(-3.0, 5.0, size=d1 + d2)
    if draw(st.booleans()):
        w = np.round(w)
    if draw(st.booleans()):
        w[:, 0] = w[0, 0]
    a = (rng.random(n) < 0.5).astype(int)
    delta = (rng.random(n) < rng.uniform(0.2, 0.9)).astype(int)
    delta[rng.integers(n)] = 1  # a cohort without phase-2 records is not a Dataset
    w2 = w[:, d1:].copy()
    w2[delta == 0] = np.nan
    if draw(st.booleans()):
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 5.0)
        ds = Dataset(w1=w[:, :d1], a=a, y=y, delta=delta, w2=w2,
                     y_kind="continuous", y_bounds=default_bounds(y))
    else:
        ds = Dataset(w1=w[:, :d1], a=a, y=(rng.random(n) < 0.5).astype(float),
                     delta=delta, w2=w2)
    lo = draw(st.sampled_from([TRUNC_PI_DEFAULT[0], 1e-6, 1e-12, 1e-300]))
    known = {}
    if draw(st.booleans()):
        known = {"known_pi": 10.0 ** rng.uniform(-14.0, 0.0, n),
                 "known_g": rng.uniform(0.05, 0.95, n)}
    return ds, NuisanceConfig(trunc_pi=(lo, TRUNC_PI_DEFAULT[1]), **known)


def roster_text(ds, config) -> list[str]:
    """Each roster entry's result as text, checking that it is a finite
    estimate or an EstimatorError and that no warning was raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, out = run_roster(ds, ROSTER, config)
    texts = []
    for (e, options), (res, _) in zip(ROSTER, out):
        if isinstance(res, EstimateResult):
            assert np.isfinite([res.psi_hat, res.se]).all(), (e, options, res)
            texts.append(repr(res))
        else:
            assert isinstance(res, EstimatorError), (e, options, res)
            texts.append(str(res))
    return texts


@settings(max_examples=200, deadline=None)
@given(case=cohorts())
@example(case=(compounding_rake_cohort(), None))
def test_every_entry_is_a_finite_estimate_or_a_named_failure(case):
    ds, config = case
    assert roster_text(ds, config) == roster_text(ds, config)
