"""ATE estimation under two-phase sampling with coarsening at random.

Eight estimators (augmented IPCW, IPCW-TMLE with and without sampling-
mechanism targeting or raking calibration, classic generalized raking, an
estimating-equations estimator, its plug-in variant, and a TMLE built on an
alternative parameter representation), plus the simulation benchmarks and a
batch CLI.
"""

from .data_model import (
    CsvSchema,
    DataError,
    Dataset,
    OutcomeScale,
    load_csv,
    scale_outcome,
    write_csv,
)
from .estimators import (
    ESTIMATOR_IDS,
    FULL_EIC_SOLVERS,
    EstimateResult,
    EstimatorError,
    EstimatorOptions,
    FittedContext,
    RakeSolution,
    rake_weights,
    run_estimator,
    run_roster,
)
from .nuisance import NuisanceConfig, NuisanceError, NuisanceSet, fit_nuisances
from .sim import DgpSpec, SimReport, StudyEstimator, StudySpec, generate, run_study

__version__ = "0.1.0"

__all__ = [
    "CsvSchema",
    "DataError",
    "Dataset",
    "OutcomeScale",
    "load_csv",
    "scale_outcome",
    "write_csv",
    "ESTIMATOR_IDS",
    "FULL_EIC_SOLVERS",
    "EstimateResult",
    "EstimatorError",
    "EstimatorOptions",
    "FittedContext",
    "RakeSolution",
    "rake_weights",
    "run_estimator",
    "run_roster",
    "NuisanceConfig",
    "NuisanceError",
    "NuisanceSet",
    "fit_nuisances",
    "DgpSpec",
    "SimReport",
    "StudyEstimator",
    "StudySpec",
    "generate",
    "run_study",
    "__version__",
]
