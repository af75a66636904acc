"""Open-set label shift estimation and classifier correction from detector scores.

Given a K-class classifier f, an ID/OOD score h in [0, 1], labeled source
predictions and unlabeled target predictions, this package estimates the
target ID label distribution and ID data ratio, corrects the ratio for
mis-specified scorers, and adapts the classifier to the target domain
without retraining. Synthetic scenarios with exact posterior oracles and
Monte-Carlo bound checks validate every estimator.
"""

from .core import (
    AmbiguousStationary,
    DegenerateSample,
    DegenerateScorer,
    ExtendedDistribution,
    IllConditioned,
    OslsError,
    ProbabilityVector,
    RecordSet,
    SourceLabelModel,
    TargetLabelModel,
    ValidationError,
    extend_distribution,
    validate_simplex,
)
from .em import EmConfig, EmTrace, closed_form_rho_t, em_step, nll_grid_argmin, osls_nll, run_em
from .estimators import (
    BoundReport,
    ScoreMeans,
    correct_rho,
    estimate_rho_s,
    estimate_source_prior_multiclass,
    rescale_mu0,
    rho_s_bound,
    rho_t_bound,
    score_mean,
    threshold_rescale,
)
from .baselines import ConfusionMatrix, bbse, mapls, mlls
from .correction import correct_posterior_closed_set, correct_records
from .metrics import EvalReport, ece, rho_abs_error, top1_accuracy, w_mse
from .pipeline import EstimateResult, estimate
from .simulate import (
    LabeledDataset,
    Scenario,
    ScenarioConfig,
    ShiftSpec,
    dirichlet_shift,
    distort_scorer,
    gen_pseudo_ood,
    make_scenario,
    ordered_lt_shift,
    ring_config,
    subsample_to_ratio,
)

__version__ = "0.1.0"

# The only numeric backend; kept as a name for callers that record it.
BACKEND = "numpy"
