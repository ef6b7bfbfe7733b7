"""Multi-objective design-space exploration for expensive black boxes.

Prior-guided warm-up sampling, per-objective random-forest surrogates, a
random-forest feasibility filter, and an active-learning loop that peels
successive predicted Pareto layers while never re-evaluating a point.
A run returns its records; their hypervolume indicator (HVI) against a
reference front is computed from them, for any number of objectives.
"""

__version__ = "0.1.0"

from .forest import (
    Forest,
    ForestHyperparams,
    feature_importance,
    fit_classifier,
    fit_regressor,
    kfold_recall,
)
from .pareto import (
    EvaluationRecord,
    constrained_front,
    dominates,
    hvi,
    hypervolume,
    objective_stddevs,
    pareto_front,
    reference_front,
)
from .priors import beta_pdf, sample_beta, warmup_sample
from .rng import RngState
from .space import (
    DesignSpace,
    DomainError,
    EnumerationError,
    Parameter,
    Prior,
    RowSet,
    ValidationError,
    decode_matrix,
    encode_matrix,
    enumerate_space,
)
from .evaluators import (
    EvaluationError,
    EvaluatorSpec,
    brute_force_front,
    evaluate_batch,
    toy_fpga,
)
from .scenario import Scenario, parse_scenario
from .optimizer import candidate_pool, predict_pareto, run, select_batch

__all__ = [
    "DesignSpace", "DomainError", "EnumerationError", "EvaluationError",
    "EvaluationRecord", "EvaluatorSpec", "Forest", "ForestHyperparams",
    "Parameter", "Prior", "RngState", "RowSet", "Scenario", "ValidationError",
    "beta_pdf", "brute_force_front", "candidate_pool", "constrained_front",
    "decode_matrix", "dominates", "encode_matrix", "enumerate_space",
    "evaluate_batch", "feature_importance", "fit_classifier",
    "fit_regressor", "hvi", "hypervolume", "kfold_recall",
    "objective_stddevs", "parse_scenario", "pareto_front", "predict_pareto",
    "reference_front", "run", "sample_beta", "select_batch",
    "toy_fpga", "warmup_sample",
]
