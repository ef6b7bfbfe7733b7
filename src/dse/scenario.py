"""The scenario file: the one JSON document that drives a run, and its reader.

A :class:`Scenario` bundles a design space with the objectives it measures,
the feasibility output, the budgets, the surrogate hyperparameters and the
evaluator. This is the only module that knows the JSON format. Each JSON
object, from the top level down to ``surrogate.classifier.class_weight``, is
read by :func:`_section`: it must be an object, name no key the format does
not know and hold its required keys. The reader checks JSON types only;
every value rule lives in the type it guards (``Prior``, ``Parameter``,
``DesignSpace``, ``FeasibleOutput``, ``ForestHyperparams``,
``EvaluatorSpec``, ``Scenario``), so library callers meet the same rules.
A constructor's ``ValueError`` reaches the user as a ``ValidationError``
that names its section (:func:`_built`).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Collection

from .evaluators import EvaluatorSpec
from .forest import ForestHyperparams
from .space import (
    BETA_SHAPES,
    CATEGORICAL,
    INTEGER,
    ORDINAL,
    REAL,
    UNIFORM_PRIOR,
    DesignSpace,
    Parameter,
    Prior,
    ValidationError,
    canonical_str,
    check_column_name,
    check_unpadded,
)


@dataclass(frozen=True)
class FeasibleOutput:
    """The evaluator output that says whether a configuration is feasible:
    it is when that output, in canonical form, equals ``true_value``."""

    name: str
    true_value: str = "true"

    def __post_init__(self):
        check_unpadded(self.name, "feasible_output.name")
        check_unpadded(self.true_value, "feasible_output.true_value")


@dataclass(frozen=True)
class Scenario:
    """A run's whole setup. Objective names head CSV columns as parameter
    names do (:func:`~dse.space.check_column_name`), and the feasibility
    output shares its name with no parameter or objective."""

    application_name: str
    objectives: tuple[str, ...]
    space: DesignSpace
    evaluator: EvaluatorSpec
    feasibility: FeasibleOutput | None
    doe_samples: int
    optimization_iterations: int
    evaluations_per_iteration: int
    pareto_prediction_samples: int
    regressor_hp: ForestHyperparams
    classifier_hp: ForestHyperparams
    seed: int
    output_dir: str
    use_feasibility_filter: bool
    feasibility_threshold: float

    def __post_init__(self):
        if len(self.objectives) < 1:
            raise ValidationError("at least one optimization objective is required")
        for name in self.objectives:
            check_column_name(name, "optimization_objectives")
        if len(set(self.objectives)) != len(self.objectives):
            raise ValidationError("objective names must be distinct")
        if set(self.objectives) & set(self.space.names):
            raise ValidationError("objective names must differ from parameter names")
        if self.feasibility is not None and self.feasibility.name in {*self.objectives,
                                                                      *self.space.names}:
            raise ValidationError("feasible_output.name clashes with another column name")
        if self.doe_samples < 1:
            raise ValidationError("design_of_experiment.number_of_samples must be >= 1")
        if self.optimization_iterations < 0:
            raise ValidationError("optimization_iterations must be >= 0")
        if self.evaluations_per_iteration < 1:
            raise ValidationError("evaluations_per_optimization_iteration must be >= 1")
        if self.pareto_prediction_samples < 1:
            raise ValidationError("pareto_prediction_samples must be >= 1")
        if not (0.0 < self.feasibility_threshold < 1.0):
            raise ValidationError("feasibility_threshold must lie in (0, 1)")

    @property
    def filters_feasibility(self) -> bool:
        """Whether a run drops the candidates predicted infeasible."""
        return self.use_feasibility_filter and self.feasibility is not None


_TOP_LEVEL_KEYS = {
    "application_name", "optimization_objectives", "feasible_output",
    "input_parameters", "design_of_experiment", "optimization_iterations",
    "evaluations_per_optimization_iteration", "pareto_prediction_samples",
    "seed", "output_dir", "evaluator", "surrogate",
    "use_feasibility_filter", "feasibility_threshold",
}


def require_int(value: Any, field: str) -> int:
    """A JSON integer (booleans excluded), else a ValidationError naming the field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{field} must be an integer, got {value!r}")
    return value


def require_bool(value: Any, field: str) -> bool:
    """A JSON boolean, else a ValidationError naming the field."""
    if not isinstance(value, bool):
        raise ValidationError(f"{field} must be true or false, got {value!r}")
    return value


def require_str(value: Any, field: str) -> str:
    """A JSON string, else a ValidationError naming the field."""
    if not isinstance(value, str):
        raise ValidationError(f"{field} must be a string, got {value!r}")
    return value


def require_number(value: Any, field: str) -> float:
    """A finite JSON number (booleans excluded), else a ValidationError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{field} must be a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN too
        raise ValidationError(f"{field} must be finite, got {value!r}")
    return float(value)


def _section(raw: Any, where: str, keys: Collection[str] | None = None,
             required: Collection[str] = ()) -> dict:
    """``raw`` if it is a JSON object that names no key outside ``keys``
    (None: any key) and holds every ``required`` one, else a ValidationError
    naming the section ``where``. A misspelt key fails here instead of
    leaving its field at the default."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(raw if keys is None else keys))
    if unknown:
        raise ValidationError(f"{where}: unknown key {unknown[0]!r}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValidationError(f"{where}: missing required key {missing[0]!r}")
    return raw


def _built(prefix: str, make: Callable, *args, **kwargs):
    """``make(*args, **kwargs)``, whose ValueError becomes a ValidationError
    led by ``prefix``: the section and a separator, ``"evaluator: "``, or
    ``"input_parameters."`` before a ``Parameter`` message, which starts with
    the parameter's name."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ValidationError(f"{prefix}{e}") from e


def _read_prior(raw: Any, kind: str, where: str) -> Prior:
    """The prior of a JSON parameter entry: a named shape, an [alpha, beta]
    pair or (categorical) a probability list; None is the uniform prior."""
    if raw is None:
        return UNIFORM_PRIOR
    if isinstance(raw, str):
        if raw not in BETA_SHAPES:
            raise ValidationError(f"{where}: unknown prior shape {raw!r}")
        return Prior(raw, *BETA_SHAPES[raw])
    if not isinstance(raw, list):
        raise ValidationError(f"{where}: unrecognized prior {raw!r}")
    if kind != CATEGORICAL and len(raw) != 2:
        raise ValidationError(f"{where}: Beta prior must be a two-element [alpha, beta] list")
    numbers = tuple(require_number(v, f"{where}.prior") for v in raw)
    if kind == CATEGORICAL:
        return _built(f"{where}: ", Prior, "categorical", probs=numbers)
    return _built(f"{where}: ", Prior, "beta", *numbers)


def _read_parameter(name: str, raw: Any) -> Parameter:
    where = f"input_parameters.{name}"
    raw = _section(raw, where, {"parameter_type", "values", "prior"},
                   required=("parameter_type", "values"))
    kind = require_str(raw["parameter_type"], f"{where}.parameter_type")
    values = raw["values"]
    if not isinstance(values, list):
        raise ValidationError(f"{where}.values must be a list, got {values!r}")
    prior = _read_prior(raw.get("prior"), kind, where)
    if kind in (REAL, INTEGER):
        if len(values) != 2:
            raise ValidationError(f"{where}: {kind} takes a [lower, upper] pair")
        read = require_number if kind == REAL else require_int
        lower, upper = (read(v, f"{where}.values") for v in values)
        domain = {"lower": lower, "upper": upper}
    elif kind == ORDINAL:  # the list may arrive unsorted; canonical order is ascending
        for v in values:
            require_number(v, f"{where}.values")
        domain = {"values": tuple(sorted(values))}
    else:  # categorical (Parameter rejects any other kind): levels as strings, in order
        domain = {"values": tuple(canonical_str(v) for v in values)}
    return _built("input_parameters.", Parameter, name, kind, prior=prior, **domain)


def _read_hyperparams(surrogate: dict, role: str) -> ForestHyperparams:
    """The ``surrogate.regressor`` or ``surrogate.classifier`` section; only
    the classifier takes a ``class_weight``."""
    where = f"surrogate.{role}"
    keys = {"n_estimators", "max_depth", "max_features", "bootstrap", "min_samples_split"}
    raw = _section(surrogate.get(role, {}), where,
                   keys | {"class_weight"} if role == "classifier" else keys)
    kwargs: dict = {}
    for key in ("n_estimators", "min_samples_split"):
        if key in raw:
            kwargs[key] = require_int(raw[key], f"{where}.{key}")
    if raw.get("max_depth") is not None:
        kwargs["max_depth"] = require_int(raw["max_depth"], f"{where}.max_depth")
    if "max_features" in raw:
        mf = raw["max_features"]
        kwargs["max_features"] = mf if mf == "auto" else require_number(mf, f"{where}.max_features")
    if "bootstrap" in raw:
        kwargs["bootstrap"] = require_bool(raw["bootstrap"], f"{where}.bootstrap")
    if "class_weight" in raw:
        labels = ("true", "false")
        cw = _section(raw["class_weight"], f"{where}.class_weight", labels, required=labels)
        kwargs["class_weight"] = tuple(require_number(cw[k], f"{where}.class_weight.{k}")
                                       for k in labels)
    return _built(f"{where}: ", ForestHyperparams, **kwargs)


def _read_evaluator(raw: Any) -> EvaluatorSpec:
    """The ``evaluator`` section: {"builtin": name}, or {"command": "...",
    "working_dir": "...", "timeout_seconds": s}; ``EvaluatorSpec`` says which
    keys go together. A null text field counts as absent."""
    raw = _section(raw, "evaluator", {"builtin", "command", "working_dir", "timeout_seconds"})
    kwargs: dict = {field: require_str(raw[key], f"evaluator.{key}")
                    for key, field in (("builtin", "name"), ("command", "command"),
                                       ("working_dir", "working_dir"))
                    if raw.get(key) is not None}
    if "timeout_seconds" in raw:
        kwargs["timeout_seconds"] = require_number(raw["timeout_seconds"],
                                                   "evaluator.timeout_seconds")
    return _built("evaluator: ", EvaluatorSpec, **kwargs)


def decode_scenario(json_text: str) -> dict:
    """The JSON object of a scenario document; malformed JSON is reported
    with its line and column."""
    try:
        doc = json.loads(json_text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"scenario JSON parse error at line {e.lineno} column {e.colno}: {e.msg}")
    return _section(doc, "scenario document")


def parse_scenario(json_text: str) -> Scenario:
    """Parse and validate a scenario JSON document (see :func:`scenario_from_doc`)."""
    return scenario_from_doc(decode_scenario(json_text))


def scenario_from_doc(doc: dict) -> Scenario:
    """Validate a decoded scenario document.

    Optional fields take the documented defaults; every parameter without a
    prior gets the uniform one. Structural violations name the offending
    field.
    """
    doc = _section(doc, "scenario document", _TOP_LEVEL_KEYS, required=(
        "application_name", "optimization_objectives", "input_parameters", "evaluator"))

    objectives = doc["optimization_objectives"]
    if not isinstance(objectives, list) or not all(isinstance(o, str) for o in objectives):
        raise ValidationError("optimization_objectives must be a list of strings")

    raw_params = _section(doc["input_parameters"], "input_parameters")
    space = _built("input_parameters: ", DesignSpace,
                   tuple(_read_parameter(name, raw) for name, raw in raw_params.items()))

    feasibility = None
    if doc.get("feasible_output") is not None:
        fo = _section(doc["feasible_output"], "feasible_output", {"name", "true_value"},
                      required=("name",))
        feasibility = FeasibleOutput(**{key: require_str(value, f"feasible_output.{key}")
                                        for key, value in fo.items()})

    doe = _section(doc.get("design_of_experiment", {}), "design_of_experiment",
                   {"number_of_samples"})
    surrogate = _section(doc.get("surrogate", {}), "surrogate", {"regressor", "classifier"})

    return Scenario(
        application_name=require_str(doc["application_name"], "application_name"),
        objectives=tuple(objectives),
        space=space,
        evaluator=_read_evaluator(doc["evaluator"]),
        feasibility=feasibility,
        doe_samples=require_int(doe.get("number_of_samples", 1000),
                                "design_of_experiment.number_of_samples"),
        optimization_iterations=require_int(doc.get("optimization_iterations", 50),
                                            "optimization_iterations"),
        evaluations_per_iteration=require_int(doc.get("evaluations_per_optimization_iteration", 100),
                                              "evaluations_per_optimization_iteration"),
        pareto_prediction_samples=require_int(doc.get("pareto_prediction_samples", 100_000),
                                              "pareto_prediction_samples"),
        regressor_hp=_read_hyperparams(surrogate, "regressor"),
        classifier_hp=_read_hyperparams(surrogate, "classifier"),
        seed=require_int(doc.get("seed", 0), "seed"),
        output_dir=require_str(doc.get("output_dir", "dse_output"), "output_dir"),
        use_feasibility_filter=require_bool(doc.get("use_feasibility_filter", True),
                                            "use_feasibility_filter"),
        feasibility_threshold=require_number(doc.get("feasibility_threshold", 0.5),
                                             "feasibility_threshold"),
    )
