"""Typed design spaces: parameters, priors, scenarios, and feature encoding.

A design space is an ordered list of typed parameters (real, integer,
ordinal, categorical). The parameter order is canonical: configurations
(plain tuples of values), feature vectors, CSV columns and enumeration order
all follow it. Scenarios bundle a space with objectives, budgets, surrogate
hyperparameters and an evaluator, and are read from a JSON setup file.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

REAL = "real"
INTEGER = "integer"
ORDINAL = "ordinal"
CATEGORICAL = "categorical"
PARAMETER_KINDS = (REAL, INTEGER, ORDINAL, CATEGORICAL)

# named Beta prior shapes -> (alpha, beta)
BETA_SHAPES = {
    "uniform": (1.0, 1.0),
    "gaussian": (3.0, 3.0),
    "decay": (0.5, 1.5),
    "exponential": (1.5, 0.5),
}

ENUMERATION_CAP = 10_000_000

# characters the CSV protocol and artifacts cannot carry in a name or level
CSV_RESERVED = ',"\r\n'


class ValidationError(ValueError):
    """A scenario or design-space definition violates its invariants."""


class DomainError(ValueError):
    """A value lies outside its parameter's domain."""


class EnumerationError(ValueError):
    """The space cannot be exhaustively enumerated (reals or too large)."""


def canonical_str(value: Any) -> str:
    """Canonical wire/CSV form: booleans lowercase, ints bare, floats via
    shortest round-trip repr, strings unchanged; numpy scalars as their
    Python values."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class Prior:
    """Belief about where a parameter's good values lie.

    Numeric parameters (real/integer/ordinal) carry a Beta(alpha, beta)
    density over the unit interval, rescaled onto the domain at sampling
    time. Categorical parameters carry an explicit probability per level.
    """

    shape: str  # "uniform" | "gaussian" | "decay" | "exponential" | "beta" | "categorical"
    alpha: float = 1.0
    beta: float = 1.0
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.shape == "categorical":
            if self.probs is None:
                raise ValidationError("categorical prior requires probabilities")
            if not all(p >= 0 for p in self.probs):  # NaN too
                raise ValidationError("categorical prior probabilities must be >= 0")
            total = math.fsum(self.probs)
            if abs(total - 1.0) > 1e-9:
                raise ValidationError(f"probabilities sum to {total:g}, expected 1")
        else:
            if not (self.alpha > 0 and self.beta > 0):
                raise ValidationError("Beta prior requires alpha > 0 and beta > 0")
            if not (self.alpha < math.inf and self.beta < math.inf):
                raise ValidationError("Beta prior requires finite alpha and beta")
            if self.probs is not None:
                raise ValidationError("probability table only valid for categorical priors")


UNIFORM_PRIOR = Prior("uniform", *BETA_SHAPES["uniform"])


@dataclass(frozen=True)
class Parameter:
    """One typed dimension of the design space.

    Domain representation by kind:
      real / integer -> [lower, upper] bounds (inclusive);
      ordinal        -> ``values``: strictly increasing numeric tuple;
      categorical    -> ``values``: distinct level strings in declaration order.
    """

    name: str
    kind: str
    lower: float | None = None
    upper: float | None = None
    values: tuple = ()
    prior: Prior = UNIFORM_PRIOR

    def __post_init__(self):
        if self.kind not in PARAMETER_KINDS:
            raise ValidationError(f"{self.name}: unknown parameter kind {self.kind!r}")
        if self.kind in (REAL, INTEGER):
            if self.lower is None or self.upper is None:
                raise ValidationError(f"{self.name}: {self.kind} parameter needs [lower, upper]")
            if not all(-math.inf < b < math.inf for b in (self.lower, self.upper)):  # NaN too
                raise ValidationError(f"{self.name}: {self.kind} bounds must be finite")
            if self.kind == INTEGER and not all(b == int(b) for b in (self.lower, self.upper)):
                raise ValidationError(f"{self.name}: integer bounds must be integral")
            if self.lower > self.upper:
                raise ValidationError(f"{self.name}: lower bound exceeds upper bound")
            if self.kind == INTEGER and max(-self.lower, self.upper) > 2 ** 53:
                raise ValidationError(  # beyond it, features and decoded values would round
                    f"{self.name}: integer bounds must lie within +-2**53")
        elif self.kind == ORDINAL:
            if not self.values:
                raise ValidationError(f"{self.name}: ordinal value list is empty")
            vals = list(self.values)
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       and -sys.float_info.max <= v <= sys.float_info.max for v in vals):
                raise ValidationError(f"{self.name}: ordinal values must be finite numbers")
            if any(not (a < b) for a, b in zip(vals, vals[1:])):
                raise ValidationError(f"{self.name}: ordinal values must be strictly increasing")
        else:  # categorical
            if not self.values:
                raise ValidationError(f"{self.name}: categorical level list is empty")
            if len(set(self.values)) != len(self.values):
                raise ValidationError(f"{self.name}: categorical levels must be distinct")
            for lv in self.values:
                if not isinstance(lv, str):
                    raise ValidationError(f"{self.name}: categorical levels must be strings")
                if any(ch in lv for ch in CSV_RESERVED):
                    raise ValidationError(
                        f"{self.name}: level {lv!r} contains a character reserved by the CSV protocol"
                    )
        if self.kind == CATEGORICAL:
            if self.prior.shape != "categorical" and self.prior != UNIFORM_PRIOR:
                raise ValidationError(f"{self.name}: categorical parameters take probability priors")
            if self.prior.shape == "categorical" and len(self.prior.probs) != len(self.values):
                raise ValidationError(
                    f"{self.name}: prior lists {len(self.prior.probs)} probabilities "
                    f"for {len(self.values)} levels"
                )
        elif self.prior.shape == "categorical":
            raise ValidationError(f"{self.name}: probability priors only attach to categorical parameters")

    # -- domain helpers -----------------------------------------------------

    def domain_size(self) -> int | None:
        """Number of attainable values; None when uncountable (real)."""
        if self.kind == REAL:
            return None
        if self.kind == INTEGER:
            return int(self.upper) - int(self.lower) + 1
        return len(self.values)

    def domain_values(self) -> tuple:
        """Attainable values in canonical (ascending / declared) order."""
        if self.kind == REAL:
            raise EnumerationError(f"{self.name}: real parameters cannot be enumerated")
        if self.kind == INTEGER:
            return tuple(range(int(self.lower), int(self.upper) + 1))
        return self.values

    def encode_column(self, values: Sequence[Any]) -> np.ndarray:
        """Forest features of a column of values: the values, or level indices
        for a categorical parameter. The first value outside the domain raises
        a DomainError: a boolean, a NaN or an out-of-bounds number for a real,
        also a non-int for an integer, or a value equal to no ordinal value or
        level (looked up by hash, which agrees with ``==`` on numbers and strings)."""
        if self.kind in (REAL, INTEGER):
            numeric = (int, float) if self.kind == REAL else int
            wrong = {t for t in set(map(type, values)) if t is bool or not issubclass(t, numeric)}
            col = np.array([math.nan if type(v) in wrong else v for v in values] if wrong else values,
                           dtype=float)
            bad = ~((col >= self.lower) & (col <= self.upper))  # wrong types and NaN fail too
        else:
            codes = {v: float(i if self.kind == CATEGORICAL else v) for i, v in enumerate(self.values)}
            found = []
            try:
                found.extend(map(codes.get, values))
            except TypeError:  # an unhashable value; extend kept the ones before it
                found.append(None)
            col = np.array(found, dtype=float)
            bad = np.isnan(col)  # codes.get gave None, now NaN, outside the domain
        if bad.any():
            raise DomainError(f"{self.name}: value {values[int(bad.argmax())]!r} outside domain")
        return col

    def code_levels(self, levels: np.ndarray) -> np.ndarray:
        """The encoded column of level indices into :meth:`domain_values`
        (not defined for reals)."""
        if self.kind == INTEGER:
            return self.lower + levels
        if self.kind == ORDINAL:
            return np.array(self.values, dtype=float)[levels]
        return levels

    def column_levels(self, col: np.ndarray) -> np.ndarray:
        """Level indices of an encoded column; the inverse of :meth:`code_levels`."""
        if self.kind == INTEGER:
            return (col - self.lower).astype(np.int64)
        if self.kind == ORDINAL:
            return np.searchsorted(np.array(self.values, dtype=float), col)
        return col.astype(np.int64)


@dataclass(frozen=True)
class DesignSpace:
    parameters: tuple[Parameter, ...]

    def __post_init__(self):
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ValidationError("parameter names must be unique")
        if not self.parameters:
            raise ValidationError("design space has no parameters")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    @property
    def unordered_mask(self) -> tuple[bool, ...]:
        return tuple(p.kind == CATEGORICAL for p in self.parameters)

    def cardinality(self) -> int | None:
        """Exact number of configurations, or None when any real parameter
        makes the space uncountable."""
        total = 1
        for p in self.parameters:
            size = p.domain_size()
            if size is None:
                return None
            total *= size
        return total


def encode_matrix(space: DesignSpace, configs: Sequence[tuple]) -> np.ndarray:
    """One row per configuration and one column per parameter, encoded by
    :meth:`Parameter.encode_column` (categoricals as level indices)."""
    if set(map(len, configs)) - {len(space.parameters)}:
        raise DomainError("configuration length does not match parameter count")
    X = np.empty((len(configs), len(space.parameters)))
    for j, (p, col) in enumerate(zip(space.parameters, zip(*configs))):
        X[:, j] = p.encode_column(col)
    return X


def decode_matrix(space: DesignSpace, X: np.ndarray) -> list[tuple]:
    """The configurations of an encoded matrix's rows; the inverse of
    :func:`encode_matrix`. Reals come back as float, integers as int,
    ordinals as their declared value objects and categoricals as their
    level strings."""
    columns = []
    for p, col in zip(space.parameters, np.asarray(X, dtype=float).T):
        if p.kind == REAL:
            columns.append(col.tolist())
        elif p.kind == INTEGER:
            columns.append(col.astype(np.int64).tolist())
        else:
            columns.append([p.values[i] for i in p.column_levels(col).tolist()])
    return list(zip(*columns))


def _radix(space: DesignSpace) -> np.ndarray | None:
    """Mixed-radix place values of the level indices, the last parameter
    fastest; None unless the space is finite with cardinality below 2**63."""
    card = space.cardinality()
    if card is None or card >= 2 ** 63:
        return None
    places = [1]
    for p in space.parameters[:0:-1]:
        places.append(places[-1] * p.domain_size())
    return np.array(places[::-1], dtype=np.int64)


def rank_rows(space: DesignSpace, ranks: np.ndarray) -> np.ndarray:
    """The encoded rows at the given positions of the enumeration order,
    column-major; ``rank_rows(space, arange(cardinality))`` encodes
    :func:`enumerate_space`."""
    X = np.empty((len(ranks), len(space.parameters)), order="F")
    for j, (p, place) in enumerate(zip(space.parameters, _radix(space))):
        X[:, j] = p.code_levels(ranks // place % p.domain_size())
    return X


def row_keys(space: DesignSpace, X: np.ndarray) -> np.ndarray:
    """One integer per encoded row, equal for equal rows, computed column by
    column. In a finite space of cardinality below 2**63 the key is exact:
    the row's position in the enumeration order, a mixed-radix number over
    its level indices. Other spaces get a uint64 hash of the row's bits,
    which distinct rows may share."""
    places = _radix(space)
    if places is not None:
        keys = np.zeros(len(X), dtype=np.int64)
        for p, place, col in zip(space.parameters, places, X.T):
            keys += p.column_levels(col) * place
        return keys
    keys = np.zeros(len(X), dtype=np.uint64)
    for col in X.T:
        keys ^= (col + 0.0).view(np.uint64)  # + 0.0 turns -0.0 into 0.0, which equals it
        keys *= 0x9E3779B97F4A7C15
        keys ^= keys >> 29
    return keys


@dataclass(frozen=True, eq=False)  # array fields: equality is identity
class RowSet:
    """An immutable set of encoded rows: ``rows`` in the order they joined,
    ``keys`` their :func:`row_keys` in that order, and ``known`` the keys
    sorted for ``searchsorted``. Exact keys decide alone; rows that share a
    hashed (uint64) key are compared, so distinct rows are never merged. A
    run's archive is one, grown by each batch; its rows are the fit matrix."""

    rows: np.ndarray
    keys: np.ndarray
    known: np.ndarray

    @classmethod
    def of(cls, space: DesignSpace, X: np.ndarray) -> RowSet:
        """X's distinct rows in first-occurrence order, each keyed once."""
        keys = row_keys(space, X)
        empty = cls(X[:0], keys[:0], keys[:0])
        keep = empty.new(X, keys)
        return empty.union(X[keep], keys[keep])

    def __len__(self) -> int:
        return len(self.known)

    def new(self, X: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Which rows of X, keyed ``keys``, are new: equal to no row of the
        set and to no earlier row of X. Returns a boolean mask over X."""
        ks = np.sort(keys)
        new = np.empty(len(ks), dtype=bool)
        new[:1] = True
        np.not_equal(ks[1:], ks[:-1], out=new[1:])
        if len(self):
            new &= self.known.take(self.known.searchsorted(ks), mode="clip") != ks
        if new.all():  # then the order of X does not matter
            return new
        keep = np.empty(len(ks), dtype=bool)
        keep[keys.argsort(kind="stable")] = new  # of equal keys, the earliest drawn is new
        if keys.dtype == np.uint64:
            for key in np.unique(ks[~new]):
                owner = set(map(tuple, self.rows[self.keys == key].tolist()))
                for i in np.flatnonzero(keys == key).tolist():
                    row = tuple(X[i].tolist())
                    keep[i] = row not in owner
                    owner.add(row)
        return keep

    def union(self, X: np.ndarray, keys: np.ndarray) -> RowSet:
        """The set with the new rows X (see :meth:`new`), keyed ``keys``, appended."""
        return RowSet(np.concatenate([self.rows, X]), np.concatenate([self.keys, keys]),
                      np.sort(np.concatenate([self.known, keys])))


def distinct_rows(space: DesignSpace, n: int, draw: Callable[[int], np.ndarray], rng,
                  taken: RowSet | None = None, limit: int | None = None) -> np.ndarray:
    """Up to n distinct encoded rows, none in the set ``taken`` (None:
    nothing taken). When n covers what a finite space has left untaken, that
    comes back in enumeration order, and nothing is drawn. Otherwise
    ``draw(k)`` supplies blocks of k rows, k never more than the rows still
    missing, and each block is keyed once (:func:`row_keys`): its rows that
    are not :meth:`RowSet.new` against the taken and kept rows are dropped. A
    block that loses no row is returned as drawn, not copied, so a pool drawn
    in one column-major block stays that one buffer; the kept rows join the
    set only when another block or the top-up follows. After ``limit`` drawn
    rows (default 100*n) a finite space is topped up with a
    ``rng.generator.permutation`` of the ranks neither taken nor kept, read
    off the set's keys, so the result is short only when the space runs out."""
    card = space.cardinality()
    finite = card is not None and card <= ENUMERATION_CAP
    nothing = np.empty((0, len(space.parameters)))
    taken = RowSet.of(space, nothing) if taken is None else taken
    whole = finite and n >= card - len(taken)
    kept, missing = [], n
    left = 0 if whole else 100 * n if limit is None else limit
    while missing > 0 and left > 0:
        k = min(missing, left)
        left -= k
        X = draw(k)
        keys = row_keys(space, X)
        keep = taken.new(X, keys)
        kept.append(X if keep.all() else X.T.compress(keep, axis=1).T)  # column-major
        missing -= len(kept[-1])
        if missing > 0:
            taken = taken.union(kept[-1], keys[keep])
    if missing > 0 and finite:
        used = np.zeros(card, dtype=bool)
        used[taken.known] = True
        unused = np.flatnonzero(~used)
        if not whole:
            unused = unused[rng.generator.permutation(len(unused))]
        kept.append(rank_rows(space, unused[:missing]))
    return kept[0] if len(kept) == 1 else np.concatenate(kept or [nothing])


def enumerate_space(space: DesignSpace) -> Iterator[tuple]:
    """Every configuration exactly once, lexicographically in canonical
    parameter order. Requires a finite space no larger than ``ENUMERATION_CAP``."""
    card = space.cardinality()
    if card is None:
        raise EnumerationError("space with real parameters cannot be enumerated")
    if card > ENUMERATION_CAP:
        raise EnumerationError(f"cardinality {card} exceeds enumeration cap {ENUMERATION_CAP}")
    return itertools.product(*(p.domain_values() for p in space.parameters))


# ---------------------------------------------------------------------------
# Scenario: the JSON setup file
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibleOutput:
    name: str
    true_value: str = "true"


@dataclass(frozen=True)
class Scenario:
    application_name: str
    objectives: tuple[str, ...]
    space: DesignSpace
    evaluator: "EvaluatorSpec"
    feasibility: FeasibleOutput | None
    doe_samples: int
    optimization_iterations: int
    evaluations_per_iteration: int
    pareto_prediction_samples: int
    regressor_hp: "ForestHyperparams"
    classifier_hp: "ForestHyperparams"
    seed: int
    output_dir: str
    use_feasibility_filter: bool
    feasibility_threshold: float

    def __post_init__(self):
        if len(self.objectives) < 1:
            raise ValidationError("at least one optimization objective is required")
        if len(set(self.objectives)) != len(self.objectives):
            raise ValidationError("objective names must be distinct")
        if set(self.objectives) & set(self.space.names):
            raise ValidationError("objective names must differ from parameter names")
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


_TOP_LEVEL_KEYS = {
    "application_name", "optimization_objectives", "feasible_output",
    "input_parameters", "design_of_experiment", "optimization_iterations",
    "evaluations_per_optimization_iteration", "pareto_prediction_samples",
    "seed", "output_dir", "evaluator", "surrogate",
    "use_feasibility_filter", "feasibility_threshold",
}
_PARAM_KEYS = {"parameter_type", "values", "prior"}


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


def _require_unpadded(text: str, field: str) -> None:
    """Text without leading or trailing whitespace, else a ValidationError
    naming the field: evaluator responses are read with their cells stripped,
    so a padded name or value would never match its response cell."""
    if text != text.strip():
        raise ValidationError(f"{field}: {text!r} has leading or trailing whitespace")


def _require_column_name(name: str, field: str) -> None:
    """A parameter or objective name that can head its own CSV column, else a
    ValidationError naming the field. Records CSVs add the two columns
    ``feasible`` and ``iteration_tag`` after the parameters and objectives."""
    _require_unpadded(name, field)
    if name in ("feasible", "iteration_tag"):
        raise ValidationError(f"{field}: name {name!r} is reserved for a records CSV column")
    if any(ch in name for ch in CSV_RESERVED):
        raise ValidationError(
            f"{field}: name {name!r} contains a character reserved by the CSV protocol")


def _parse_prior(raw: Any, kind: str, where: str) -> Prior:
    """The prior of a JSON parameter entry. JSON types are checked here and
    value rules by ``Prior`` (and ``Parameter``), whose messages get ``where``."""
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
    try:
        if kind == CATEGORICAL:
            return Prior("categorical", probs=numbers)
        return Prior("beta", *numbers)
    except ValidationError as e:
        raise ValidationError(f"{where}: {e}") from None


def _parse_parameter(name: str, raw: Any) -> Parameter:
    where = f"input_parameters.{name}"
    _require_column_name(name, where)
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: expected an object")
    unknown = set(raw) - _PARAM_KEYS
    if unknown:
        raise ValidationError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    kind = raw.get("parameter_type")
    if kind not in PARAMETER_KINDS:
        raise ValidationError(f"{where}: unknown parameter kind {kind!r}")
    values = raw.get("values")
    if not isinstance(values, list) or not values:
        raise ValidationError(f"{where}: 'values' must be a non-empty list")
    prior = _parse_prior(raw.get("prior"), kind, where)

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
    else:  # categorical: canonicalize levels to strings, keep declaration order
        domain = {"values": tuple(canonical_str(v) for v in values)}
        for level in domain["values"]:
            _require_unpadded(level, where)
    try:
        return Parameter(name, kind, prior=prior, **domain)
    except ValidationError as e:  # its messages start with the parameter name
        raise ValidationError(f"input_parameters.{e}") from None


def decode_scenario(json_text: str) -> dict:
    """The JSON object of a scenario document; malformed JSON is reported
    with its line and column."""
    try:
        doc = json.loads(json_text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"scenario JSON parse error at line {e.lineno} column {e.colno}: {e.msg}")
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a JSON object")
    return doc


def parse_scenario(json_text: str) -> Scenario:
    """Parse and validate a scenario JSON document (see :func:`scenario_from_doc`)."""
    return scenario_from_doc(decode_scenario(json_text))


def scenario_from_doc(doc: dict) -> Scenario:
    """Validate a decoded scenario document.

    Optional fields take the documented defaults; every parameter without a
    prior gets the uniform one. Structural violations name the offending
    field.
    """
    from .evaluators import parse_evaluator
    from .forest import parse_hyperparams

    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ValidationError(f"unknown scenario field {sorted(unknown)[0]!r}")
    for req in ("application_name", "optimization_objectives", "input_parameters", "evaluator"):
        if req not in doc:
            raise ValidationError(f"missing required scenario field {req!r}")

    objectives = doc["optimization_objectives"]
    if not isinstance(objectives, list) or not all(isinstance(o, str) for o in objectives):
        raise ValidationError("optimization_objectives must be a list of strings")
    for name in objectives:
        _require_column_name(name, "optimization_objectives")

    raw_params = doc["input_parameters"]
    if not isinstance(raw_params, dict) or not raw_params:
        raise ValidationError("input_parameters must be a non-empty object")
    params = tuple(_parse_parameter(name, raw) for name, raw in raw_params.items())
    space = DesignSpace(params)

    feasibility = None
    if doc.get("feasible_output") is not None:
        fo = doc["feasible_output"]
        if not isinstance(fo, dict) or "name" not in fo:
            raise ValidationError("feasible_output must be an object with a 'name'")
        feasibility = FeasibleOutput(
            require_str(fo["name"], "feasible_output.name"),
            require_str(fo.get("true_value", "true"), "feasible_output.true_value"))
        _require_unpadded(feasibility.name, "feasible_output.name")
        _require_unpadded(feasibility.true_value, "feasible_output.true_value")
        if feasibility.name in set(objectives) | set(space.names):
            raise ValidationError("feasible_output.name clashes with another column name")

    doe = doc.get("design_of_experiment", {})
    if not isinstance(doe, dict):
        raise ValidationError("design_of_experiment must be an object")
    n_samples = require_int(doe.get("number_of_samples", 1000),
                            "design_of_experiment.number_of_samples")

    surrogate = doc.get("surrogate", {})
    if not isinstance(surrogate, dict):
        raise ValidationError("surrogate must be an object")
    regressor_hp = parse_hyperparams(surrogate.get("regressor", {}), classifier=False)
    classifier_hp = parse_hyperparams(surrogate.get("classifier", {}), classifier=True)

    evaluator = parse_evaluator(doc["evaluator"], tuple(objectives), feasibility)

    return Scenario(
        application_name=require_str(doc["application_name"], "application_name"),
        objectives=tuple(objectives),
        space=space,
        evaluator=evaluator,
        feasibility=feasibility,
        doe_samples=n_samples,
        optimization_iterations=require_int(doc.get("optimization_iterations", 50),
                                            "optimization_iterations"),
        evaluations_per_iteration=require_int(doc.get("evaluations_per_optimization_iteration", 100),
                                              "evaluations_per_optimization_iteration"),
        pareto_prediction_samples=require_int(doc.get("pareto_prediction_samples", 100_000),
                                              "pareto_prediction_samples"),
        regressor_hp=regressor_hp,
        classifier_hp=classifier_hp,
        seed=require_int(doc.get("seed", 0), "seed"),
        output_dir=require_str(doc.get("output_dir", "dse_output"), "output_dir"),
        use_feasibility_filter=require_bool(doc.get("use_feasibility_filter", True),
                                            "use_feasibility_filter"),
        feasibility_threshold=require_number(doc.get("feasibility_threshold", 0.5),
                                             "feasibility_threshold"),
    )

