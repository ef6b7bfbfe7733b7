import json
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dse import (
    DesignSpace,
    EnumerationError,
    Parameter,
    Prior,
    ValidationError,
    enumerate_space,
    parse_scenario,
)
from dse.scenario import FeasibleOutput
from dse.space import ENUMERATION_CAP, UNIFORM_PRIOR, encode_matrix

MINIMAL = {
    "application_name": "demo",
    "optimization_objectives": ["cost"],
    "input_parameters": {
        "a": {"parameter_type": "ordinal", "values": [1, 5, 8]},
        "b": {"parameter_type": "categorical", "values": [True, False]},
    },
    "evaluator": {"builtin": "toy_fpga"},
}


def make_scenario(**changes):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(changes)
    return parse_scenario(json.dumps(doc))


def test_parse_ordinal_domain():
    s = make_scenario()
    a = s.space.parameters[0]
    assert a.kind == "ordinal"
    assert a.values == (1, 5, 8)


def test_priors_default_to_uniform():
    s = make_scenario()
    assert all(p.prior == UNIFORM_PRIOR for p in s.space.parameters)


def test_categorical_prior_sum_violation():
    doc = json.loads(json.dumps(MINIMAL))
    doc["input_parameters"]["b"]["prior"] = [0.5, 0.3, 0.1]
    with pytest.raises(ValidationError, match="sum to 0.9"):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("param, prior, message", [
    ("b", [-0.5, 1.5], "input_parameters.b: categorical prior probabilities must be >= 0"),
    ("b", [0.5, 0.3, 0.1], "input_parameters.b: probabilities sum to 0.9, expected 1"),
    ("b", [0.5, 0.5, 0.0], "input_parameters.b: prior lists 3 probabilities for 2 levels"),
    ("b", "decay", "input_parameters.b: categorical parameters take probability priors"),
    ("a", [0, 1], "input_parameters.a: Beta prior requires alpha > 0 and beta > 0"),
    ("a", [1.0, -2], "input_parameters.a: Beta prior requires alpha > 0 and beta > 0"),
    ("a", "fancy", "input_parameters.a: unknown prior shape 'fancy'"),
    ("a", 3, "input_parameters.a: unrecognized prior 3"),
    ("a", [1, 2, 3], "input_parameters.a: Beta prior must be a two-element [alpha, beta] list"),
])
def test_prior_value_rules_name_their_parameter(param, prior, message):
    doc = json.loads(json.dumps(MINIMAL))
    doc["input_parameters"][param]["prior"] = prior
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_scenario(json.dumps(doc))


def test_unknown_parameter_kind():
    doc = json.loads(json.dumps(MINIMAL))
    doc["input_parameters"]["a"]["parameter_type"] = "fancy"
    with pytest.raises(ValidationError, match="fancy"):
        parse_scenario(json.dumps(doc))


def test_duplicate_ordinal_values_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["input_parameters"]["a"]["values"] = [1, 5, 5]
    with pytest.raises(ValidationError, match="strictly increasing"):
        parse_scenario(json.dumps(doc))


def test_malformed_json_reports_position():
    with pytest.raises(ValidationError, match=r"line \d+ column \d+"):
        parse_scenario('{"application_name": }')


def test_duplicate_parameter_names_rejected():
    p = Parameter("x", "integer", lower=0, upper=3)
    with pytest.raises(ValidationError, match="unique"):
        DesignSpace((p, p))


def test_objective_name_clash_rejected():
    with pytest.raises(ValidationError, match="differ from parameter names"):
        make_scenario(optimization_objectives=["a"])


@pytest.mark.parametrize("name, reason", [
    ("feasible", "reserved"),
    ("iteration_tag", "reserved"),
    ("a,b", "character reserved"),
    ('a"b', "character reserved"),
    ("a\rb", "character reserved"),
    ("a\nb", "character reserved"),
])
@pytest.mark.parametrize("role", ["parameter", "objective"])
def test_names_that_break_the_csv_artifacts_are_rejected(role, name, reason):
    # samples.csv would get a second feasible or iteration_tag column, or a
    # header cell that splits or quotes
    doc = json.loads(json.dumps(MINIMAL))
    if role == "parameter":
        doc["input_parameters"][name] = doc["input_parameters"].pop("a")
        field = f"input_parameters.{name}: "
    else:
        doc["optimization_objectives"] = ["cost", name]
        field = "optimization_objectives: "
    with pytest.raises(ValidationError, match=f"^{re.escape(field)}.*{reason}"):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("name", ["a ", " a", "a\t", "\u00a0a"])
@pytest.mark.parametrize("role", ["parameter", "objective"])
def test_padded_names_are_rejected(role, name):
    # evaluator responses are read with stripped cells, so "a " never matches
    doc = json.loads(json.dumps(MINIMAL))
    if role == "parameter":
        doc["input_parameters"][name] = doc["input_parameters"].pop("a")
        field = f"input_parameters.{name}: "
    else:
        doc["optimization_objectives"] = ["cost", name]
        field = "optimization_objectives: "
    with pytest.raises(ValidationError, match=f"^{re.escape(field)}.*whitespace"):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("level", [" a", "a ", "\na"])
def test_padded_categorical_levels_are_rejected(level):
    doc = json.loads(json.dumps(MINIMAL))
    doc["input_parameters"]["b"]["values"] = ["x", level]
    with pytest.raises(ValidationError, match=r"^input_parameters\.b: .*whitespace"):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("key, value", [("name", " ok"), ("name", "ok "),
                                        ("true_value", " true"), ("true_value", "true\n")])
def test_padded_feasibility_fields_are_rejected(key, value):
    # a padded true_value would mark every child-evaluated row infeasible
    feasible = {"name": "ok", "true_value": "true", key: value}
    with pytest.raises(ValidationError, match=rf"^feasible_output\.{key}: .*whitespace"):
        make_scenario(feasible_output=feasible)
    assert make_scenario(feasible_output={"name": "ok", "true_value": "true"}).feasibility.name == "ok"


@pytest.mark.parametrize("section, change, key", [
    ("scenario document", lambda doc: doc.update(typo_field=3), "typo_field"),
    ("input_parameters.a", lambda doc: doc["input_parameters"]["a"].update(priors="decay"),
     "priors"),
    ("design_of_experiment", lambda doc: doc.update(design_of_experiment={"number_of_sample": 30}),
     "number_of_sample"),
    ("feasible_output",
     lambda doc: doc.update(feasible_output={"name": "ok", "true_valeu": "yes"}), "true_valeu"),
    ("surrogate", lambda doc: doc.update(surrogate={"regresor": {"n_estimators": 3}}), "regresor"),
    ("surrogate.regressor", lambda doc: doc.update(surrogate={"regressor": {"n_estimator": 3}}),
     "n_estimator"),
    ("surrogate.classifier", lambda doc: doc.update(surrogate={"classifier": {"depth": 3}}),
     "depth"),
    ("surrogate.classifier.class_weight", lambda doc: doc.update(surrogate={"classifier": {
        "class_weight": {"true": 0.75, "false": 0.25, "maybe": 0.0}}}), "maybe"),
    ("evaluator", lambda doc: doc.update(evaluator={"command": "true", "timeout": 5}), "timeout"),
], ids=["top level", "parameter", "design_of_experiment", "feasible_output", "surrogate",
        "regressor", "classifier", "class_weight", "evaluator"])
def test_every_section_rejects_an_unknown_key(section, change, key):
    # a misspelt key would otherwise leave its field at the default
    doc = json.loads(json.dumps(MINIMAL))
    change(doc)
    with pytest.raises(ValidationError, match=f"^{re.escape(section)}: unknown key {key!r}$"):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda s: Parameter("a,b", "integer", lower=0, upper=3),
                 "a,b: name 'a,b' contains a character reserved by the CSV protocol",
                 id="parameter-name-comma"),
    pytest.param(lambda s: Parameter("c", "categorical", values=("x", " y")),
                 "c: ' y' has leading or trailing whitespace", id="padded-level"),
    pytest.param(lambda s: replace(s, objectives=("feasible", "cost")),
                 "optimization_objectives: name 'feasible' is reserved for a records CSV column",
                 id="objective-named-feasible"),
    pytest.param(lambda s: replace(s, feasibility=FeasibleOutput("cost")),
                 "feasible_output.name clashes with another column name",
                 id="feasibility-named-like-an-objective"),
    pytest.param(lambda s: replace(s, feasibility=FeasibleOutput("a")),
                 "feasible_output.name clashes with another column name",
                 id="feasibility-named-like-a-parameter"),
    pytest.param(lambda s: FeasibleOutput(" ok"),
                 "feasible_output.name: ' ok' has leading or trailing whitespace",
                 id="padded-feasibility-name"),
    pytest.param(lambda s: FeasibleOutput("ok", "true "),
                 "feasible_output.true_value: 'true ' has leading or trailing whitespace",
                 id="padded-true-value"),
])
def test_library_callers_meet_the_rules_of_the_scenario_file(make, message):
    scenario = make_scenario()
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        make(scenario)


def test_integer_bounds_stay_where_float_features_are_exact():
    from dse.space import decode_matrix

    edge = DesignSpace((Parameter("k", "integer", lower=-2 ** 53, upper=2 ** 53),))
    configs = [(-2 ** 53,), (2 ** 53,), (2 ** 53 - 1,)]
    assert decode_matrix(edge, encode_matrix(edge, configs)) == configs
    for bounds in ([0, 2 ** 53 + 1], [-2 ** 53 - 1, 0]):
        doc = json.loads(json.dumps(MINIMAL))
        doc["input_parameters"]["a"] = {"parameter_type": "integer", "values": bounds}
        with pytest.raises(ValidationError, match=r"^input_parameters\.a: .*2\*\*53"):
            parse_scenario(json.dumps(doc))


# a domain whose width overflows to inf: priors and draws scale by the width,
# so every draw would collapse to one row
WIDE_DOMAINS = [("real", [-1e308, 1e308]), ("ordinal", [-1e308, 0, 1e308]),
                ("ordinal", [-10 ** 308, 10 ** 308])]


@pytest.mark.parametrize("kind, values", WIDE_DOMAINS)
def test_scenario_with_a_domain_wider_than_a_float_fails_to_load(kind, values):
    doc = json.loads(json.dumps(MINIMAL))
    doc["input_parameters"]["x"] = {"parameter_type": kind, "values": values}
    with pytest.raises(ValidationError,
                       match=r"^input_parameters\.x: domain is wider than the largest float$"):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("kind, values", WIDE_DOMAINS)
def test_parameter_domain_width_must_be_a_finite_float(kind, values):
    bounds = dict(lower=values[0], upper=values[-1]) if kind == "real" else dict(values=tuple(values))
    with pytest.raises(ValidationError, match="^x: domain is wider than the largest float$"):
        Parameter("x", kind, **bounds)
    # the widest domains that fit still load
    Parameter("x", "real", lower=-8e307, upper=8e307)
    Parameter("x", "ordinal", values=(-8e307, 0, 8e307))


# JSON text -> the float json.loads reads it as, without complaint
NON_FINITE_JSON = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf", "1e400": "inf"}


@pytest.mark.parametrize("kind, bound", [*(("real", b) for b in NON_FINITE_JSON),
                                         *(("integer", b) for b in [*NON_FINITE_JSON, "1.5"])])
def test_json_bounds_must_be_finite_and_integer_bounds_integers(kind, bound):
    text = json.dumps(MINIMAL).replace('"ordinal", "values": [1, 5, 8]',
                                       f'"{kind}", "values": [0, {bound}]')
    message = "must be finite" if kind == "real" else "must be an integer"
    got = NON_FINITE_JSON.get(bound, bound)
    pattern = rf"^input_parameters\.a\.values {message}, got {re.escape(got)}$"
    with pytest.raises(ValidationError, match=pattern):
        parse_scenario(text)


@pytest.mark.parametrize("kind, lower, upper, message", [
    ("real", 0.0, math.nan, "real bounds must be finite"),
    ("real", 0.0, math.inf, "real bounds must be finite"),
    ("real", -math.inf, 0.0, "real bounds must be finite"),
    ("integer", 1, math.inf, "integer bounds must be finite"),
    ("integer", math.nan, 3, "integer bounds must be finite"),
    ("integer", 1.5, 3.0, "integer bounds must be integral"),
])
def test_parameter_bounds_must_be_finite_and_integer_bounds_integral(kind, lower, upper, message):
    with pytest.raises(ValidationError, match=rf"^k: {message}$"):
        Parameter("k", kind, lower=lower, upper=upper)
    assert Parameter("k", "integer", lower=1.0, upper=3.0).domain_values() == (1, 2, 3)


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: Prior(math.inf, 1.0), "Beta prior requires finite alpha and beta",
                 id="alpha-inf"),
    pytest.param(lambda: Prior(1.0, math.inf), "Beta prior requires finite alpha and beta",
                 id="beta-inf"),
    pytest.param(lambda: Prior(math.nan, 1.0), "Beta prior requires alpha > 0 and beta > 0",
                 id="alpha-nan"),
    pytest.param(lambda: Prior(1.0, math.nan), "Beta prior requires alpha > 0 and beta > 0",
                 id="beta-nan"),
    pytest.param(lambda: Prior(probs=(math.nan, 1.0)),
                 "categorical prior probabilities must be >= 0", id="probability-nan"),
    pytest.param(lambda: Prior(probs=(math.inf, -math.inf)),
                 "categorical prior probabilities must be >= 0", id="probability-minus-inf"),
    pytest.param(lambda: Prior(probs=(math.inf, 0.0)),
                 "probabilities sum to inf, expected 1", id="probability-inf"),
    pytest.param(lambda: Parameter("o", "ordinal", values=(1, math.inf)),
                 "o: ordinal values must be finite numbers", id="ordinal-inf"),
    pytest.param(lambda: Parameter("o", "ordinal", values=(math.nan,)),
                 "o: ordinal values must be finite numbers", id="ordinal-nan"),
    pytest.param(lambda: Parameter("o", "ordinal", values=(-math.inf, 0)),
                 "o: ordinal values must be finite numbers", id="ordinal-minus-inf"),
    pytest.param(lambda: Parameter("o", "ordinal", values=(1, 10 ** 400)),
                 "o: ordinal values must be finite numbers", id="ordinal-beyond-float"),
])
def test_constructors_refuse_non_finite_numbers(make, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        make()
    assert Prior(0.5, 1e300).beta == 1e300
    assert Parameter("o", "ordinal", values=(-1e300, 0, 2.5)).values == (-1e300, 0, 2.5)


def test_a_prior_is_a_probability_table_or_a_beta_density():
    with pytest.raises(ValidationError,
                       match="^a prior takes a probability table or alpha and beta, not both$"):
        Prior(0.5, 1.5, probs=(0.5, 0.5))
    assert Prior(1.0, 1.0, probs=(0.5, 0.5)) == Prior(probs=(0.5, 0.5))
    levels = ("x", "y")
    assert Parameter("c", "categorical", values=levels, prior=Prior(1.0, 1.0)).prior == UNIFORM_PRIOR
    with pytest.raises(ValidationError, match="^c: categorical parameters take probability priors$"):
        Parameter("c", "categorical", values=levels, prior=Prior(0.5, 1.5))
    with pytest.raises(ValidationError,
                       match="^r: probability priors only attach to categorical parameters$"):
        Parameter("r", "real", lower=0.0, upper=1.0, prior=Prior(probs=(1.0,)))


@pytest.mark.parametrize("shape, density", [("uniform", (1.0, 1.0)), ("gaussian", (3.0, 3.0)),
                                            ("decay", (0.5, 1.5)), ("exponential", (1.5, 0.5))])
def test_a_named_prior_shape_reads_as_its_beta_density(shape, density):
    doc = json.loads(json.dumps(MINIMAL))
    doc["input_parameters"]["a"]["prior"] = shape
    assert parse_scenario(json.dumps(doc)).space.parameters[0].prior == Prior(*density)


def test_unknown_top_level_field_rejected():
    with pytest.raises(ValidationError, match="typo_field"):
        make_scenario(typo_field=3)


def test_unsorted_ordinal_is_stored_sorted():
    doc = json.loads(json.dumps(MINIMAL))
    doc["input_parameters"]["a"]["values"] = [3.4, 2.5, 6, 9.1]
    s = parse_scenario(json.dumps(doc))
    assert s.space.parameters[0].values == (2.5, 3.4, 6, 9.1)


def test_encode_examples():
    s = make_scenario()
    space = s.space
    assert encode_matrix(space, [(5, "true")])[0].tolist() == [5.0, 0.0]
    assert encode_matrix(space, [(8, "false")])[0].tolist() == [8.0, 1.0]
    doc = json.loads(json.dumps(MINIMAL))
    doc["input_parameters"]["a"] = {"parameter_type": "ordinal", "values": [3.4, 2.5, 6, 9.1]}
    space2 = parse_scenario(json.dumps(doc)).space
    assert encode_matrix(space2, [(6, "true")])[0][0] == 6.0
    doc["input_parameters"]["a"] = {"parameter_type": "integer", "values": [1, 4]}
    space3 = parse_scenario(json.dumps(doc)).space
    assert encode_matrix(space3, [(3, "true")])[0][0] == 3.0


def test_encode_rejects_out_of_domain():
    from dse import DomainError

    s = make_scenario()
    with pytest.raises(DomainError):
        encode_matrix(s.space, [(2, "true")])[0]

    space = DesignSpace((
        Parameter("n", "integer", lower=1, upper=4),
        Parameter("x", "real", lower=0.0, upper=1.0),
        Parameter("v", "categorical", values=("1", "b")),
    ))
    assert encode_matrix(space, [(4, 1, "b")])[0].tolist() == [4.0, 1.0, 1.0]
    for values, shown in [
        ((True, 0.5, "b"), "n: value True"),  # a boolean is not an integer
        ((2, False, "b"), "x: value False"),  # nor a real
        ((2, float("nan"), "b"), "x: value nan"),
        ((5, 0.5, "b"), "n: value 5"),
        ((2.0, 0.5, "b"), "n: value 2.0"),  # an integer column takes ints only
        ((2, 0.5, "c"), "v: value 'c'"),  # unknown level
        ((2, 0.5, 1), "v: value 1"),  # not the level "1"
        ((2, 0.5, ["b"]), "v: value ['b']"),  # unhashable
    ]:
        with pytest.raises(DomainError, match=f"^{re.escape(shown)} outside domain$"):
            encode_matrix(space, [values])[0]
    with pytest.raises(DomainError, match="length"):
        encode_matrix(space, [(2, 0.5)])[0]


def test_encode_matrix_names_the_first_bad_value_of_a_column():
    from dse import DomainError

    space = DesignSpace((Parameter("a", "ordinal", values=(1, 5, 8)),))
    configs = [(v,) for v in (5, 8.0, True, 1)]
    assert encode_matrix(space, configs).tolist() == [[5.0], [8.0], [1.0], [1.0]]
    configs += [(v,) for v in (2, "5", 9)]
    with pytest.raises(DomainError, match="^a: value 2 outside domain$"):
        encode_matrix(space, configs)
    assert encode_matrix(space, []).shape == (0, 1)


def test_unordered_mask_flags_categoricals():
    s = make_scenario()
    assert s.space.unordered_mask == (False, True)


def test_enumerate_small_space():
    s = make_scenario()
    configs = list(enumerate_space(s.space))
    assert len(configs) == 6
    assert len(set(configs)) == 6
    assert configs[0] == (1, "true")  # lexicographic order


def test_enumerate_toy_fpga_cardinality(toy_scenario):
    assert toy_scenario.space.cardinality() == 240
    assert len(list(enumerate_space(toy_scenario.space))) == 240


def test_enumerate_rejects_real_parameters():
    space = DesignSpace((Parameter("x", "real", lower=0.0, upper=1.0),))
    assert space.cardinality() is None
    with pytest.raises(EnumerationError):
        list(enumerate_space(space))


def test_enumerate_respects_cap():
    space = DesignSpace((Parameter("x", "integer", lower=0, upper=ENUMERATION_CAP),))
    with pytest.raises(EnumerationError):
        enumerate_space(space)


def test_scenario_parses_every_prior_and_evaluator_kind():
    doc = json.loads(json.dumps(MINIMAL))
    doc["input_parameters"] = {
        "r": {"parameter_type": "real", "values": [0.5, 2.5], "prior": [2.0, 5.0]},
        "i": {"parameter_type": "integer", "values": [1, 9], "prior": "exponential"},
        "o": {"parameter_type": "ordinal", "values": [1, 5, 8], "prior": "gaussian"},
        "c": {"parameter_type": "categorical", "values": ["x", "y", "z"],
              "prior": [0.2, 0.3, 0.5]},
    }
    doc["evaluator"] = {"command": "python eval.py", "working_dir": "/tmp",
                        "timeout_seconds": 12.5}
    doc["feasible_output"] = {"name": "ok", "true_value": "yes"}
    doc["surrogate"] = {"classifier": {"class_weight": {"true": 0.9, "false": 0.1},
                                       "max_depth": 4}}
    s = parse_scenario(json.dumps(doc))
    r, i, o, c = s.space.parameters
    assert (r.lower, r.upper, r.prior) == (0.5, 2.5, Prior(2.0, 5.0))
    assert (i.lower, i.upper, i.prior) == (1, 9, Prior(1.5, 0.5))
    assert (o.values, o.prior) == ((1, 5, 8), Prior(3.0, 3.0))
    assert (c.values, c.prior) == (("x", "y", "z"), Prior(probs=(0.2, 0.3, 0.5)))
    ev = s.evaluator
    assert (ev.name, ev.command, ev.working_dir, ev.timeout_seconds) == (
        None, "python eval.py", "/tmp", 12.5)
    assert s.feasibility == FeasibleOutput("ok", "yes")
    assert (s.classifier_hp.class_weight, s.classifier_hp.max_depth) == ((0.9, 0.1), 4)


# --- property tests ---------------------------------------------------------

@st.composite
def finite_spaces(draw):
    n_params = draw(st.integers(min_value=1, max_value=4))
    params = []
    for i in range(n_params):
        kind = draw(st.sampled_from(["integer", "ordinal", "categorical"]))
        if kind == "integer":
            lo = draw(st.integers(min_value=-5, max_value=5))
            hi = lo + draw(st.integers(min_value=0, max_value=4))
            params.append(Parameter(f"p{i}", "integer", lower=lo, upper=hi))
        elif kind == "ordinal":
            vals = draw(st.lists(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=1, max_size=5, unique=True))
            params.append(Parameter(f"p{i}", "ordinal", values=tuple(sorted(vals))))
        else:
            k = draw(st.integers(min_value=1, max_value=4))
            params.append(Parameter(f"p{i}", "categorical",
                                    values=tuple(f"v{j}" for j in range(k))))
    return DesignSpace(tuple(params))


@given(finite_spaces())
@settings(max_examples=40, deadline=None)
def test_encode_is_injective_on_finite_spaces(space):
    configs = list(enumerate_space(space)) if (space.cardinality() or 0) <= 2000 else []
    vectors = {tuple(encode_matrix(space, [c])[0]) for c in configs}
    assert len(vectors) == len(configs) == (space.cardinality() or 0)
    # the per-value reference: the value itself, or the level index
    reference = [[float(p.values.index(v)) if p.kind == "categorical" else float(v)
                  for p, v in zip(space.parameters, c)] for c in configs]
    assert encode_matrix(space, configs).tolist() == reference


@given(finite_spaces())
@settings(max_examples=40, deadline=None)
def test_enumerate_yields_cardinality_distinct_configs(space):
    card = space.cardinality()
    if card is None or card > 2000:
        return
    configs = list(enumerate_space(space))
    assert len(configs) == card
    assert len(set(configs)) == card
