import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from dse import (
    Configuration,
    DesignSpace,
    Parameter,
    Prior,
    RngState,
    beta_pdf,
    enumerate_space,
    sample_beta,
    sample_parameter,
    warmup_sample,
)
from dse.priors import _snap_ordinal

NAMED_SHAPES = [(1.0, 1.0), (3.0, 3.0), (0.5, 1.5), (1.5, 0.5)]


def beta_mean(a, b):
    return a / (a + b)


def beta_var(a, b):
    return a * b / ((a + b) ** 2 * (a + b + 1.0))


# --- beta_pdf ----------------------------------------------------------------

def test_beta_pdf_uniform_is_one():
    assert beta_pdf(0.5, 1, 1) == pytest.approx(1.0, abs=1e-12)


def test_beta_pdf_symmetric_shape_value():
    # Gamma(6)/(Gamma(3)Gamma(3)) * 0.5^4 = 30 * 0.0625
    assert beta_pdf(0.5, 3, 3) == pytest.approx(1.875, abs=1e-12)


def test_beta_pdf_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        beta_pdf(0.3, 0, 1)
    with pytest.raises(ValueError):
        beta_pdf(0.3, 1, -2)


def test_beta_pdf_rejects_x_outside_unit_interval():
    with pytest.raises(ValueError):
        beta_pdf(1.5, 1, 1)


def test_beta_pdf_endpoint_markers():
    assert beta_pdf(0.0, 0.5, 1.5) == math.inf
    assert beta_pdf(1.0, 1.5, 0.5) == math.inf
    assert beta_pdf(0.0, 3, 3) == 0.0
    assert beta_pdf(1.0, 1, 1) == pytest.approx(1.0)


def test_numeric_cdf_oracle_consistency():
    from oracles import beta_cdf_numeric

    # symmetric shapes put half their mass below 0.5
    assert beta_cdf_numeric(0.5, 1, 1) == pytest.approx(0.5, abs=1e-9)
    assert beta_cdf_numeric(0.5, 3, 3) == pytest.approx(0.5, abs=1e-9)
    # the two J-shapes are mirror images of each other
    for x in (0.1, 0.3, 0.7, 0.9):
        lhs = beta_cdf_numeric(x, 0.5, 1.5)
        rhs = 1.0 - beta_cdf_numeric(1.0 - x, 1.5, 0.5)
        assert lhs == pytest.approx(rhs, abs=1e-8)


# --- sample_beta ---------------------------------------------------------------

@pytest.mark.parametrize("a,b", NAMED_SHAPES)
def test_sample_beta_mean_matches_closed_form(a, b):
    rng = RngState(42, 7)
    n = 10_000
    draws = np.array([sample_beta(a, b, rng) for _ in range(n)])
    se = math.sqrt(beta_var(a, b) / n)
    assert abs(draws.mean() - beta_mean(a, b)) < 3 * se
    assert draws.min() >= 0.0 and draws.max() <= 1.0


@pytest.mark.parametrize("a,b", NAMED_SHAPES)
def test_sample_beta_ks_against_numeric_cdf(a, b):
    from oracles import beta_cdf_numeric

    rng = RngState(43, 11)
    draws = np.array([sample_beta(a, b, rng) for _ in range(10_000)])
    result = stats.kstest(draws, lambda x: beta_cdf_numeric(x, a, b))
    assert result.pvalue > 0.001


def test_sample_beta_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sample_beta(0, 1, RngState(1))


# --- sample_parameter -----------------------------------------------------------

def test_ordinal_snap_arithmetic():
    # rescale-and-snap on domain [1, 5, 8]
    assert _snap_ordinal(1 + 0.9 * 7, (1, 5, 8)) == 8  # 7.3 -> 8
    assert _snap_ordinal(1 + 0.5 * 7, (1, 5, 8)) == 5  # 4.5 -> 5
    assert _snap_ordinal(6.5, (1, 5, 8)) == 5  # exact tie -> lower value


def test_degenerate_categorical_prior_is_constant():
    p = Parameter("v", "categorical", values=("car", "truck", "motorbike"),
                  prior=Prior("categorical", probs=(1.0, 0.0, 0.0)))
    rng = RngState(5)
    assert all(sample_parameter(p, rng) == "car" for _ in range(200))


def test_integer_sampling_stays_in_bounds():
    p = Parameter("n", "integer", lower=1, upper=4)
    rng = RngState(6)
    draws = {sample_parameter(p, rng) for _ in range(500)}
    assert draws <= {1, 2, 3, 4}
    assert len(draws) > 1


def test_categorical_frequencies_match_prior():
    probs = (0.6, 0.3, 0.1)
    p = Parameter("v", "categorical", values=("a", "b", "c"),
                  prior=Prior("categorical", probs=probs))
    rng = RngState(7)
    n = 10_000
    draws = [sample_parameter(p, rng) for _ in range(n)]
    for level, pk in zip(("a", "b", "c"), probs):
        freq = draws.count(level) / n
        assert abs(freq - pk) < 3 * math.sqrt(pk * (1 - pk) / n)


# --- warmup_sample --------------------------------------------------------------

SMALL = DesignSpace((
    Parameter("a", "ordinal", values=(1, 5, 8)),
    Parameter("b", "categorical", values=("true", "false")),
))


def test_warmup_covers_space_when_n_equals_cardinality():
    out = warmup_sample(SMALL, 6, RngState(1))
    assert sorted(out, key=lambda c: str(c.values)) == sorted(
        enumerate_space(SMALL), key=lambda c: str(c.values))
    assert len(set(out)) == 6


def test_warmup_exhausts_toy_space(toy_scenario):
    out = warmup_sample(toy_scenario.space, 1000, RngState(2))
    assert len(out) == 240
    assert len(set(out)) == 240


def test_warmup_is_deterministic():
    a = warmup_sample(SMALL, 3, RngState(9, 4))
    b = warmup_sample(SMALL, 3, RngState(9, 4))
    assert a == b


def test_warmup_has_no_duplicates(toy_scenario):
    out = warmup_sample(toy_scenario.space, 100, RngState(3))
    assert len(out) == 100
    assert len(set(out)) == 100


# the prior never draws "b", so those configurations come only from the
# enumeration fallback
ONLY_A = DesignSpace((
    Parameter("v", "categorical", values=("a", "b"),
              prior=Prior("categorical", probs=(1.0, 0.0))),
    Parameter("n", "integer", lower=0, upper=1),
))


def test_warmup_falls_back_to_enumeration_when_the_prior_runs_dry():
    out = warmup_sample(ONLY_A, 3, RngState(4))
    assert len(out) == 3
    assert len(set(out)) == 3
    assert {Configuration(("a", 0)), Configuration(("a", 1))} < set(out)
    assert sum(c.values[0] == "b" for c in out) == 1


@st.composite
def sampling_spaces(draw):
    params = []
    n = draw(st.integers(min_value=1, max_value=3))
    for i in range(n):
        kind = draw(st.sampled_from(["real", "integer", "ordinal", "categorical"]))
        shape = draw(st.sampled_from(["uniform", "gaussian", "decay", "exponential"]))
        from dse.space import BETA_SHAPES

        prior = Prior(shape, *BETA_SHAPES[shape])
        if kind == "real":
            lo = draw(st.floats(min_value=-10, max_value=10, allow_nan=False))
            width = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
            params.append(Parameter(f"p{i}", "real", lower=lo, upper=lo + width, prior=prior))
        elif kind == "integer":
            lo = draw(st.integers(min_value=-10, max_value=10))
            params.append(Parameter(f"p{i}", "integer", lower=lo,
                                    upper=lo + draw(st.integers(0, 6)), prior=prior))
        elif kind == "ordinal":
            vals = draw(st.lists(st.integers(min_value=-50, max_value=50),
                                 min_size=1, max_size=6, unique=True))
            params.append(Parameter(f"p{i}", "ordinal", values=tuple(sorted(vals)), prior=prior))
        else:
            k = draw(st.integers(min_value=1, max_value=4))
            params.append(Parameter(f"p{i}", "categorical",
                                    values=tuple(f"v{j}" for j in range(k))))
    return DesignSpace(tuple(params))


@given(sampling_spaces(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sampled_values_lie_in_domain(space, seed):
    rng = RngState(seed)
    for _ in range(20):
        cfg = Configuration(tuple(sample_parameter(p, rng) for p in space.parameters))
        space.validate(cfg)  # raises DomainError on any violation
