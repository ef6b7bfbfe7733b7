import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from dse import (
    DesignSpace,
    Parameter,
    Prior,
    RngState,
    decode_matrix,
    encode_matrix,
    enumerate_space,
    sample_beta,
    warmup_sample,
)
from dse.priors import prior_rows
from dse.space import UNIFORM_PRIOR, RowSet

from oracles import beta_pdf, prior_config

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


# --- prior_rows -------------------------------------------------------------------

def one_parameter_draws(param, n, rng):
    """The decoded values of n prior_rows draws on a space of one parameter."""
    space = DesignSpace((param,))
    return [c[0] for c in decode_matrix(space, prior_rows(space, n, rng))]


def test_ordinal_snap_arithmetic(monkeypatch):
    # rescale-and-snap on domain [1, 5, 8], the Beta variates scripted
    import dse.priors

    variates = iter([0.9, 0.5, 11 / 14, 0.0, 1.0])
    monkeypatch.setattr(dse.priors, "sample_beta", lambda alpha, beta, rng: next(variates))
    assert 1 + 11 / 14 * 7 == 6.5
    p = Parameter("o", "ordinal", values=(1, 5, 8))
    # 7.3 -> 8, 4.5 -> 5, exact tie 6.5 -> lower value 5, and both ends
    assert one_parameter_draws(p, 5, RngState(0)) == [8, 5, 5, 1, 8]


def test_a_real_draw_stays_inside_its_upper_bound(monkeypatch):
    import dse.priors

    monkeypatch.setattr(dse.priors, "sample_beta", lambda alpha, beta, rng: 1.0)
    assert -0.1 + 1.0 * (0.2 - -0.1) > 0.2  # the rescale alone rounds past the bound
    assert one_parameter_draws(Parameter("x", "real", lower=-0.1, upper=0.2), 1,
                               RngState(0)) == [0.2]


def test_degenerate_categorical_prior_is_constant():
    p = Parameter("v", "categorical", values=("car", "truck", "motorbike"),
                  prior=Prior(probs=(1.0, 0.0, 0.0)))
    assert set(one_parameter_draws(p, 200, RngState(5))) == {"car"}


def test_integer_sampling_stays_in_bounds():
    p = Parameter("n", "integer", lower=1, upper=4)
    draws = set(one_parameter_draws(p, 500, RngState(6)))
    assert draws <= {1, 2, 3, 4}
    assert len(draws) > 1


def test_categorical_frequencies_match_prior():
    probs = (0.6, 0.3, 0.1)
    p = Parameter("v", "categorical", values=("a", "b", "c"),
                  prior=Prior(probs=probs))
    n = 10_000
    draws = one_parameter_draws(p, n, RngState(7))
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
    assert sorted(out, key=lambda c: str(c)) == sorted(
        enumerate_space(SMALL), key=lambda c: str(c))
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
              prior=Prior(probs=(1.0, 0.0))),
    Parameter("n", "integer", lower=0, upper=1),
))


def test_warmup_falls_back_to_enumeration_when_the_prior_runs_dry():
    out = warmup_sample(ONLY_A, 3, RngState(4))
    assert len(out) == 3
    assert len(set(out)) == 3
    assert {("a", 0), ("a", 1)} < set(out)
    assert sum(c[0] == "b" for c in out) == 1


@st.composite
def sampling_spaces(draw):
    params = []
    n = draw(st.integers(min_value=1, max_value=3))
    for i in range(n):
        kind = draw(st.sampled_from(["real", "integer", "ordinal", "categorical"]))
        shape = draw(st.sampled_from(["uniform", "gaussian", "decay", "exponential"]))
        from dse.scenario import BETA_SHAPES

        prior = Prior(*BETA_SHAPES[shape])
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
            weights = draw(st.none() | st.lists(st.integers(0, 3), min_size=k, max_size=k)
                           .filter(any))
            prior = (UNIFORM_PRIOR if weights is None else
                     Prior(probs=tuple(w / sum(weights) for w in weights)))
            params.append(Parameter(f"p{i}", "categorical",
                                    values=tuple(f"v{j}" for j in range(k)), prior=prior))
    return DesignSpace(tuple(params))


@given(sampling_spaces(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sampled_values_lie_in_domain(space, seed):
    configs = decode_matrix(space, prior_rows(space, 20, RngState(seed)))
    encode_matrix(space, configs)  # raises DomainError on any violation


@given(sampling_spaces(), st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=30))
@settings(max_examples=100, deadline=None)
def test_prior_rows_encode_the_one_value_at_a_time_draw(space, seed, k):
    # bytes, not ==: an integer column must hold 0.0 where the oracle's int 0 encodes, never -0.0
    oracle_rng = RngState(seed)
    expected = encode_matrix(space, [prior_config(space, oracle_rng) for _ in range(k)])
    assert prior_rows(space, k, RngState(seed)).tobytes() == expected.tobytes()


# --- the prior stream and the uniform pool ------------------------------------

MIXED = DesignSpace((
    Parameter("x", "real", lower=-2.0, upper=3.0, prior=Prior(3.0, 3.0)),
    Parameter("n", "integer", lower=1, upper=6, prior=Prior(0.5, 1.5)),
    Parameter("o", "ordinal", values=(1, 2.5, 8, 20), prior=Prior(1.5, 0.5)),
    Parameter("c", "categorical", values=("a", "b", "c"),
              prior=Prior(probs=(0.5, 0.3, 0.2))),
))


def sequential_distinct(space, n, rng, taken=()):
    """Oracle: the distinct configurations that one prior_config call per
    configuration draws, not in ``taken``, stopping at n or after 100*n
    configurations; a finite space then continues with a random order of its
    unused configurations."""
    seen, out = set(taken), []
    for _ in range(100 * n):
        if len(out) == n:
            break
        cfg = prior_config(space, rng)
        if cfg not in seen:
            seen.add(cfg)
            out.append(cfg)
    if len(out) < n and space.cardinality() is not None:
        remaining = [c for c in enumerate_space(space) if c not in seen]
        out += [remaining[i] for i in rng.generator.permutation(len(remaining))[: n - len(out)]]
    return out


@pytest.mark.parametrize("name, n", [("mixed", 40), ("toy_fpga", 100), ("toy_fpga", 200),
                                     ("only_a", 3)])
def test_warmup_and_batch_fill_follow_the_sequential_prior_stream(toy_scenario, name, n):
    from dse.optimizer import select_batch

    space = {"mixed": MIXED, "toy_fpga": toy_scenario.space, "only_a": ONLY_A}[name]
    assert warmup_sample(space, n, RngState(11, 1)) == sequential_distinct(space, n, RngState(11, 1))

    archive = set(warmup_sample(space, min(n, 2), RngState(12)))
    predicted = list(archive) + sequential_distinct(space, 1, RngState(13), taken=archive)
    m = n - len(archive) + 1
    expected = predicted[-1:] + sequential_distinct(space, m - 1, RngState(14),
                                                    taken=archive | set(predicted))
    X = RowSet.of(space, encode_matrix(space, list(archive)))
    assert select_batch(predicted, m, space, X, RngState(14)) == expected


def test_uniform_pool_is_uniform_per_parameter_kind():
    from dse.optimizer import candidate_pool
    from dse.space import decode_matrix

    nothing = RowSet.of(MIXED, encode_matrix(MIXED, []))
    pool = decode_matrix(MIXED, candidate_pool(MIXED, 20_000, nothing, RngState(21, 3)))
    assert len(set(pool)) == len(pool) == 20_000
    columns = list(zip(*pool))
    x = np.array(columns[0])
    assert stats.kstest(x, stats.uniform(loc=-2.0, scale=5.0).cdf).pvalue > 0.001
    for param, col in zip(MIXED.parameters[1:], columns[1:]):
        domain = param.domain_values()
        counts = [col.count(v) for v in domain]
        assert sum(counts) == len(col)  # every value lies in the domain
        assert stats.chisquare(counts).pvalue > 0.001, param.name
