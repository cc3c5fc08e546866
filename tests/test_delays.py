"""The delay models' inverse CDF, their one sampler: it maps the control and
data planes' uniforms to delays."""

import warnings

import numpy as np
import pytest

from netupdate import DelayModel

MODELS = [
    DelayModel.constant(7),
    DelayModel.uniform(5),
    DelayModel.exponential(1_000, 10_000),
    DelayModel.empirical([3, 0, 11, 3]),
]
U_MAX = np.nextafter(1.0, 0.0)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_stays_within_bounds_at_the_extremes(model):
    got = model.quantile(np.array([0.0, U_MAX]))
    assert got.dtype == np.int64
    assert ((0 <= got) & (got <= model.bound())).all()


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_bulk_equals_one_at_a_time(model):
    u = np.random.default_rng(3).random(500)
    bulk = model.quantile(u)
    assert bulk.tolist() == [int(model.quantile(u[i:i + 1])[0]) for i in range(len(u))]


def test_uniform_returns_every_integer_in_range():
    model = DelayModel.uniform(4)
    u = np.random.default_rng(0).random(1_000)
    assert set(model.quantile(u).tolist()) == {0, 1, 2, 3, 4}
    assert model.quantile(np.array([0.0, U_MAX])).tolist() == [0, 4]


def test_empirical_returns_only_pool_members():
    model = DelayModel.empirical([5, 17, 17, 90])
    got = model.quantile(np.random.default_rng(1).random(1_000))
    assert set(got.tolist()) == {5, 17, 90}


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_mean_matches_mean_value(model):
    u = np.random.default_rng(2015).random(100_000)
    assert model.quantile(u).mean() == pytest.approx(model.mean_value(), rel=0.02)


def test_truncated_exponential_mean_matches_analytic():
    model = DelayModel.exponential(1_000, 4_000)
    u = np.random.default_rng(2015).random(100_000)
    assert model.quantile(u).mean() == pytest.approx(model.mean_value(), rel=0.02)


def test_zero_mean_exponential_is_zero():
    model = DelayModel.exponential(0, 0)
    assert model.quantile(np.array([0.0, 0.5, U_MAX])).tolist() == [0, 0, 0]


# the largest delay quantile can return as an int64
INT64_MAX = 2**63 - 1
FACTORIES = {
    "constant": DelayModel.constant,
    "uniform": DelayModel.uniform,
    "exponential-mean": lambda v: DelayModel.exponential(v, INT64_MAX),
    "exponential-cap": lambda v: DelayModel.exponential(1, v),
    "empirical": lambda v: DelayModel.empirical([0, v]),
}


@pytest.mark.parametrize("make", FACTORIES.values(), ids=FACTORIES)
def test_factories_take_int64_max_and_reject_past_it(make):
    model = make(INT64_MAX)
    got = model.quantile(np.array([0.0, 0.5, U_MAX]))
    assert ((0 <= got) & (got <= model.bound())).all()
    with pytest.raises(ValueError, match="2\\*\\*63 - 1"):
        make(INT64_MAX + 1)


# a uniform near 1 rounded x to 2.0**63, which the int64 cast made -2**63
# with a warning ("invalid value encountered in cast")
@pytest.mark.parametrize("mean", [7_682_368_109_399_869_440, INT64_MAX // 2, INT64_MAX])
def test_exponential_at_the_int64_cap_stays_in_range_near_one(mean):
    model = DelayModel.exponential(mean, INT64_MAX)
    u = 1.0 - np.arange(1, 4097) * 2.0**-53
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.quantile(u)
    assert ((0 <= got) & (got <= INT64_MAX)).all()


def test_default_exponential_cap_past_int64_rejected():
    with pytest.raises(ValueError, match="exponential cap"):
        DelayModel.exponential(10**18)
