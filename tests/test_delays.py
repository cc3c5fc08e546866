"""The delay models' inverse CDF, their one sampler: it maps the control and
data planes' uniforms to delays."""

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
