"""The delay models' inverse CDF, their one sampler: it maps the control and
data planes' uniforms to delays; and the Python twin of numpy's stream and
quantiles that draws the control plane's block while numpy is not loaded."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from netupdate import DelayModel
from netupdate.delays import _pcg64_uniforms, _quantiles, quantile_block

from conftest import numpy_unloaded

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


# -- the Python twin of numpy's stream, which draws the control plane's block
# while numpy is not loaded

# seeds of one 32-bit word, of several, and past 2**128, which SeedSequence
# mixes in after its pool of four words
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**128),
                  st.integers(2**128 + 1, 2**300))
PY_MODELS = st.one_of(
    st.builds(DelayModel.constant, st.integers(0, INT64_MAX)),
    st.builds(DelayModel.uniform, st.integers(0, 10**7) | st.integers(0, INT64_MAX)),
    st.builds(DelayModel.empirical, st.lists(st.integers(0, INT64_MAX), min_size=1, max_size=8)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=SEEDS, rows=st.integers(0, 50))
@example(seed=0, rows=0)
@example(seed=2**32, rows=5)
@example(seed=2**64 - 1, rows=5)
@example(seed=2**64, rows=5)
@example(seed=2**128, rows=5)
def test_python_stream_is_numpys(seed, rows):
    expect = np.random.default_rng(seed).random((rows, 3))
    assert _pcg64_uniforms(seed, 3 * rows) == expect.ravel().tolist()


def test_python_stream_rejects_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="non-negative"):
        _pcg64_uniforms(-1, 3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(model=PY_MODELS, u=st.lists(st.floats(0, 1, exclude_max=True), max_size=20))
@example(model=DelayModel.uniform(INT64_MAX), u=[])
@example(model=DelayModel.uniform(2**53), u=[])
@example(model=DelayModel.empirical([INT64_MAX, 0, 5]), u=[0.5])
def test_python_quantiles_are_quantiles(model, u):
    u = [0.0, float(U_MAX)] + u
    assert _quantiles(model, u) == model.quantile(np.array(u)).tolist()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=SEEDS, rows=st.integers(0, 30), models=st.lists(PY_MODELS, min_size=1, max_size=3),
       spare=st.integers(0, 5))
def test_block_drawn_in_python_is_numpys(seed, rows, models, spare):
    expect = quantile_block(seed, rows, models)   # numpy is loaded here, and draws
    count = rows * len(models)
    with numpy_unloaded(count + spare) as delays:
        assert quantile_block(seed, rows, models) == expect
        assert delays._py_uniforms_left == spare
        # Python again while the block fits in what is left, else numpy
        assert quantile_block(seed, rows, models) == expect
        assert delays._py_uniforms_left == (spare - count if count <= spare else spare)


def test_exponential_block_is_drawn_by_numpy():
    models = (DelayModel.uniform(9), DelayModel.exponential(1_000, 10_000))
    expect = quantile_block(3, 20, models)
    with numpy_unloaded(10**6) as delays:
        assert quantile_block(3, 20, models) == expect
        assert delays._py_uniforms_left == 10**6
