"""The delay models' inverse CDF, their one sampler: it maps the control and
data planes' uniforms to delays; and the Python twin of numpy's stream and
quantiles that draws while numpy is not loaded."""

import itertools
import json
import platform
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from netupdate import DelayModel
from netupdate.delays import _pcg64_rows, _quantile, quantile_block

from conftest import child_env, numpy_unloaded
from oracles import mean_value

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
    assert model.quantile(u).mean() == pytest.approx(mean_value(model), rel=0.02)


def test_truncated_exponential_mean_matches_analytic():
    model = DelayModel.exponential(1_000, 4_000)
    u = np.random.default_rng(2015).random(100_000)
    assert model.quantile(u).mean() == pytest.approx(mean_value(model), rel=0.02)


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


# -- the Python twin of numpy's stream and quantiles, which draws while numpy
# is not loaded

# seeds of one 32-bit word, of several, and past 2**128, which SeedSequence
# mixes in after its pool of four words
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**128),
                  st.integers(2**128 + 1, 2**300))
PY_MODELS = st.one_of(
    st.builds(DelayModel.constant, st.integers(0, INT64_MAX)),
    st.builds(DelayModel.uniform, st.integers(0, 10**7) | st.integers(0, INT64_MAX)),
    st.builds(DelayModel.empirical, st.lists(st.integers(0, INT64_MAX), min_size=1, max_size=8)),
    st.builds(DelayModel.exponential, st.integers(0, 10**7) | st.integers(0, INT64_MAX),
              st.just(INT64_MAX)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=SEEDS, rows=st.integers(0, 50))
@example(seed=0, rows=0)
@example(seed=2**32, rows=5)
@example(seed=2**64 - 1, rows=5)
@example(seed=2**64, rows=5)
@example(seed=2**128, rows=5)
def test_python_stream_is_numpys(seed, rows):
    expect = np.random.default_rng(seed).random((rows, 3))
    assert [list(row) for row in _pcg64_rows([seed], 3, [(0, rows)])] == expect.tolist()


def test_python_stream_rejects_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="non-negative"):
        next(_pcg64_rows([-1], 3, [(0, 1)]))
    with pytest.raises(ValueError, match="non-negative"):
        next(_pcg64_rows([5, -1], 3, [(0, 1)]))


@pytest.mark.parametrize("spans", [[(5, 6), (2, 3)], [(2, 4), (3, 5)], [(-1, 2)], [(3, 2)]])
def test_python_stream_rejects_spans_out_of_order(spans):
    # in a child with a timeout: stepping the LCG back by a negative count never ends
    code = ("from netupdate.delays import _pcg64_rows\n"
            f"next(_pcg64_rows([0], 3, {spans!r}))")
    child = subprocess.run([sys.executable, "-c", code], env=child_env(),
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 1
    assert child.stderr.splitlines()[-1].startswith("ValueError: span ")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(model=PY_MODELS, u=st.lists(st.floats(0, 1, exclude_max=True), max_size=20))
@example(model=DelayModel.uniform(INT64_MAX), u=[])
@example(model=DelayModel.uniform(2**53), u=[])
@example(model=DelayModel.empirical([INT64_MAX, 0, 5]), u=[0.5])
@example(model=DelayModel.exponential(INT64_MAX, INT64_MAX), u=[0.5])
@example(model=DelayModel.exponential(0, 0), u=[0.5])
def test_python_quantiles_are_quantiles(model, u):
    u = [0.0, float(U_MAX)] + u
    assert list(map(_quantile(model), u)) == model.quantile(np.array(u)).tolist()


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


def test_exponential_block_is_drawn_in_python():
    models = (DelayModel.uniform(9), DelayModel.exponential(1_000, 10_000))
    expect = quantile_block(3, 20, models)
    with numpy_unloaded(10**6) as delays:
        assert quantile_block(3, 20, models) == expect
        assert delays._py_uniforms_left == 10**6 - 40


# the flows' streams: entropy [seed, 7919 + flow index], rows from any on,
# each drawn in part or in full
@pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32, 2**80])
def test_python_rows_of_list_entropy_skip_as_numpys_advance(seed):
    for index in (0, 4):
        for skip in (0, 1, 7, 2**20 + 3, 2**33 - 1, 2**40):
            rng = np.random.default_rng([seed, 7919 + index])
            rng.bit_generator.advance(skip)
            want = rng.random(3).tolist()
            got = [next(row) for row in _pcg64_rows([seed, 7919 + index], 1, [(skip, skip + 3)])]
            assert got == want, (index, skip)
            # rows of 5: rows skip + 2 and skip + 3 in full, then 10^6 rows on, in part
            rng.bit_generator.advance(5 * (skip + 2) - (skip + 3))
            want = rng.random((2, 5)).tolist()
            rng.bit_generator.advance(5 * (10**6 - 4))
            want += [row[:k] for k, row in enumerate(rng.random((3, 5)).tolist())]
            far = skip + 10**6
            rows = _pcg64_rows([seed, 7919 + index], 5, [(skip + 2, skip + 4), (far, far + 3)])
            got = [list(row) for row in itertools.islice(rows, 2)]
            got += [list(itertools.islice(row, k)) for k, row in enumerate(rows)]
            assert got == want, (index, skip)


# (mean, cap) from 1 ns to 10^15 ns, caps from 10 means to 2**63 - 1
EXPONENTIALS = [(1, 10), (10**5, INT64_MAX), (10**10, 10**11), (10**15, INT64_MAX)]
HANDED_OVER = {1: 0, 10**5: 0, 10**10: 1_125, 10**15: 999_580}


def exponential_hand_offs(n: int) -> dict:
    """Of n uniforms of stream 2015 and the 4,096 just below 1: per mean, the
    draws _quantile hands over to numpy; every other draw must equal numpy's."""
    u = np.concatenate([np.random.default_rng(2015).random(n),
                        1.0 - np.arange(1, 4097) * 2.0**-53])
    handed = {}
    for mean, cap in EXPONENTIALS:
        model = DelayModel.exponential(mean, cap)
        with mock.patch.object(DelayModel, "quantile", lambda self, x: [-1]):
            got = list(map(_quantile(model), u.tolist()))
        want = model.quantile(u).tolist()
        assert [w for g, w in zip(got, want) if g != -1] == [g for g in got if g != -1], mean
        handed[mean] = got.count(-1)
    return handed


def test_exponential_quantile_in_python_is_numpys():
    # the same check under numpy's baseline kernels, in a child meanwhile
    child = None
    if platform.machine().lower() in ("x86_64", "amd64"):
        from test_golden import BASELINE_KERNELS

        code = ("import json, sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "from test_delays import exponential_hand_offs\n"
                "print(json.dumps(exponential_hand_offs(10**6)))\n")
        child = subprocess.Popen(
            [sys.executable, "-c", code, str(Path(__file__).parent)],
            env=child_env(NPY_DISABLE_CPU_FEATURES=BASELINE_KERNELS),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert exponential_hand_offs(10**6) == HANDED_OVER
    # a draw handed over is numpy's own
    model = DelayModel.exponential(10**15, INT64_MAX)
    u = np.random.default_rng(2015).random(5)
    assert list(map(_quantile(model), u.tolist())) == model.quantile(u).tolist()
    if child is not None:
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        assert {int(k): v for k, v in json.loads(out).items()} == HANDED_OVER
