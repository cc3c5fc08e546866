import math

import numpy as np
import pytest

from netupdate import DelayModel, DelayTrace, percentile, read_trace, tail_ratio
from netupdate.stats import percentiles

MS = 1_000_000


class TestPercentile:
    def test_nearest_rank_on_known_sequence(self):
        trace = DelayTrace(tuple(range(1, 1001)))
        assert percentile(trace, 0.999) == 999
        assert percentile(trace, 0.5) == 500
        assert percentile(trace, 1.0) == 1000

    def test_single_sample(self):
        trace = DelayTrace((7,))
        for p in (0.001, 0.5, 1.0):
            assert percentile(trace, p) == 7

    def test_monotone_in_p_and_max_at_one(self):
        rng = np.random.default_rng(1)
        trace = DelayTrace(tuple(int(x) for x in rng.integers(0, 10**6, 500)))
        ps = [0.1, 0.5, 0.9, 0.99, 1.0]
        values = [percentile(trace, p) for p in ps]
        assert percentiles(trace, ps) == values
        assert values == sorted(values)
        assert values[-1] == max(trace.samples)

    def test_empty_and_bad_p_rejected(self):
        with pytest.raises(ValueError):
            percentile(DelayTrace(()), 0.5)
        with pytest.raises(ValueError):
            percentile(DelayTrace((1,)), 0.0)
        with pytest.raises(ValueError):
            percentile(DelayTrace((1,)), 1.5)

    def test_exponential_tail_matches_analytic_quantile(self):
        # p-quantile of exp(mean m) is -m * ln(1 - p)
        expect = -math.log(0.001)  # in units of the mean
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            samples = tuple(int(x) for x in rng.exponential(1 * MS, 10_000))
            got = percentile(DelayTrace(samples), 0.999) / (1 * MS)
            assert got == pytest.approx(expect, rel=0.15)


class TestTailRatio:
    def test_constant_trace_is_exactly_one(self):
        trace = DelayTrace((5 * MS,) * 100)
        for p in (0.5, 0.999, 1.0):
            assert tail_ratio(trace, p) == 1.0

    def test_exponential_ratio(self):
        rng = np.random.default_rng(3)
        samples = tuple(int(x) for x in rng.exponential(1 * MS, 50_000))
        assert tail_ratio(DelayTrace(samples), 0.999) == pytest.approx(
            -math.log(0.001), rel=0.15)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            tail_ratio(DelayTrace((0, 0, 0)), 0.9)


class TestSample:
    def test_constant(self):
        rng = np.random.default_rng(0)
        model = DelayModel.constant(42)
        assert [model.sample(rng) for _ in range(5)] == [42] * 5

    def test_uniform_mean_and_bound(self):
        rng = np.random.default_rng(0)
        h = 1 * MS
        model = DelayModel.uniform(h)
        xs = [model.sample(rng) for _ in range(100_000)]
        assert max(xs) <= h
        assert sum(xs) / len(xs) == pytest.approx(h / 2, rel=0.02)

    def test_truncated_exponential_mean(self):
        # conditioning an exp(m) on X <= 10m scales the mean by
        # (1 - e^-10 * 11) / (1 - e^-10) ~= 0.99955
        m = 1 * MS
        model = DelayModel.exponential(m, cap=10 * m)
        expect = m * (1 - math.exp(-10) * 11) / (1 - math.exp(-10))
        rng = np.random.default_rng(7)
        xs = [model.sample(rng) for _ in range(100_000)]
        assert max(xs) <= 10 * m
        assert sum(xs) / len(xs) == pytest.approx(expect, rel=0.02)
        assert model.mean_value() == pytest.approx(expect)

    def test_empirical_draws_from_pool(self):
        pool = (1, 5, 9)
        rng = np.random.default_rng(2)
        model = DelayModel.empirical(pool)
        assert set(model.sample(rng) for _ in range(200)) == set(pool)
        assert model.bound() == 9

    def test_same_seed_same_sequence(self):
        model = DelayModel.exponential(3 * MS)
        a = [model.sample(np.random.default_rng(11))]
        b = [model.sample(np.random.default_rng(11))]
        assert a == b


class TestReadTrace:
    def test_parses_ms_values_and_comments(self, tmp_path):
        f = tmp_path / "rtt.txt"
        f.write_text("# rtt dump\n1.5\n2.25  # spike\n\n0.75\n")
        trace = read_trace(f)
        assert trace.samples == (1_500_000, 2_250_000, 750_000)
        assert trace.label == "rtt.txt"

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no samples"):
            read_trace(f)

    def test_garbage_line_rejected(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1.5\nnot-a-number\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            read_trace(f)
