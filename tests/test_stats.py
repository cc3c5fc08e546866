import math
import os
import threading
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netupdate import DelayModel, DelayTrace, read_trace, tail_ratio
from netupdate import stats
from netupdate.stats import mean, percentiles

MS = 1_000_000


class TestPercentile:
    def test_nearest_rank_on_known_sequence(self):
        trace = DelayTrace(tuple(range(1, 1001)))
        assert percentiles(trace, [0.999, 0.5, 1.0]) == [999, 500, 1000]

    def test_single_sample(self):
        trace = DelayTrace((7,))
        for p in (0.001, 0.5, 1.0):
            assert percentiles(trace, [p]) == [7]

    def test_monotone_in_p_and_max_at_one(self):
        rng = np.random.default_rng(1)
        trace = DelayTrace(tuple(int(x) for x in rng.integers(0, 10**6, 500)))
        ps = [0.1, 0.5, 0.9, 0.99, 1.0]
        values = [percentiles(trace, [p])[0] for p in ps]
        assert percentiles(trace, ps) == values
        assert values == sorted(values)
        assert values[-1] == max(trace.samples)

    def test_empty_and_bad_p_rejected(self):
        with pytest.raises(ValueError):
            percentiles(DelayTrace(()), [0.5])
        with pytest.raises(ValueError):
            percentiles(DelayTrace((1,)), [0.0])
        with pytest.raises(ValueError):
            percentiles(DelayTrace((1,)), [0.5, 1.5])

    def test_exponential_tail_matches_analytic_quantile(self):
        # p-quantile of exp(mean m) is -m * ln(1 - p)
        expect = -math.log(0.001)  # in units of the mean
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            samples = tuple(int(x) for x in rng.exponential(1 * MS, 10_000))
            got = percentiles(DelayTrace(samples), [0.999])[0] / (1 * MS)
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

    def test_mean_and_percentiles_partition_once(self):
        trace = DelayTrace(tuple(range(1, 1001)))
        with mock.patch.object(np, "partition", wraps=np.partition) as partition:
            assert stats.mean_and_percentiles(trace, [0.5, 0.999, 1.0]) == (
                500.5, [500, 999, 1000])
        assert partition.call_count == 1

    @pytest.mark.parametrize("call", [lambda t: tail_ratio(t, 0.9),
                                      lambda t: stats.mean_and_percentiles(t, [0.5, 0.9])])
    def test_the_zero_mean_rule_has_one_message(self, call):
        with pytest.raises(ValueError, match="^every sample is 0 ns, so no ratio to the mean$"):
            call(DelayTrace((0, 0, 0)))


class TestSample:
    def test_empirical_draws_from_pool(self):
        pool = (1, 5, 9)
        model = DelayModel.empirical(pool)
        u = np.random.default_rng(2).random(200)
        assert set(model.quantile(u).tolist()) == set(pool)
        assert model.bound() == 9


class TestReadTrace:
    def test_parses_ms_values_and_comments(self, tmp_path):
        f = tmp_path / "rtt.txt"
        f.write_text("# rtt dump\n1.5\n2.25  # spike\n\n0.75\n")
        trace = read_trace(f)
        assert trace.samples.tolist() == [1_500_000, 2_250_000, 750_000]
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


class TestDelayTrace:
    def test_sequence_becomes_read_only_int64_array(self):
        trace = DelayTrace((3, 1, 2))
        assert trace.samples.dtype == np.int64 and trace.samples.tolist() == [3, 1, 2]
        with pytest.raises(ValueError):
            trace.samples[0] = 9

    def test_callers_array_stays_writeable(self):
        a = np.array([1, 2], dtype=np.int64)
        DelayTrace(a)
        a[0] = 5
        assert a.tolist() == [5, 2]

    @pytest.mark.parametrize("bad", [(1, -1), [[1, 2], [3, 4]]])
    def test_negative_or_nested_rejected(self, bad):
        with pytest.raises(ValueError):
            DelayTrace(bad)


# -- fast path against the line-by-line oracle ------------------------------

def oracle_percentile(values, p):
    return sorted(values)[math.ceil(p * len(values)) - 1]


_PS = [1e-9, 0.001, 0.5, 0.9, 0.999, 0.99999, 1.0, 0.5]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.one_of(st.integers(0, 10**6), st.integers(10**18 - 10**6, 10**18),
                                 st.integers(0, 2**62)), min_size=1, max_size=60))
def test_mean_and_percentiles_equal_python_on_ints(values):
    trace = DelayTrace(values)
    assert mean(trace) == sum(values) / len(values)
    assert percentiles(trace, _PS) == [oracle_percentile(values, p) for p in _PS]


def test_mean_is_exact_where_an_int64_sum_overflows():
    rng = np.random.default_rng(5)
    values = rng.integers(10**18 - 10**9, 10**18, 100_000).tolist()
    assert sum(values) > 2**63  # a plain int64 sum would wrap
    trace = DelayTrace(values)
    assert mean(trace) == sum(values) / len(values)
    assert percentiles(trace, _PS) == [oracle_percentile(values, p) for p in _PS]


# A trace is a few lines, each either plain (what the fast path takes) or a
# hazard: something only one of the two parsers might take ('_', non-ASCII
# digits, NUL, non-finite, negative or out-of-range values, two columns) or a
# line break that str.splitlines knows and np.loadtxt does not, also inside
# a comment, where it decides whether the next number is a sample.
_PLAIN_NUMBERS = st.one_of(
    st.floats(0, 1e12, allow_nan=False).map(repr),
    st.floats(0, 1e6, allow_nan=False).map(lambda x: f"{x:.6f}"),
    st.floats(0, 1e12, allow_nan=False).map(lambda x: f"{x:e}"),
    st.integers(0, 10**12).map(str),
    st.sampled_from(["0", "-0.0", ".5", "5.", "+2", "1e12", "1E-3", "0.0000005", "2.5000005"]))
_BAD_NUMBERS = st.one_of(
    st.floats(-1e3, 1e14, allow_nan=False).map(lambda x: f"{x:e}"),
    st.integers(-400, 400).map(lambda e: f"1e{e}"),
    st.sampled_from(["inf", "-inf", "nan", "-nan", "Infinity", "-", "-1", "1_5", "1_000.5",
                     "\u0661.\u0665", "\u0663", "0x10", "1000000000000.001", "1e13", "1e400",
                     "1.5e", "abc", "2.5\x00", "\ufeff1"]))
_ODD_BREAKS = ["\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_ODD_SPACES = ["\x0c", "\x0b", "\x1c", "\x1f", "\xa0", "\u3000"]
_COMMENT = st.text(alphabet="# ab1.5", max_size=5).map(lambda c: "#" + c)
_SPACE = st.text(alphabet=" \t", max_size=2)
_VALUE = st.tuples(_SPACE, _PLAIN_NUMBERS, _SPACE, st.one_of(st.just(""), _COMMENT)).map("".join)
_PLAIN_LINE = st.tuples(st.one_of([_VALUE] * 8 + [st.just(""), _COMMENT]),
                        st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])).map("".join)
_HAZARD = st.one_of(
    _BAD_NUMBERS.map(lambda v: f"{v}\n"),
    st.tuples(_PLAIN_NUMBERS, st.sampled_from([" ", "\t"] + _ODD_SPACES + _ODD_BREAKS),
              _PLAIN_NUMBERS).map(lambda t: "".join(t) + "\n"),
    st.tuples(st.sampled_from(["", "1.5 ", "#", "# x ", "2 # "]), st.sampled_from(_ODD_BREAKS),
              _PLAIN_NUMBERS).map(lambda t: "".join(t) + "\n"),
    st.tuples(_PLAIN_NUMBERS, st.sampled_from(_ODD_SPACES)).map(lambda t: "".join(t) + "\n"))
# About half of the traces hold one hazard.
_TRACE_TEXT = st.builds(
    lambda lines, hazard, at: "".join(lines[:at] + [hazard or ""] + lines[at:]),
    st.lists(_PLAIN_LINE, min_size=1, max_size=6), st.one_of(st.none(), _HAZARD),
    st.integers(0, 6))


def _outcome(parse):
    try:
        return parse().samples.tolist()
    except ValueError as exc:
        return str(exc)


def test_read_trace_matches_line_by_line_oracle(tmp_path, monkeypatch):
    path = tmp_path / "trace.txt"
    seen = Counter()
    oracle = stats.parse_trace

    def counted(text, where):
        seen["oracle"] += 1
        return oracle(text, where)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(text=_TRACE_TEXT, final_newline=st.booleans())
    def check(text, final_newline):
        path.write_bytes((text if final_newline else text.rstrip("\n")).encode())
        calls = seen["oracle"]
        with monkeypatch.context() as m:
            m.setattr(stats, "parse_trace", counted)
            got = _outcome(lambda: read_trace(path))
        seen["fast"] += seen["oracle"] == calls
        assert got == _outcome(lambda: oracle(path.read_bytes().decode(), path))

    check()
    # both paths ran often enough for the comparison to mean something
    assert seen["fast"] >= 150 and seen["oracle"] >= 150, seen


def test_plain_trace_peaks_at_two_arrays_of_its_samples(tmp_path):
    # the file's bytes stayed alive through np.loadtxt, and scaling and
    # rounding made two more float64 arrays: 31 B per sample at peak
    path = tmp_path / "rtt.txt"
    path.write_text("".join(f"{k % 997 * 0.125:.3f}\n" for k in range(50_000)))
    read_trace(path)   # leaves one-time allocations out of the peak
    tracemalloc.start()
    try:
        samples = read_trace(path).samples
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(samples) == 50_000 and peak <= 20 * len(samples)


def test_fifo_is_read_once_through_the_oracle(tmp_path, monkeypatch):
    # a second open of the FIFO would wait for a writer forever
    path, text = tmp_path / "rtt.fifo", "# rtt in ms\n1.5\n2.25\n"
    os.mkfifo(path)
    reads, parsed, read_bytes, oracle = [], [], Path.read_bytes, stats.parse_trace

    def read_once(self):
        assert not reads, "read the FIFO twice"
        reads.append(self)
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", read_once)
    monkeypatch.setattr(np, "loadtxt", None)   # calling it would raise TypeError
    monkeypatch.setattr(stats, "parse_trace",
                        lambda t, where: parsed.append(t) or oracle(t, where))
    writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
    writer.start()
    assert read_trace(path).samples.tolist() == [1_500_000, 2_250_000]
    writer.join()
    assert reads == [path] and parsed == [text]


def test_plain_trace_takes_the_fast_path(tmp_path, monkeypatch):
    path = tmp_path / "rtt.txt"
    path.write_text("# rtt in ms\n1.5\n\n  2.25  # spike\r\n0\n1000000000000\n")
    monkeypatch.setattr(stats, "parse_trace", None)  # calling it would raise TypeError
    assert read_trace(path).samples.tolist() == [1_500_000, 2_250_000, 0, 10**18]
