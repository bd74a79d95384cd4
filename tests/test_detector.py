"""Detector unit tests.

The naive oracle below recomputes everything from scratch each step with
plain Python loops. Detector outputs must match it bitwise: both sides
evaluate the same expressions (np.log, ascending top-r sum), so equality
is exact, not approximate.
"""

import gc
import math
import sys
import threading
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faultmon import bundle, calibrate, detector
from faultmon.errors import (
    BadRError,
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteValueError,
)


def naive_cdf(reference, value):
    count = sum(1 for r in reference if r < value)
    return float((count + 1.0) / (len(reference) + 2.0))


def naive_trace(references, allowance, top_r, data):
    """Pure-loop recompute-everything CUSUM; returns the V trajectory and
    the two-sided statistics of every stream, shapes ``(T,)`` and ``(T, p)``."""
    p = len(references)
    w_plus = [0.0] * p
    w_minus = [0.0] * p
    out = []
    local = []
    for t in range(data.shape[0]):
        stats = []
        for i in range(p):
            mu = naive_cdf(references[i], data[t, i])
            w_plus[i] = max(w_plus[i] - float(np.log(1.0 - mu)) - allowance, 0.0)
            w_minus[i] = max(w_minus[i] - float(np.log(mu)) - allowance, 0.0)
            stats.append(max(w_plus[i], w_minus[i]))
        top = sorted(stats)[-top_r:]
        total = 0.0
        for value in top:
            total += value
        out.append(total)
        local.append(stats)
    return np.array(out), np.array(local).reshape(-1, p)


def naive_run(references, allowance, top_r, data):
    """The V trajectory of :func:`naive_trace`."""
    return naive_trace(references, allowance, top_r, data)[0]


def test_estimate_cdf_hand_cases():
    ref = detector.build_reference([1.0, 2.0, 3.0, 4.0])
    assert detector.estimate_cdf(ref, 2.5) == 0.5
    assert detector.estimate_cdf(ref, 0.5) == pytest.approx(1.0 / 6.0)
    assert detector.estimate_cdf(ref, 9.0) == pytest.approx(5.0 / 6.0)
    # Ties count strictly-below values only.
    assert detector.estimate_cdf(ref, 2.0) == pytest.approx(2.0 / 6.0)


def test_estimate_cdf_empty_reference():
    assert detector.estimate_cdf(np.array([]), 3.0) == 0.5


def test_estimate_cdf_full_scan_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        size = int(rng.integers(0, 40))
        ref = detector.build_reference(rng.normal(size=size)) if size else np.array([])
        x = float(rng.normal())
        expected = naive_cdf(ref, x)
        assert detector.estimate_cdf(ref, x) == expected


def test_build_reference_sorts_and_validates():
    ref = detector.build_reference([3.0, 1.0, 2.0])
    np.testing.assert_array_equal(ref, [1.0, 2.0, 3.0])
    with pytest.raises(EmptyInputError):
        detector.build_reference([])
    with pytest.raises(NonFiniteValueError):
        detector.build_reference([1.0, np.nan])


def _cusum_step(w_plus, w_minus, log_hi, log_lo, allowance, top_r):
    """One ``detector._Cusum.step`` from the given W+ and W- (shape ``(p,)``);
    returns the new W+, W-, the two-sided statistics and V."""
    cusum = detector._Cusum(detector.MonitorConfig(allowance, top_r, len(w_plus)))
    cusum.w[0], cusum.w[1] = w_minus, w_plus
    v = cusum.step(np.stack([log_lo, log_hi]))
    return cusum.w[1], cusum.w[0], cusum.two_sided(), v


def _top_r_sum(stats, top_r):
    """V of one step whose log terms cancel the allowance exactly (-0.5
    against 0.5, for values that are multiples of 0.5), from W+ = ``stats``."""
    terms = np.full_like(stats, -0.5)
    return _cusum_step(stats, np.zeros_like(stats), terms, terms, 0.5, top_r)[3]


def _one_stream_step(w_plus, w_minus, mu, allowance):
    """W+ and W- of one stream after one kernel step at CDF estimate mu."""
    w_plus, w_minus, _, _ = _cusum_step(
        np.array([w_plus]), np.array([w_minus]),
        np.log([1.0 - mu]), np.log([mu]), allowance, 1,
    )
    return w_plus[0], w_minus[0]


def test_cusum_step_hand_cases():
    # mu=0.5: both raw increments are log(2)-1.3 < 0, clamp to zero.
    w_plus, w_minus = _one_stream_step(0.0, 0.0, 0.5, 1.3)
    assert w_plus == 0.0 and w_minus == 0.0
    # mu=0.99 pushes the upper side only.
    w_plus, w_minus = _one_stream_step(0.0, 0.0, 0.99, 1.3)
    assert w_plus == pytest.approx(-np.log(0.01) - 1.3)
    assert w_minus == 0.0
    # Accumulation from a non-zero state.
    w_plus, _ = _one_stream_step(5.0, 0.0, 0.5, 1.3)
    assert w_plus == pytest.approx(5.0 + np.log(2.0) - 1.3)


def test_two_sided():
    # Log terms of -0.5 against an allowance of 0.5 add exactly zero, so
    # W+ and W- stay as given and the step returns their maximum.
    for w_plus, w_minus, expected in ((0.0, 0.0, 0.0), (3.3, 0.0, 3.3), (1.2, 4.5, 4.5)):
        _, _, two, _ = _cusum_step(
            np.array([w_plus]), np.array([w_minus]),
            np.array([-0.5]), np.array([-0.5]), 0.5, 1,
        )
        assert two[0] == expected


def test_global_statistic():
    stats = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    assert _top_r_sum(stats, 4) == 13.0
    assert _top_r_sum(stats, 5) == pytest.approx(stats.sum())
    assert _top_r_sum(np.zeros(2), 2) == 0.0
    with pytest.raises(BadRError):
        detector.MonitorConfig(1.3, 0, stats.size)
    with pytest.raises(BadRError):
        detector.MonitorConfig(1.3, 6, stats.size)


def test_streaming_matches_naive_oracle_bitwise():
    rng = np.random.default_rng(0)
    for case in range(25):
        p = int(rng.integers(1, 6))
        t_len = int(rng.integers(5, 51))
        top_r = int(rng.integers(1, p + 1))
        refs = [detector.build_reference(rng.normal(size=rng.integers(5, 30)))
                for _ in range(p)]
        data = rng.normal(size=(t_len, p))
        expected = naive_run(refs, 1.3, top_r, data)
        config = detector.MonitorConfig(1.3, top_r, p)
        monitor = detector.Monitor(refs, config)
        got = np.array([monitor.step(row).global_stat for row in data])
        np.testing.assert_array_equal(got, expected)


def test_step_ranks_ties_like_naive_oracle_and_run():
    # Integer references share values within and across streams, and
    # samples hit those values exactly, so any count of ties (<= for <, or
    # another stream's equal values) changes mu. A small allowance keeps
    # every rank visible in W+ and W-.
    rng = np.random.default_rng(6)
    cases = []
    for _ in range(40):
        p = int(rng.integers(1, 7))
        refs = [rng.integers(-4, 5, size=rng.integers(1, 31)).astype(float)
                for _ in range(p)]
        pool = np.concatenate(refs + [np.array([-9.0, 9.0])])
        cases.append((refs, rng.choice(pool, size=(25, p))))
    zeros = [np.array([-0.0, 0.0, 1.0]), np.array([0.0]), np.array([-1.0, -0.0])]
    cases.append((zeros, np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]] * 3)))
    for case, (raw_refs, data) in enumerate(cases):
        refs = [detector.build_reference(ref) for ref in raw_refs]
        p = len(refs)
        top_r = p if case % 2 else int(rng.integers(1, p + 1))
        config = detector.MonitorConfig(0.05, top_r, p)
        stepper = detector.Monitor(refs, config)
        stepped = np.array([stepper.step(row).global_stat for row in data])
        np.testing.assert_array_equal(stepped, naive_run(refs, 0.05, top_r, data))
        batch = detector.run_many(refs, config, [data])[0]
        np.testing.assert_array_equal(stepped, batch)


def test_step_log_tables_match_oracle_bitwise_across_reset():
    # Each stream's reference has its own size in 1..30, and a quarter of
    # the keys lie below or above every reference value, so both ends of
    # every stream's log tables (c = 0 and c = s_i) are read. Each monitor
    # is reset part-way; both parts must match a fresh oracle run.
    rng = np.random.default_rng(9)
    cases = [[1, 30, 2, 17, 5]]
    cases += [rng.permutation(30)[: rng.integers(1, 7)] + 1 for _ in range(30)]
    for case, sizes in enumerate(cases):
        p = len(sizes)
        refs = [detector.build_reference(rng.normal(size=size)) for size in sizes]
        data = rng.normal(size=(40, p))
        data[rng.random(data.shape) < 0.125] = -50.0
        data[rng.random(data.shape) < 0.125] = 50.0
        top_r = p if case % 2 else int(rng.integers(1, p + 1))
        config = detector.MonitorConfig(0.05, top_r, p)
        cut = int(rng.integers(1, data.shape[0]))
        monitor = detector.Monitor(refs, config)
        outputs = [monitor.step(row) for row in data[:cut]]
        monitor.reset()
        outputs += [monitor.step(row) for row in data[cut:]]
        assert outputs[cut].time_index == 0
        stepped = np.array([out.global_stat for out in outputs])
        local = np.array([out.local_stats for out in outputs])
        for part in (slice(0, cut), slice(cut, None)):
            v_expected, local_expected = naive_trace(refs, 0.05, top_r, data[part])
            np.testing.assert_array_equal(
                stepped[part].view(np.int64), v_expected.view(np.int64)
            )
            np.testing.assert_array_equal(
                local[part].view(np.int64), local_expected.view(np.int64)
            )
            batch = detector.run_many(refs, config, [data[part]])[0]
            np.testing.assert_array_equal(stepped[part].view(np.int64), batch.view(np.int64))


def test_batch_paths_match_streaming_bitwise():
    rng = np.random.default_rng(1)
    p = 4
    refs = [detector.build_reference(rng.normal(size=20)) for _ in range(p)]
    config = detector.MonitorConfig(1.3, 2, p)
    runs = rng.normal(size=(3, 40, p))
    batch = detector.run_many(refs, config, runs)
    for r in range(runs.shape[0]):
        monitor = detector.Monitor(refs, config)
        trace = monitor.run(runs[r])
        np.testing.assert_array_equal(trace.global_stats, batch[r])
        stepper = detector.Monitor(refs, config)
        stepped = np.array([stepper.step(row).global_stat for row in runs[r]])
        np.testing.assert_array_equal(stepped, batch[r])


def test_alarm_threshold_is_inclusive():
    rng = np.random.default_rng(2)
    refs = [detector.build_reference(rng.normal(size=15))]
    config = detector.MonitorConfig(1.3, 1, 1)
    monitor = detector.Monitor(refs, config)
    outputs = [monitor.step(np.array([5.0])) for _ in range(5)]
    v = outputs[-1].global_stat
    assert v > 0
    monitor = detector.Monitor(refs, config.with_threshold(v))
    trace = monitor.run(np.full((5, 1), 5.0))
    assert trace.alarms[-1]
    assert np.flatnonzero(trace.alarms)[0] == 4


def test_monitor_reset_clears_state():
    rng = np.random.default_rng(5)
    refs = [detector.build_reference(rng.normal(size=15)) for _ in range(2)]
    config = detector.MonitorConfig(1.3, 2, 2)
    monitor = detector.Monitor(refs, config)
    hot = np.array([4.0, -4.0])
    out = None
    for _ in range(10):
        out = monitor.step(hot)
    assert out.global_stat > 0
    monitor.reset()
    fresh = detector.Monitor(refs, config)
    after = monitor.step(hot)
    assert after.time_index == 0
    assert after.global_stat == fresh.step(hot).global_stat


def test_monitor_output_fields():
    refs = [detector.build_reference(np.arange(10.0))]
    config = detector.MonitorConfig(1.3, 1, 1)
    monitor = detector.Monitor(refs, config)
    out = monitor.step(np.array([100.0]))
    assert out.time_index == 0
    assert not out.alarm  # default threshold is +inf
    assert len(out.local_stats) == 1
    assert out.global_stat == out.local_stats[0]


def test_bad_inputs_rejected():
    refs = [detector.build_reference(np.arange(10.0))]
    config = detector.MonitorConfig(1.3, 1, 1)
    monitor = detector.Monitor(refs, config)
    with pytest.raises(EmptyInputError):
        monitor.run(np.empty((0, 1)))
    with pytest.raises(DimensionMismatchError):
        monitor.step(np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatchError):
        monitor.step(np.float64(1.0))
    with pytest.raises(EmptyInputError):
        detector.run_many(refs, config, np.empty((2, 0, 1)))
    with pytest.raises(EmptyInputError):
        detector.run_many(refs, config, iter([]))


@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=30,
    ),
    st.floats(min_value=-60, max_value=60, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_cdf_always_interior(ref_values, x):
    ref = detector.build_reference(ref_values)
    mu = detector.estimate_cdf(ref, x)
    assert 0.0 < mu < 1.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_v_nonnegative_and_finite(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 5))
    refs = [detector.build_reference(rng.normal(size=12)) for _ in range(p)]
    config = detector.MonitorConfig(1.3, p, p)
    monitor = detector.Monitor(refs, config)
    data = rng.normal(size=(20, p)) * 3
    trace = monitor.run(data)
    assert np.isfinite(trace.global_stats).all()
    assert (trace.global_stats >= 0).all()


# Integer values tie within and across streams, the two zeros tie with each
# other, and -9 and 9 lie beyond both ends of every reference.
_TIE_VALUES = [-4.0, -1.0, -0.0, 0.0, 1.0, 2.0, 4.0]
_KEY_VALUES = _TIE_VALUES + [-9.0, 9.0]


@st.composite
def _ranking_cases(draw):
    """References of differing sizes (often 1) and keys of shape
    ``(1, 1, p)``, ``(T, p)`` or one row past a ranking slice."""
    p = draw(st.integers(1, 4))
    refs = []
    for _ in range(p):
        size = draw(st.one_of(st.just(1), st.integers(2, 30)))
        values = draw(st.lists(st.sampled_from(_TIE_VALUES), min_size=size, max_size=size))
        refs.append(detector.build_reference(values))
    shape = draw(st.sampled_from(["sample", "run", "slices"]))
    if shape == "slices":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return refs, rng.choice(_KEY_VALUES, size=(detector._RANK_SLICE_ROWS + 1, p))
    rows = 1 if shape == "sample" else draw(st.integers(1, 40))
    values = draw(st.lists(st.sampled_from(_KEY_VALUES), min_size=rows * p, max_size=rows * p))
    keys = np.array(values).reshape(rows, p)
    return refs, keys[np.newaxis] if shape == "sample" else keys


def _assert_columns_match_search(refs, keys):
    """Rank ``keys`` of shape ``(..., p)`` as ``run_many`` does and check
    each stream's columns and the log table read there against a per-key
    search: a column is the stream's first column plus the count of
    ``searchsorted(side="left")``, and the table there holds, bitwise, the
    logs of ``(c + 1.0) / (s + 2.0)`` and of its complement."""
    sizes = [ref.size for ref in refs]
    context = detector._References(refs, len(refs))
    logs, starts = context.logs, context.starts
    assert logs.shape == (2, sum(sizes) + len(sizes))
    # Each stream's s + 1 columns follow the columns of the streams before it.
    assert list(starts) == [sum(size + 1 for size in sizes[:i]) for i in range(len(sizes))]
    cols = detector._table_columns(context.rank_index, keys.copy())
    assert cols.shape == keys.shape and cols.dtype == np.intp
    for i, ref in enumerate(refs):
        counts = np.searchsorted(ref, keys[..., i], side="left")
        np.testing.assert_array_equal(cols[..., i], starts[i] + counts)
        mu = (counts + 1.0) / (ref.size + 2.0)
        for row, expected in enumerate([np.log(mu), np.log(1.0 - mu)]):
            got = logs[row, cols[..., i]]
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


@given(_ranking_cases())
@settings(max_examples=150, deadline=None)
def test_cdf_estimates_match_per_key_search_bitwise(case):
    _assert_columns_match_search(*case)


# Values a reference or key may take besides random draws: both zeros, the
# float extremes, subnormals and the largest finite magnitudes.
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                1.0, -1.0, 1e308, -1e308, np.finfo(float).max, -np.finfo(float).max]


@st.composite
def _bucket_cases(draw):
    """A sorted reference of 1 to 3000 values and keys to rank against it.

    The reference is drawn from a small pool (duplicates; a constant one
    when the pool holds one value), or spread around a centre by a width
    from subnormal to 1e308 (ranges that overflow, scales that overflow).
    The keys hold every reference value, its ``np.nextafter`` neighbours
    on both sides, the edge values and the pool.
    """
    size = draw(st.one_of(st.integers(1, 8), st.integers(1, 3000)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.one_of(st.sampled_from(_EDGE_VALUES), finite),
                         min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.choice(pool, size=size)
    else:
        centre = draw(st.one_of(st.sampled_from(_EDGE_VALUES), finite))
        width = draw(st.sampled_from([5e-324, 1e-320, 1e-310, 1e-300, 1e-8, 1.0, 1e300, 1e308]))
        with np.errstate(over="ignore", invalid="ignore"):
            values = centre + rng.uniform(-1.0, 1.0, size=size) * width
        values[~np.isfinite(values)] = pool[0]
    ref = detector.build_reference(values)
    with np.errstate(over="ignore"):
        neighbours = [np.nextafter(ref, -np.inf), np.nextafter(ref, np.inf)]
    keys = np.concatenate([ref, *neighbours, _EDGE_VALUES, pool])
    return ref, keys[np.isfinite(keys)]


@given(_bucket_cases())
@settings(max_examples=300, deadline=None)
def test_rank_index_counts_equal_searchsorted(case):
    # Exact counts, and no overflow or invalid-value warning on the way.
    ref, keys = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _assert_columns_match_search([ref], keys[:, np.newaxis])


def _step_with_resets(refs, config, run, reset_on_alarm=True):
    """Oracle: one Monitor stepped sample by sample, reset after every alarm
    unless ``reset_on_alarm`` is false."""
    monitor = detector.Monitor(refs, config)
    out = []
    for row in run:
        step = monitor.step(row)
        out.append(step.global_stat)
        if step.alarm and reset_on_alarm:
            monitor.reset()
    return np.array(out)


def test_run_many_reset_on_alarm_matches_stepping_with_resets():
    # Reference 0..19: a value of 100 ranks above all of it (mu = 21/22)
    # and adds about 1.79 to W+ per sample; -100 adds the same to W-; 9.5
    # sits mid-reference and leaves both sides clamped at zero.
    p, t_len = 3, 30
    refs = [detector.build_reference(np.arange(20.0)) for _ in range(p)]
    config = detector.MonitorConfig(1.3, 2, p, threshold=3.0)
    runs = np.full((4, t_len, p), 9.5)
    runs[0, 3:7, 0] = 100.0  # one stream: alarms on every second sample
    runs[0, 12:16, 2] = -100.0  # the W- side
    runs[1, 20:, :2] = 100.0  # two streams: alarms on every sample to the end
    # Row 2 stays mid-reference and never alarms.
    runs[3] = np.random.default_rng(4).normal(size=(t_len, p)) * 8.0 + 9.5

    got = detector.run_many(refs, config, runs, reset_on_alarm=True)
    for r in range(runs.shape[0]):
        np.testing.assert_array_equal(got[r], _step_with_resets(refs, config, runs[r]))

    alarms = got >= config.threshold
    np.testing.assert_array_equal(np.flatnonzero(alarms[0]), [4, 6, 13, 15])
    np.testing.assert_array_equal(np.flatnonzero(alarms[1]), np.arange(20, t_len))
    assert not alarms[2].any()
    assert alarms[3].any()
    # Without resets the same runs alarm on more samples.
    plain = detector.run_many(refs, config, runs)
    assert (plain >= config.threshold).sum() > alarms.sum()


def _shifted_runs(count, t_len, p, seed):
    """Runs around a 0..19 reference, wide enough to alarm at H = 3."""
    return np.random.default_rng(seed).normal(size=(count, t_len, p)) * 8.0 + 9.5


@pytest.mark.parametrize(
    "reset_on_alarm, shared_context",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "False-context", "True-context"],
)
def test_run_many_over_small_blocks_matches_per_run_monitors_bitwise(
    monkeypatch, reset_on_alarm, shared_context
):
    # With ``shared_context`` every run_many call and every monitor below
    # is given one reference context, and so shares its tables and indexes.
    p, t_len = 3, 30
    refs = [detector.build_reference(np.arange(20.0)) for _ in range(p)]
    if shared_context:
        refs = detector._References(refs, p)
    config = detector.MonitorConfig(1.3, 2, p, threshold=3.0)
    runs = _shifted_runs(7, t_len, p, seed=8)
    whole = detector.run_many(refs, config, runs, reset_on_alarm=reset_on_alarm)
    # Two runs per block: the seven runs fill three blocks and part of a fourth.
    monkeypatch.setattr(detector, "_BLOCK_BYTES", 2 * runs[0].nbytes + 1)
    stacked = detector.run_many(refs, config, runs, reset_on_alarm=reset_on_alarm)
    streamed = detector.run_many(
        refs, config, (run.copy() for run in runs), reset_on_alarm=reset_on_alarm
    )
    for got in (whole, stacked, streamed):
        assert got.shape == runs.shape[:2]
    for r, run in enumerate(runs):
        if reset_on_alarm:
            expected = _step_with_resets(refs, config, run)
        else:
            expected = detector.Monitor(refs, config).run(run).global_stats
        for got in (whole, stacked, streamed):
            np.testing.assert_array_equal(got[r].view(np.int64), expected.view(np.int64))
    assert (whole >= config.threshold).any(axis=1).all()
    if shared_context:
        assert detector.Monitor(refs, config)._index is refs.step_index


@pytest.mark.parametrize("stream_count", [2, 4])
def test_context_of_another_stream_count_is_refused(stream_count):
    refs = detector._References([np.arange(20.0)] * 3, 3)
    config = detector.MonitorConfig(1.3, 1, stream_count)
    runs = np.zeros((1, 5, stream_count))
    with pytest.raises(DimensionMismatchError, match="3 references for"):
        detector.run_many(refs, config, runs)
    with pytest.raises(DimensionMismatchError, match="3 references for"):
        detector.Monitor(refs, config)
    with pytest.raises(DimensionMismatchError, match="3 references for"):
        detector._LazyTraces(
            refs, config, lambda i, start, count: runs[i, start : start + count], 5, [5]
        )


def test_run_many_block_is_one_array(monkeypatch):
    # One block holds all 50 runs, and short ranking slices keep ranking's
    # buffers small, so the block is most of the peak: ranking writes the
    # table columns over the samples, and nothing else block-sized is made.
    p = 20
    refs = [detector.build_reference(np.arange(200.0)) for _ in range(p)]
    config = detector.MonitorConfig(1.3, 4, p)
    runs = _shifted_runs(50, 1000, p, seed=13) * 10.0
    monkeypatch.setattr(detector, "_BLOCK_BYTES", runs.nbytes)
    monkeypatch.setattr(detector, "_RANK_SLICE_ROWS", 1000)
    tracemalloc.start()
    try:
        detector.run_many(refs, config, runs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * runs.nbytes


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.zeros((31, 3)), DimensionMismatchError),
        (np.zeros((30, 4)), DimensionMismatchError),
        (np.zeros(3), DimensionMismatchError),
        (np.where(np.arange(3) == 1, np.nan, np.zeros((30, 3))), NonFiniteValueError),
        (np.full((30, 3), -np.inf), NonFiniteValueError),
    ],
)
def test_run_many_rejects_bad_run_after_good_ones(monkeypatch, bad, error):
    p = 3
    refs = [detector.build_reference(np.arange(20.0)) for _ in range(p)]
    config = detector.MonitorConfig(1.3, 2, p)
    good = _shifted_runs(3, 30, p, seed=9)
    # The bad run comes after one full block of two runs has been advanced.
    monkeypatch.setattr(detector, "_BLOCK_BYTES", 2 * good[0].nbytes)
    with pytest.raises(error):
        detector.run_many(refs, config, [*good, bad])


# Under 16 runs a 600-sample call advances as time chunks: 6 chunks of 100
# for 1 or 2 runs, 3 of 200 for 5 and 2 of 300 for 8; 16 and 40 runs step
# in lockstep. Each split cuts the runs into two calls: 137 inside a
# chunk, 200 and 300 on a chunk boundary, 599 one sample before the end.
_CONTINUED_SPLITS = (137, 200, 300, 599)


@pytest.mark.parametrize("reset_on_alarm", [False, True])
@pytest.mark.parametrize("runs_count", [1, 2, 5, 8, 16, 40])
def test_run_many_continued_from_its_state_equals_one_call(
    monkeypatch, runs_count, reset_on_alarm
):
    p, t_len = 3, 600
    refs = [detector.build_reference(np.arange(20.0)) for _ in range(p)]
    config = detector.MonitorConfig(1.3, 2, p, threshold=3.0)
    runs = _shifted_runs(runs_count, t_len, p, seed=runs_count)
    whole_state = np.zeros((2, runs_count, p))
    whole = detector.run_many(
        refs, config, runs, reset_on_alarm=reset_on_alarm, state=whole_state
    )
    assert (whole >= config.threshold).any()
    entries = []
    # Default blocks, then blocks of two runs, so that each call of more
    # than two runs spans several blocks.
    for block_runs in (None, 2):
        if block_runs is not None:
            monkeypatch.setattr(detector, "_BLOCK_BYTES", block_runs * runs[0].nbytes)
        for split in _CONTINUED_SPLITS:
            state = np.zeros((2, runs_count, p))
            first = detector.run_many(
                refs, config, runs[:, :split], reset_on_alarm=reset_on_alarm, state=state
            )
            entries.append(state.any())
            second = detector.run_many(
                refs, config, (run[split:] for run in runs),
                reset_on_alarm=reset_on_alarm, state=state,
            )
            joined = np.concatenate([first, second], axis=1)
            np.testing.assert_array_equal(joined.view(np.int64), whole.view(np.int64))
            np.testing.assert_array_equal(state.view(np.int64), whole_state.view(np.int64))
    # Most second calls start from a state that is not zeroed.
    assert sum(entries) >= len(entries) // 2


@pytest.mark.parametrize(
    "shape", [(2, 4, 3), (2, 2, 3), (3, 3, 3), (1, 3, 3), (2, 3, 2), (2, 3, 4), (3, 3)]
)
def test_run_many_rejects_a_state_of_the_wrong_shape(monkeypatch, shape):
    p = 3
    refs = [detector.build_reference(np.arange(20.0)) for _ in range(p)]
    config = detector.MonitorConfig(1.3, 2, p)
    runs = _shifted_runs(3, 30, p, seed=9)
    # One run per block: a state of too few or too many runs is found out
    # after earlier blocks have been advanced.
    monkeypatch.setattr(detector, "_BLOCK_BYTES", runs[0].nbytes)
    state = np.full(shape, 0.5)
    with pytest.raises(DimensionMismatchError, match="state"):
        detector.run_many(refs, config, runs, state=state)
    # A refused state is left as it was.
    assert (state == 0.5).all()


def test_monitor_run_leaves_samples_unchanged():
    rng = np.random.default_rng(10)
    refs = [detector.build_reference(rng.normal(size=20)) for _ in range(2)]
    samples = rng.normal(size=(25, 2))
    before = samples.copy()
    detector.Monitor(refs, detector.MonitorConfig(1.3, 1, 2)).run(samples)
    np.testing.assert_array_equal(samples.view(np.int64), before.view(np.int64))


def test_state_is_not_aliased_across_steps_runs_and_reset():
    # One monitor alternates k single steps and a batch run, is reset, and
    # does both again. Both paths advance the same in-place state, so each
    # part must match a fresh oracle run, and every MonitorOutput handed
    # out earlier must keep the statistics it was given.
    rng = np.random.default_rng(12)
    p, top_r, k, chunk = 4, 2, 3, 10
    refs = [detector.build_reference(rng.normal(size=25)) for _ in range(p)]
    config = detector.MonitorConfig(0.3, top_r, p)
    monitor = detector.Monitor(refs, config)
    outputs, snapshots = [], []
    for part in range(2):
        if part:
            monitor.reset()
        data = rng.normal(size=(4 * (k + chunk), p)) * 1.5
        v_expected, local_expected = naive_trace(refs, 0.3, top_r, data)
        v = []
        for lo in range(0, len(data), k + chunk):
            for row in data[lo : lo + k]:
                out = monitor.step(row)
                assert out.time_index == len(v)
                outputs.append((out, local_expected[len(v)]))
                snapshots.append(out.local_stats.copy())
                v.append(out.global_stat)
            v.extend(monitor.run(data[lo + k : lo + k + chunk]).global_stats)
        np.testing.assert_array_equal(np.array(v).view(np.int64), v_expected.view(np.int64))
    # After every later step and run: each step's statistics are still the
    # oracle's and the ones it returned.
    for (out, expected), snapshot in zip(outputs, snapshots):
        np.testing.assert_array_equal(out.local_stats.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(out.local_stats.view(np.int64), snapshot.view(np.int64))


@pytest.mark.parametrize("count", [1, 5])
def test_run_many_reset_on_alarm_at_zero_and_infinite_threshold(count):
    # One run is the false-alarm-rate call's shape; several share a block.
    p = 3
    refs = [detector.build_reference(np.arange(20.0)) for _ in range(p)]
    runs = _shifted_runs(count, 30, p, seed=11)
    config = detector.MonitorConfig(1.3, 2, p)
    # At H = 0 every sample fires, so each V is one step from zeroed state.
    every = detector.run_many(refs, config.with_threshold(0.0), runs, reset_on_alarm=True)
    single = detector.run_many(refs, config, runs.reshape(-1, 1, p)).reshape(every.shape)
    np.testing.assert_array_equal(every.view(np.int64), single.view(np.int64))
    for r, run in enumerate(runs):
        for t, row in enumerate(run):
            one = naive_run(refs, 1.3, 2, row[np.newaxis])
            assert every[r, t].view(np.int64) == one[0].view(np.int64)
    # At H = inf nothing fires, so resets change nothing.
    never = detector.run_many(refs, config, runs, reset_on_alarm=True)
    plain = detector.run_many(refs, config, runs)
    np.testing.assert_array_equal(never.view(np.int64), plain.view(np.int64))
    for r, run in enumerate(runs):
        np.testing.assert_array_equal(
            never[r].view(np.int64), naive_run(refs, 1.3, 2, run).view(np.int64)
        )
    # The runs accumulate, so the resets at H = 0 did change the traces.
    assert (every != plain).any()


def _record_cusums(monkeypatch):
    """Every ``_Cusum`` the detector makes from now on, with its ``runs``
    shape and the count of steps it takes; the columns handed to each
    ``_advance_chunks`` call; and the column slices handed to each
    ``_advance_steps`` call."""
    made, chunked, stepped = [], [], []
    real = detector._Cusum
    advance_chunks, advance_steps = detector._advance_chunks, detector._advance_steps

    class Recording(real):
        def __init__(self, config, runs=(), reset_at=None):
            super().__init__(config, runs, reset_at)
            self.runs, self.steps = runs, 0
            made.append(self)

        def step(self, terms):
            self.steps += 1
            return super().step(terms)

    def record_chunks(logs, cols, *rest):
        chunked.append(cols)
        return advance_chunks(logs, cols, *rest)

    def record_steps(cusum, logs, cols, v):
        stepped.append(cols)
        return advance_steps(cusum, logs, cols, v)

    monkeypatch.setattr(detector, "_Cusum", Recording)
    monkeypatch.setattr(detector, "_advance_chunks", record_chunks)
    monkeypatch.setattr(detector, "_advance_steps", record_steps)
    return made, chunked, stepped


# One stream over the reference 0..19: a sample of 100 adds log(22) - k to
# W+, and one of 9.5, mid-reference, drains both sides by k - log(2). Held
# at 100, V climbs in equal steps and resets every few samples, a period
# that does not divide the chunk length of 10; so each chunk's speculation
# from zeroed state is out of phase and pass 2 never stops early. Each case
# is (segments as (start, value), allowance, threshold, the chunks pass 3
# re-runs) over 40 samples cut into 4 chunks.
_REPAIR_CASES = {
    # Chunk 2 enters pass 2 from chunk 1's speculative end, not its true
    # one, so pass 3 re-runs it; from its true entry it ends where its
    # speculation ended, which is the entry pass 2 gave chunk 3, so chunk 3
    # is kept though its predecessor was re-run.
    "redo-against-last-used-entry": ([(0, 9.5), (2, 100.0)], 1.3, 5.0, [2]),
    # Chunk 2 is re-run from a true entry that differs from its pass-2 one,
    # yet ends in the zeroed state its speculation ended in; so chunk 3,
    # whose pass-2 entry is that zeroed state, is kept.
    "propagate-after-every-chunk-coalesces": (
        [(0, 9.5), (3, 100.0), (28, 9.5)], 1.5, 12.0, [2],
    ),
    # Pass 2 ran chunk 3 from an entry too high to drain within the chunk,
    # so all 10 of the V it wrote are wrong. Chunk 3's true state meets its
    # stored states within a few steps, but pass 3 must rewrite every V
    # pass 2 wrote, so it re-runs the chunk to its end.
    "overwrite-steps-an-earlier-round-wrote": (
        [(0, 100.0), (27, 9.5)], 1.3, 20.0, [2, 3],
    ),
    # A sustained shift without resets: no chunk after the first ever meets
    # its speculation, so pass 2 runs to the chunks' end and pass 3 re-runs
    # every chunk after the second.
    "never-meets-speculation": ([(0, 100.0)], 1.3, math.inf, [2, 3]),
}


@pytest.mark.parametrize("case", list(_REPAIR_CASES))
def test_multi_round_chunk_repair_matches_stepping_with_resets(monkeypatch, case):
    segments, allowance, threshold, rerun = _REPAIR_CASES[case]
    run = np.empty((40, 1))
    for (start, value), (stop, _) in zip(segments, [*segments[1:], (40, None)]):
        run[start:stop] = value
    refs = [detector.build_reference(np.arange(20.0))]
    config = detector.MonitorConfig(allowance, 1, 1, threshold=threshold)
    monkeypatch.setattr(detector, "_LOCKSTEP_WIDTH", 4)
    monkeypatch.setattr(detector, "_MIN_CHUNK", 10)
    made, chunked, stepped = _record_cusums(monkeypatch)
    got = detector.run_many(refs, config, run[np.newaxis], reset_on_alarm=True)
    # The block's state, the 1 x 4 state of passes 1 and 2, and the one
    # run's state that pass 3 walks the chunks with.
    assert [cusum.runs for cusum in made] == [(1,), (1, 4), (1,)]
    assert made[1].steps == 2 * 10
    # Pass 3 hands ``_advance_steps`` the columns of each chunk it re-runs,
    # then ``_run_recursion`` the empty steps past the last chunk. The
    # chunks start at the run's first sample, and a chunk of the one
    # stream spans 10 columns of 8 bytes.
    assert [cols.shape for cols in stepped] == [(1, 10, 1)] * len(rerun) + [(1, 0, 1)]
    first = chunked[0].ctypes.data
    assert [(cols.ctypes.data - first) // 80 for cols in stepped[:-1]] == rerun
    assert made[2].steps == 10 * len(rerun)
    expected = _step_with_resets(refs, config, run)
    np.testing.assert_array_equal(got[0].view(np.int64), expected.view(np.int64))


@st.composite
def _chunked_cases(draw):
    """Detector settings, the chunking constants and a data seed."""
    p = draw(st.integers(1, 12))
    return (
        p,
        draw(st.integers(1, p)),  # top_r
        draw(st.integers(1, 70)),  # runs
        draw(st.integers(1, 400)),  # samples per run
        draw(st.sampled_from([0.05, 0.3, 1.3])),  # allowance
        draw(st.sampled_from([0.0, 6.0, 25.0, math.inf])),  # threshold
        draw(st.booleans()),  # reset_on_alarm
        draw(st.integers(2, 160)),  # _LOCKSTEP_WIDTH
        draw(st.integers(1, 40)),  # _MIN_CHUNK
        draw(st.sampled_from([1, 5, 30, 512])),  # _STORED_STEPS
        draw(st.integers(0, 2**32 - 1)),  # data seed
    )


@given(_chunked_cases())
@example((12, 10, 3, 397, 0.05, 25.0, True, 16, 9, 512, 0))  # r >= 9, 397 = 5 * 79 + 2
@example((12, 9, 1, 400, 0.3, 6.0, False, 16, 100, 512, 1))  # 4 chunks of 100
@example((5, 2, 70, 250, 1.3, 0.0, True, 160, 40, 5, 2))  # 2 chunks of 125, 5 stored
@example((3, 3, 2, 40, 1.3, math.inf, True, 64, 1, 512, 3))  # chunks of one step
@settings(max_examples=40, deadline=None)
def test_chunked_run_many_matches_stepping_bitwise(case):
    p, top_r, runs, steps, allowance, threshold, reset, width, min_chunk, stored, seed = case
    rng = np.random.default_rng(seed)
    refs = [detector.build_reference(rng.normal(size=rng.integers(5, 30)))
            for _ in range(p)]
    data = rng.normal(size=(runs, steps, p)) * 1.5
    # Each run holds some streams above their references for a stretch, as
    # long as a chunk or longer, so that chunks often miss their
    # speculation and pass 3 re-runs some of them.
    for run in data:
        start = int(rng.integers(0, steps))
        run[start : start + int(rng.integers(1, 200)), : int(rng.integers(1, p + 1))] += 3.0
    config = detector.MonitorConfig(allowance, top_r, p, threshold=threshold)
    with mock.patch.multiple(
        detector, _LOCKSTEP_WIDTH=width, _MIN_CHUNK=min_chunk, _STORED_STEPS=stored
    ):
        got = detector.run_many(refs, config, data, reset_on_alarm=reset)
    for r, run in enumerate(data):
        expected = _step_with_resets(refs, config, run, reset_on_alarm=reset)
        np.testing.assert_array_equal(got[r].view(np.int64), expected.view(np.int64))


@pytest.fixture
def built_contexts(monkeypatch):
    """Empties ``_References.of``'s kept entry and counts every context
    built from then on; returns the one-item count list."""
    monkeypatch.setattr(detector._References, "_kept", None)
    count = [0]
    init = detector._References.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(detector._References, "__init__", counting)
    return count


def _far_case(p=4, s=40, runs=3, t_len=300, seed=20):
    """Plain references, a config at H = 6 and a source of runs wider than
    the references, which alarm now and then."""
    rng = np.random.default_rng(seed)
    refs = [rng.normal(size=s) for _ in range(p)]
    data = rng.normal(size=(runs, t_len, p)) * 1.3
    config = detector.MonitorConfig(1.3, 2, p, threshold=6.0)
    return refs, config, data, lambda r, start, n: data[r, start : start + n]


def _public_calls(refs, config, data, source):
    """One ``run_many`` with resets and one FAR estimate over ``refs``."""
    trace = detector.run_many(refs, config, data, reset_on_alarm=True)
    far = calibrate.estimate_false_alarm_rate(6.0, refs, config, source, 2, 250)
    return trace, far


def test_repeated_public_calls_build_one_context(built_contexts):
    refs, config, data, source = _far_case()
    fresh = detector._References(refs, len(refs))
    expected_trace, expected_far = _public_calls(fresh, config, data, source)
    built_contexts[0] = 0
    for _ in range(3):
        trace, far = _public_calls(refs, config, data, source)
        np.testing.assert_array_equal(trace.view(np.int64), expected_trace.view(np.int64))
        assert far == expected_far
    assert built_contexts[0] == 1
    # Monitors over the same plain references share the kept context.
    first, second = detector.Monitor(refs, config), detector.Monitor(refs, config)
    assert first._index is second._index
    assert built_contexts[0] == 1


@pytest.mark.parametrize("edit", ["value", "negative-zero"])
def test_edited_reference_rebuilds_context(built_contexts, edit):
    refs, config, data, source = _far_case()
    refs[1][7] = 0.0
    _public_calls(refs, config, data, source)
    # An in-place edit of a caller's array, even one that compares equal
    # as a float, makes the next call build a new context.
    refs[1][7] = 0.25 if edit == "value" else -0.0
    trace, far = _public_calls(refs, config, data, source)
    assert built_contexts[0] == 2
    expected_trace, expected_far = _public_calls(
        detector._References(refs, len(refs)), config, data, source
    )
    np.testing.assert_array_equal(trace.view(np.int64), expected_trace.view(np.int64))
    assert far == expected_far


def test_equal_bits_in_other_arrays_hit(built_contexts, trained_bundle, tmp_path):
    # A saved-then-loaded bundle holds distinct arrays with the same bits.
    path = tmp_path / "bundle.json"
    bundle.save_bundle(trained_bundle, path)
    loaded = bundle.load_bundle(path)
    assert loaded.references[0] is not trained_bundle.references[0]
    in_memory = detector.Monitor(trained_bundle.references, trained_bundle.config)
    from_file = detector.Monitor(loaded.references, loaded.config)
    assert from_file._index is in_memory._index
    assert built_contexts[0] == 1


def test_kept_context_checks_stream_count_and_is_replaced(built_contexts):
    refs, config, data, source = _far_case()
    first = detector._References.of(refs, len(refs))
    wider = detector.MonitorConfig(1.3, 2, len(refs) + 1)
    with pytest.raises(DimensionMismatchError, match="4 references for 5 streams"):
        detector.run_many(refs, wider, np.zeros((1, 5, len(refs) + 1)))
    with pytest.raises(DimensionMismatchError, match="3 references for 4 streams"):
        detector.run_many(refs[:-1], config, data)
    assert detector._References.of(refs, len(refs)) is first
    # Another reference set replaces the one kept entry, so the first
    # context is released once its callers drop it.
    kept = weakref.ref(first)
    del first
    other = detector._References.of([ref + 1.0 for ref in refs], len(refs))
    gc.collect()
    assert kept() is None
    assert detector._References._kept[1] is other


def test_monitors_sharing_a_context_step_from_threads():
    # Four monitors over one context step their own runs, one sample each
    # per barrier round, from four threads that switch as often as the
    # interpreter allows. Each V trace must be, bit for bit, the one its
    # monitor gives alone: the context holds no per-sample buffer.
    rng = np.random.default_rng(21)
    p, workers = 6, 4
    context = detector._References([rng.normal(size=50) for _ in range(p)], p)
    config = detector.MonitorConfig(0.3, 3, p)
    data = [rng.normal(size=(400, p)) * (1.0 + w) for w in range(workers)]
    alone = [detector.Monitor(context, config).run(run).global_stats for run in data]
    barrier = threading.Barrier(workers, timeout=60)
    traces = [[] for _ in range(workers)]

    def step(which):
        monitor = detector.Monitor(context, config)
        for row in data[which]:
            barrier.wait()
            traces[which].append(monitor.step(row).global_stat)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=step, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, expected in zip(traces, alone):
        np.testing.assert_array_equal(np.array(got).view(np.int64), expected.view(np.int64))
