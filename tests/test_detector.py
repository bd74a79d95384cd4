"""Detector unit tests.

The naive oracle below recomputes everything from scratch each step with
plain Python loops. Detector outputs must match it bitwise: both sides
evaluate the same expressions (np.log, ascending top-r sum), so equality
is exact, not approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultmon import detector
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
        batch = detector.Monitor(refs, config).run(data).global_stats
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
            batch = detector.Monitor(refs, config).run(data[part]).global_stats
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


@given(_ranking_cases())
@settings(max_examples=150, deadline=None)
def test_cdf_estimates_match_per_key_search_bitwise(case):
    refs, keys = case
    expected = np.empty(keys.shape)
    for i, ref in enumerate(refs):
        counts = np.searchsorted(ref, keys[..., i], side="left")
        expected[..., i] = (counts + 1.0) / (ref.size + 2.0)
    got = detector._cdf_estimates(refs, keys)
    assert got.shape == keys.shape
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def _step_with_resets(refs, config, run):
    """Oracle: one Monitor stepped sample by sample, reset after every alarm."""
    monitor = detector.Monitor(refs, config)
    out = []
    for row in run:
        step = monitor.step(row)
        out.append(step.global_stat)
        if step.alarm:
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


@pytest.mark.parametrize("reset_on_alarm", [False, True])
def test_run_many_over_small_blocks_matches_per_run_monitors_bitwise(
    monkeypatch, reset_on_alarm
):
    p, t_len = 3, 30
    refs = [detector.build_reference(np.arange(20.0)) for _ in range(p)]
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
