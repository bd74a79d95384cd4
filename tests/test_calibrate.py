"""Calibration tests.

The deterministic source drives V up by a fixed increment per step, so
run lengths, ARL values, and alarm times are exactly computable and the
bisection can be checked against closed forms.
"""

import numpy as np
import pytest

from faultmon import calibrate, detector, standardize
from faultmon.errors import (
    BracketError,
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
)

# Reference [0, 1], online value 10 -> mu = 3/4 exactly, so W+ grows by
# -log(1/4) - k per step and never clamps for k < log(4).
_K = 1.3
_DELTA = float(-np.log(0.25) - _K)


def _linear_refs_config():
    refs = [detector.build_reference([0.0, 1.0])]
    config = detector.MonitorConfig(_K, 1, 1)
    return refs, config


def _constant_source(replication, start, count):
    return np.full((count, 1), 10.0)


def test_deterministic_run_length():
    refs, config = _linear_refs_config()
    spec = calibrate.CalibrationSpec(target_arl0=50.0, replications=3)
    h = 10.0 * _DELTA + 1e-9
    est = calibrate.estimate_arl(h, refs, config, _constant_source, spec)
    assert est.mean_run_length == 11.0
    assert est.censored_fraction == 0.0
    np.testing.assert_array_equal(est.run_lengths, [11.0, 11.0, 11.0])


def test_unreachable_threshold_censors_everything():
    refs, config = _linear_refs_config()
    spec = calibrate.CalibrationSpec(target_arl0=50.0, replications=4, max_run_length=30)
    est = calibrate.estimate_arl(1e12, refs, config, _constant_source, spec)
    assert est.censored_fraction == 1.0
    assert est.mean_run_length == 30.0


def test_find_threshold_deterministic():
    refs, config = _linear_refs_config()
    spec = calibrate.CalibrationSpec(target_arl0=200.0, replications=2)
    result = calibrate.find_threshold(refs, config, _constant_source, spec)
    # ARL(h) = ceil(h / delta); the search must land within 2% of 200.
    assert abs(result.achieved_arl / 200.0 - 1.0) <= spec.tolerance
    assert result.achieved_arl == float(int(np.ceil(result.threshold / _DELTA)))
    assert result.censored_fraction == 0.0
    assert result.evaluations >= 1
    assert result.target_arl0 == 200.0


def test_find_threshold_conservative_when_tolerance_unmet():
    refs, config = _linear_refs_config()
    # 1e-9 relative tolerance is unattainable on a step function; the
    # search must fall back to the conservative (upper) bracket end.
    spec = calibrate.CalibrationSpec(
        target_arl0=200.0, replications=2, tolerance=1e-9
    )
    result = calibrate.find_threshold(refs, config, _constant_source, spec)
    assert result.achieved_arl >= 200.0
    assert result.achieved_arl <= 220.0


def test_find_threshold_bracket_failure():
    refs, config = _linear_refs_config()
    # The cap censors every run at 50 < target, so no threshold can reach
    # an ARL of 1000 and expansion gives up.
    spec = calibrate.CalibrationSpec(
        target_arl0=1000.0, replications=2, max_run_length=50
    )
    with pytest.raises(BracketError):
        calibrate.find_threshold(refs, config, _constant_source, spec)


def test_spec_validation():
    with pytest.raises(DomainError):
        calibrate.CalibrationSpec(target_arl0=1.0)
    with pytest.raises(EmptyInputError):
        calibrate.CalibrationSpec(target_arl0=10.0, replications=0)
    with pytest.raises(DomainError):
        calibrate.CalibrationSpec(target_arl0=10.0, tolerance=0.0)
    assert calibrate.CalibrationSpec(target_arl0=10.0).run_length_cap == 200


def test_false_alarm_rate_renewal_exact():
    refs, config = _linear_refs_config()
    # Crossing takes exactly 6 samples after every reset.
    h = 5.5 * _DELTA
    far = calibrate.estimate_false_alarm_rate(
        h, refs, config, _constant_source, replications=3, run_length=60
    )
    assert far == pytest.approx(1.0 / 6.0)


def test_false_alarm_rate_rejects_empty_budget():
    refs, config = _linear_refs_config()
    for replications, run_length in ((0, 60), (3, 0)):
        with pytest.raises(EmptyInputError):
            calibrate.estimate_false_alarm_rate(
                1.0, refs, config, _constant_source, replications, run_length
            )


def _three_stream_refs_config():
    rng = np.random.default_rng(13)
    refs = [detector.build_reference(rng.normal(size=50)) for _ in range(3)]
    return refs, detector.MonitorConfig(1.3, 2, 3)


def test_find_threshold_rejects_single_column_source():
    # A (count, 1) draw would broadcast into all three streams.
    refs, config = _three_stream_refs_config()

    def one_column(replication, start, count):
        return np.random.default_rng(replication).normal(size=(count, 1))

    spec = calibrate.CalibrationSpec(target_arl0=50.0, replications=4)
    with pytest.raises(DimensionMismatchError):
        calibrate.find_threshold(refs, config, one_column, spec)


def test_false_alarm_rate_rejects_single_row_source():
    # A (p,) draw would repeat one sample for the whole run.
    refs, config = _three_stream_refs_config()

    def one_row(replication, start, count):
        return np.random.default_rng(replication).normal(size=3)

    with pytest.raises(DimensionMismatchError):
        calibrate.estimate_false_alarm_rate(8.0, refs, config, one_row, 2, 100)


def _restart_loop_far(threshold, references, config, source, replications, run_length):
    """Oracle: rerun the detector on the rest of the block after each alarm."""
    cfg = config.with_threshold(threshold)
    alarms = 0
    for rep in range(replications):
        block = source(rep, 0, run_length)
        start = 0
        while start < run_length:
            trace = detector.run_many(references, cfg, block[np.newaxis, start:])[0]
            hits = np.flatnonzero(trace >= threshold)
            if hits.size == 0:
                break
            alarms += 1
            start += int(hits[0]) + 1
    return alarms, alarms / (replications * run_length)


def test_false_alarm_rate_equals_restart_loop():
    rng = np.random.default_rng(12)
    pool = rng.normal(size=(400, 5))
    refs = [detector.build_reference(pool[:200, i]) for i in range(5)]
    config = detector.MonitorConfig(1.3, 2, 5)
    source = calibrate.bootstrap_source(pool[200:], seed=3)
    alarms, expected = _restart_loop_far(8.0, refs, config, source, 4, 400)
    assert alarms >= 4 * 5  # several alarms per replication
    far = calibrate.estimate_false_alarm_rate(8.0, refs, config, source, 4, 400)
    assert type(far) is float and far == expected


def test_bootstrap_source_addressable_and_deterministic():
    rng = np.random.default_rng(8)
    pool = rng.normal(size=(50, 3))
    source = calibrate.bootstrap_source(pool, seed=123)
    whole = source(2, 0, 40)
    # Replication r reads the Philox keystream spawned with key (r,).
    draws = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=123, spawn_key=(2,)))
    ).random(40)
    np.testing.assert_array_equal(whole, pool[(draws * 50).astype(np.int64)])
    tail = source(2, 13, 27)
    np.testing.assert_array_equal(whole[13:], tail)
    again = calibrate.bootstrap_source(pool, seed=123)(2, 0, 40)
    np.testing.assert_array_equal(whole, again)
    other_rep = source(3, 0, 40)
    assert not np.array_equal(whole, other_rep)
    # Every emitted row is a pool row.
    pool_rows = {tuple(row) for row in pool}
    assert all(tuple(row) in pool_rows for row in whole)


def test_bootstrap_source_rejects_empty_pool():
    with pytest.raises(EmptyInputError):
        calibrate.bootstrap_source(np.empty((0, 2)), seed=0)


def test_standardized_source_applies_stats():
    rng = np.random.default_rng(9)
    pool = rng.normal(loc=5.0, scale=2.0, size=(40, 2))
    stats = standardize.fit_reference(pool)
    raw_source = calibrate.bootstrap_source(pool, seed=5)
    z_source = calibrate.standardized_source(raw_source, stats)
    np.testing.assert_array_equal(
        z_source(0, 0, 10), standardize.apply(raw_source(0, 0, 10), stats)
    )


def test_standard_normal_calibration_round_trip():
    # Module-scale Monte-Carlo check: 20 standard-normal streams with
    # 2000-point references, target ARL0 200; a fresh-data estimate at the
    # calibrated threshold must land within +-10%.
    rng = np.random.default_rng(42)
    refs = [detector.build_reference(rng.normal(size=2000)) for _ in range(20)]
    config = detector.MonitorConfig(1.3, 4, 20)

    def gauss_source(replication, start, count):
        src = np.random.default_rng(
            np.random.SeedSequence(entropy=777, spawn_key=(replication,))
        )
        block = src.normal(size=(start + count, 20))
        return block[start:]

    spec = calibrate.CalibrationSpec(target_arl0=200.0, replications=300)
    result = calibrate.find_threshold(refs, config, gauss_source, spec)

    def fresh_source(replication, start, count):
        src = np.random.default_rng(
            np.random.SeedSequence(entropy=778, spawn_key=(replication,))
        )
        block = src.normal(size=(start + count, 20))
        return block[start:]

    est = calibrate.estimate_arl(
        result.threshold,
        refs,
        config,
        fresh_source,
        calibrate.CalibrationSpec(target_arl0=200.0, replications=400),
    )
    assert est.censored_fraction < 0.05
    assert abs(est.mean_run_length / 200.0 - 1.0) <= 0.10
