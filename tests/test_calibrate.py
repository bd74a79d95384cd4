"""Calibration tests.

The deterministic source drives V up by a fixed increment per step, so
run lengths, ARL values, and alarm times are exactly computable and the
bisection can be checked against closed forms. The lazy search and
estimate are checked bitwise against ``oracles.eager_find_threshold`` and
``oracles.eager_estimate_arl``, which simulate every run to the cap.
"""

import dataclasses
import logging

import numpy as np
import pytest

from faultmon import calibrate, detector, simulate, standardize
from faultmon.errors import (
    BracketError,
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
)
from tests.oracles import eager_estimate_arl, eager_find_threshold

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
    # A (p,) draw would repeat one sample for the whole run; draws one row
    # short or long would count the alarms over another number of samples
    # than the rate divides by.
    refs, config = _three_stream_refs_config()
    for size in (3, (99, 3), (101, 3)):  # each draw asks for 100 rows

        def source(replication, start, count, size=size):
            return np.random.default_rng(replication).normal(size=size)

        with pytest.raises(DimensionMismatchError):
            calibrate.estimate_false_alarm_rate(8.0, refs, config, source, 2, 100)


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


# Reference [0, 1] and online value 0.5 give mu = 1/2 exactly: both log
# increments are log(2) - 1.3 < 0, so V stays 0 and the run never alarms.
def _stuck_every(period):
    """Constant source whose replications r % period == 0 never alarm."""

    def source(replication, start, count):
        return np.full((count, 1), 0.5 if replication % period == 0 else 10.0)

    return source


def _gauss_case():
    rng = np.random.default_rng(21)
    refs = [detector.build_reference(rng.normal(size=200)) for _ in range(3)]

    def source(replication, start, count):
        src = np.random.default_rng(
            np.random.SeedSequence(entropy=31, spawn_key=(replication,))
        )
        return src.normal(size=(start + count, 3))[start:]

    return refs, detector.MonitorConfig(1.3, 2, 3), source


def _bootstrap_case():
    rng = np.random.default_rng(22)
    pool = rng.normal(size=(500, 3))
    refs = [detector.build_reference(pool[:200, i]) for i in range(3)]
    source = calibrate.bootstrap_source(pool[200:], seed=6)
    return refs, detector.MonitorConfig(1.3, 2, 3), source


def _constant_case(source=_constant_source):
    refs, config = _linear_refs_config()
    return refs, config, source


# (case, spec); the lazy search first simulates every run to
# _PREFIX_ARLS * target_arl0 samples, so the two cap cases sit at and just
# above that prefix.
_ORACLE_CASES = {
    "constant": (_constant_case, dict(target_arl0=200.0, replications=2)),
    "gauss-conservative-end": (
        _gauss_case, dict(target_arl0=50.0, replications=60, tolerance=1e-9)
    ),
    "gauss": (_gauss_case, dict(target_arl0=50.0, replications=60)),
    "gauss-cap-at-prefix": (
        _gauss_case,
        dict(target_arl0=50.0, replications=60,
             max_run_length=calibrate._PREFIX_ARLS * 50),
    ),
    "gauss-cap-above-prefix": (
        _gauss_case,
        dict(target_arl0=50.0, replications=60,
             max_run_length=calibrate._PREFIX_ARLS * 50 + 10),
    ),
    "gauss-one-replication": (_gauss_case, dict(target_arl0=50.0, replications=1)),
    "bootstrap": (_bootstrap_case, dict(target_arl0=50.0, replications=60)),
    "heavy-censoring": (
        lambda: _constant_case(_stuck_every(5)),
        dict(target_arl0=100.0, replications=20, max_run_length=450),
    ),
}


def _assert_bitwise_equal(got, expected):
    assert type(got) is type(expected)
    for field in dataclasses.fields(expected):
        value, wanted = getattr(got, field.name), getattr(expected, field.name)
        assert type(value) is type(wanted), field.name
        if isinstance(wanted, np.ndarray):
            assert value.dtype == wanted.dtype, field.name
            np.testing.assert_array_equal(value.view(np.int64), wanted.view(np.int64))
        else:
            # A float's repr round-trips, so equal reprs are equal bits.
            assert repr(value) == repr(wanted), field.name


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_lazy_search_equals_eager_oracle(name, monkeypatch):
    make_case, fields = _ORACLE_CASES[name]
    refs, config, source = make_case()
    spec = calibrate.CalibrationSpec(**fields)
    expected = eager_find_threshold(refs, config, source, spec)
    probes = (0.5 * expected.threshold, expected.threshold, 2.0 * expected.threshold)
    estimates = [eager_estimate_arl(h, refs, config, source, spec) for h in probes]
    # The prefix sets only how far runs are drawn, never the result.
    for prefix_arls in (1, 2, 4):
        monkeypatch.setattr(calibrate, "_PREFIX_ARLS", prefix_arls)
        result = calibrate.find_threshold(refs, config, source, spec)
        _assert_bitwise_equal(result, expected)
        for h, estimate in zip(probes, estimates):
            _assert_bitwise_equal(
                calibrate.estimate_arl(h, refs, config, source, spec), estimate
            )


def test_lazy_estimate_equals_eager_oracle_under_heavy_censoring():
    refs, config, source = _gauss_case()
    spec = calibrate.CalibrationSpec(target_arl0=20.0, replications=30, max_run_length=400)
    for h in (5.0, 20.0, 1e3):
        est = calibrate.estimate_arl(h, refs, config, source, spec)
        _assert_bitwise_equal(est, eager_estimate_arl(h, refs, config, source, spec))
    assert est.censored_fraction == 1.0


def _assert_same_bracket_error(refs, config, source, spec):
    with pytest.raises(BracketError) as lazy:
        calibrate.find_threshold(refs, config, source, spec)
    with pytest.raises(BracketError) as eager:
        eager_find_threshold(refs, config, source, spec)
    assert type(lazy.value) is type(eager.value)
    assert str(lazy.value) == str(eager.value)
    return str(lazy.value)


def test_bracket_errors_equal_eager_oracle(monkeypatch):
    refs, config = _linear_refs_config()
    spec = calibrate.CalibrationSpec(target_arl0=1000.0, replications=2, max_run_length=50)
    _assert_same_bracket_error(refs, config, _constant_source, spec)
    # Two of six runs never alarm: the ARL at the smallest H is
    # (4 * 1 + 2 * 1000) / 6 = 334. The bounds decide it is above the
    # target; the message gives the exact value.
    spec = calibrate.CalibrationSpec(target_arl0=50.0, replications=6)
    message = _assert_same_bracket_error(refs, config, _stuck_every(3), spec)
    assert "ARL is already 334.0 above" in message
    # One of ten runs never alarms and the rest alarm at
    # ceil(32 / delta) = 371 at H = 32: the ARL (9 * 371 + 5000) / 10 is
    # below the target, and with no expansion allowed the search stops.
    monkeypatch.setattr(calibrate, "_MAX_EXPANSIONS", 0)
    spec = calibrate.CalibrationSpec(
        target_arl0=1000.0, replications=10, max_run_length=5000
    )
    message = _assert_same_bracket_error(refs, config, _stuck_every(10), spec)
    assert "ARL stays at 833.9 below" in message


def _source_case(kind):
    """References, config and the standardized process or bootstrap source
    of the process of seed 3."""
    process = simulate.default_process_spec(3)
    pool = simulate.generate_in_control(process, 600)
    stats = standardize.fit_reference(pool)
    z = standardize.apply(pool, stats)
    refs = [z[:300, i] for i in range(z.shape[1])]
    config = detector.MonitorConfig(1.3, 4, z.shape[1])
    if kind == "process":
        source = calibrate.standardized_source(
            simulate.in_control_source(
                process, run_offset=simulate.CALIBRATION_RUN_OFFSET
            ),
            stats,
        )
    else:
        source = calibrate.bootstrap_source(z[300:], seed=4)
    return refs, config, source


@pytest.mark.parametrize("kind", ["process", "bootstrap"])
def test_shorter_draws_give_trace_prefixes(kind):
    # The lazy search keeps the traces of a run's first draw when it
    # extends the run; that is exact only because a shorter draw is a
    # prefix of a longer one.
    refs, config, source = _source_case(kind)
    short = detector.run_many(refs, config, (source(r, 0, 37) for r in range(4)))
    full = detector.run_many(refs, config, (source(r, 0, 250) for r in range(4)))
    np.testing.assert_array_equal(short.view(np.int64), full[:, :37].view(np.int64))


@pytest.mark.parametrize("kind", ["process", "bootstrap"])
def test_sources_are_addressable(kind):
    # The lazy search resumes a run by drawing from where its last draw
    # stopped, so a draw from offset a must be rows a onwards of a draw
    # from 0. Philox yields 4 doubles per block: offsets 1, 3 and 5 discard
    # draws inside a block, 4 starts on one and 401 lies 100 blocks on.
    _, _, source = _source_case(kind)
    for replication in (0, 7):
        for offset in (1, 3, 4, 5, 401):
            whole = source(replication, 0, offset + 37)
            part = source(replication, offset, 37)
            np.testing.assert_array_equal(part.view(np.int64), whole[offset:].view(np.int64))


def test_lazy_search_draws_few_rows_when_runs_cross_early():
    refs, config, gauss = _gauss_case()
    drawn, ends = [], {}

    def counting(replication, start, count):
        # A run is resumed where its last draw stopped.
        assert start == ends.get(replication, 0)
        ends[replication] = start + count
        drawn.append(count)
        return gauss(replication, start, count)

    spec = calibrate.CalibrationSpec(target_arl0=50.0, replications=100)
    calibrate.find_threshold(refs, config, counting, spec)
    # Every run is drawn to the prefix once; few are extended, and no row
    # is drawn twice.
    assert drawn[:100] == [calibrate._PREFIX_ARLS * 50] * 100
    assert sum(drawn) == sum(ends.values())
    assert sum(drawn) < 0.15 * spec.replications * spec.run_length_cap


def test_find_threshold_logs_the_rows_it_draws(caplog):
    refs, config, gauss = _gauss_case()
    drawn = []

    def counting(replication, start, count):
        drawn.append(count)
        return gauss(replication, start, count)

    spec = calibrate.CalibrationSpec(target_arl0=50.0, replications=60)
    with caplog.at_level(logging.DEBUG, logger="faultmon.calibrate"):
        result = calibrate.find_threshold(refs, config, counting, spec)
    (record,) = [r for r in caplog.records if r.name == "faultmon.calibrate"]
    assert record.levelno == logging.DEBUG
    share = sum(drawn) / (spec.replications * spec.run_length_cap)
    assert record.getMessage() == (
        f"find_threshold: H {result.threshold!r} after {result.evaluations} "
        f"evaluations; {len(drawn)} replication draws, {sum(drawn)} rows "
        f"simulated, {share:.3f} of replications x cap"
    )


def test_every_extension_checks_the_draw_length():
    refs, config, gauss = _gauss_case()

    def short_after_prefix(replication, start, count):
        return gauss(replication, start, min(count, 80))

    spec = calibrate.CalibrationSpec(target_arl0=20.0, replications=5, max_run_length=400)
    # The 40-sample prefix and the extensions to 80 and 160, which draw 40
    # and 80 new samples, pass; the extension to 320 draws 80 of 160.
    with pytest.raises(DimensionMismatchError, match="returned 80 samples"):
        calibrate.estimate_arl(1e6, refs, config, short_after_prefix, spec)


def test_standard_error_at_the_chosen_threshold():
    refs, config, source = _gauss_case()
    spec = calibrate.CalibrationSpec(target_arl0=50.0, replications=60)
    result = calibrate.find_threshold(refs, config, source, spec)
    lengths = calibrate.estimate_arl(result.threshold, refs, config, source, spec).run_lengths
    assert result.standard_error == np.std(lengths, ddof=1) / np.sqrt(60)
    single = calibrate.estimate_arl(
        result.threshold, refs, config, source,
        dataclasses.replace(spec, replications=1),
    )
    assert single.standard_error == 0.0
