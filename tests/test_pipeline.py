import dataclasses

import numpy as np
import pytest

from faultmon import detector, pipeline, simulate, standardize
from faultmon.bundle import save_bundle
from faultmon.errors import (
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    LabelMismatchError,
    NoAlarmInTrainingError,
    NonFiniteValueError,
)
from tests.conftest import PINNED_H


def test_window_length_formula():
    assert pipeline._window_length([10.0, 20.0], 300) == 315
    assert pipeline._window_length([1.0], 0) == 2  # floor at 2


def test_offline_train_produces_coherent_bundle(trained_bundle, small_benchmark):
    bundle = trained_bundle
    assert bundle.config.threshold == PINNED_H
    assert bundle.window == pipeline._window_length(
        [bundle.training_summary["mean_detection_delay"]], bundle.patience
    )
    assert bundle.karcher_base.shape == (20, 20)
    assert sorted(bundle.classifier.class_labels.tolist()) == [1, 2, 3, 4, 5]
    assert bundle.training_summary["calibration"]["source"] == "override"
    assert set(bundle.training_summary["usable_runs_per_class"]) == {1, 2, 3, 4, 5}


def test_offline_train_is_deterministic(small_benchmark, small_config):
    a = pipeline.offline_train(
        small_benchmark.in_control, small_benchmark.train_runs, small_config
    )
    b = pipeline.offline_train(
        small_benchmark.in_control, small_benchmark.train_runs, small_config
    )
    np.testing.assert_array_equal(a.karcher_base, b.karcher_base)
    assert a.training_summary == b.training_summary
    for pa, pb in zip(a.classifier.pairs, b.classifier.pairs):
        np.testing.assert_array_equal(pa[2].dual_coefs, pb[2].dual_coefs)
        assert pa[2].bias == pb[2].bias


def test_offline_train_validates_runs(small_benchmark, small_config):
    with pytest.raises(EmptyInputError):
        pipeline.offline_train(small_benchmark.in_control, [], small_config)
    clean = simulate.Run(
        data=small_benchmark.train_runs[0].data,
        labels=np.zeros(small_benchmark.train_runs[0].data.shape[0], dtype=int),
        run_id="clean",
    )
    with pytest.raises(LabelMismatchError):
        pipeline.offline_train(
            small_benchmark.in_control, [clean], small_config
        )


def test_offline_train_raises_when_nothing_alarms(small_benchmark, small_config):
    config = dataclasses.replace(small_config, threshold_override=1e9)
    with pytest.raises(NoAlarmInTrainingError):
        pipeline.offline_train(
            small_benchmark.in_control, small_benchmark.train_runs, config
        )


def test_online_monitor_event_protocol(trained_bundle, small_benchmark):
    run = small_benchmark.test_runs[0]
    events = list(pipeline.online_monitor(trained_bundle, run.data))
    kinds = [e.kind for e in events]
    assert kinds.count("sample") == run.data.shape[0]
    assert "alarm_raised" in kinds
    # Every alarm is either resolved by a classification exactly patience
    # samples later or reported unresolved when the stream ends.
    alarms = [e for e in events if e.kind == "alarm_raised"]
    classifications = [e for e in events if e.kind == "classification"]
    incomplete = [e for e in events if e.kind == "episode_incomplete"]
    assert len(classifications) + len(incomplete) == len(alarms)
    for alarm, outcome in zip(alarms, classifications):
        assert outcome.time_index == alarm.time_index + trained_bundle.patience
        if outcome.error is None:
            assert outcome.predicted_fault in {1, 2, 3, 4, 5}
        else:
            assert outcome.predicted_fault is None
    assert any(e.error is None for e in classifications)
    # Time indices of sample events are contiguous from zero.
    sample_times = [e.time_index for e in events if e.kind == "sample"]
    assert sample_times == list(range(run.data.shape[0]))


def test_online_monitor_incomplete_episode(trained_bundle, small_benchmark):
    run = small_benchmark.test_runs[0]
    events = list(pipeline.online_monitor(trained_bundle, run.data))
    first_alarm = next(e for e in events if e.kind == "alarm_raised")
    # Truncate mid-patience: stream ends before the classification point.
    cut = first_alarm.time_index + trained_bundle.patience // 2
    truncated = list(pipeline.online_monitor(trained_bundle, run.data[:cut]))
    assert truncated[-1].kind == "episode_incomplete"


def test_online_monitor_matches_offline_evaluate(trained_bundle, small_benchmark):
    # The streaming path resets its detector after each classification, so it
    # only provably agrees with the batched evaluate path on runs where no
    # alarm fires before the fault onset. Compare predictions on those runs.
    compared = 0
    for run in small_benchmark.test_runs:
        events = list(pipeline.online_monitor(trained_bundle, run.data))
        alarms = [e for e in events if e.kind == "alarm_raised"]
        if not alarms or alarms[0].time_index < run.onset:
            continue
        outcomes = [e for e in events if e.kind == "classification"]
        report = pipeline.evaluate(trained_bundle, [run])
        if not outcomes or outcomes[0].error is not None:
            assert report.classified == 0
            continue
        assert report.classified == 1
        idx_true = report.class_labels.index(run.fault_id)
        row = report.confusion_matrix[idx_true]
        predicted = report.class_labels[int(np.argmax(row))]
        assert outcomes[0].predicted_fault == predicted
        compared += 1
    assert compared >= 1


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_online_monitor_v_matches_a_step_loop_bitwise(trained_bundle, small_benchmark):
    # Every sample event's V against Monitor.step over the standardized
    # rows, resetting after each classification as online_monitor does;
    # and, episode by episode, against Monitor.run after a reset.
    config = trained_bundle.config
    episodes = []
    for run in small_benchmark.test_runs + small_benchmark.in_control_runs:
        events = list(pipeline.online_monitor(trained_bundle, run.data))
        resets = [e.time_index for e in events if e.kind == "classification"]
        rows = standardize.apply(run.data, trained_bundle.stats)
        stepper = detector.Monitor(trained_bundle.references, config)
        outputs = []
        for t, row in enumerate(rows):
            outputs.append(stepper.step(row))
            if t in resets:
                stepper.reset()
        expected = _bits([out.global_stat for out in outputs])
        np.testing.assert_array_equal(
            _bits([e.global_stat for e in events if e.kind == "sample"]), expected
        )
        batch = detector.Monitor(trained_bundle.references, config)
        for start, stop in zip([0] + [t + 1 for t in resets], resets + [len(rows) - 1]):
            if start > stop:
                continue
            assert [out.time_index for out in outputs[start : stop + 1]] == list(
                range(stop + 1 - start)
            )
            batch.reset()
            trace = batch.run(rows[start : stop + 1])
            np.testing.assert_array_equal(_bits(trace.global_stats), expected[start : stop + 1])
        episodes.append(len(resets))
    assert max(episodes) >= 2


def test_online_monitor_accepts_list_rows(trained_bundle, small_benchmark):
    data = small_benchmark.test_runs[0].data[:50]
    from_lists = list(pipeline.online_monitor(trained_bundle, data.tolist()))
    from_array = list(pipeline.online_monitor(trained_bundle, data))
    assert [(e.kind, e.time_index) for e in from_lists] == [
        (e.kind, e.time_index) for e in from_array
    ]
    np.testing.assert_array_equal(
        _bits([e.global_stat for e in from_lists]),
        _bits([e.global_stat for e in from_array]),
    )


def _with_value(row, stream, value):
    row = row.copy()
    row[stream] = value
    return row


# Malformed raw samples, built from the in-control means, after which
# online_monitor must stop. Stream 0's scale is set to 1e-300 below, so a
# finite offset of 1e10 there overflows when standardized.
_BAD_ROWS = {
    "nan": (lambda m: _with_value(m, 3, np.nan), NonFiniteValueError),
    "+inf": (lambda m: _with_value(m, 1, np.inf), NonFiniteValueError),
    "-inf": (lambda m: _with_value(m, 0, -np.inf), NonFiniteValueError),
    "overflow": (lambda m: _with_value(m, 0, m[0] + 1e10), NonFiniteValueError),
    "(1, p)": (lambda m: m[np.newaxis], DimensionMismatchError),
    "(1, p) overflow": (
        lambda m: _with_value(m, 0, m[0] + 1e10)[np.newaxis], DimensionMismatchError
    ),
    "(1, p) nan": (lambda m: _with_value(m, 3, np.nan)[np.newaxis], NonFiniteValueError),
    "(p + 1,)": (lambda m: np.append(m, 0.0), DimensionMismatchError),
    "(p - 1,)": (lambda m: m[:-1], DimensionMismatchError),
    "0-d": (lambda m: np.array(m[0]), DimensionMismatchError),
}


# Warnings are errors, so that a numpy RuntimeWarning raised while
# standardizing a row (the overflow case) fails the test.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(_BAD_ROWS))
def test_online_monitor_rejects_bad_sample_after_good_ones(trained_bundle, case):
    stats = trained_bundle.stats
    stddevs = stats.stddevs.copy()
    stddevs[0] = 1e-300
    bundle = dataclasses.replace(
        trained_bundle, stats=standardize.ReferenceStats(stats.means, stddevs)
    )
    build_row, error = _BAD_ROWS[case]
    # The means standardize to zero on every stream, tiny scale or not.
    good = [stats.means.copy() for _ in range(3)]
    events = []
    with pytest.raises(error):
        for event in pipeline.online_monitor(bundle, good + [build_row(stats.means)]):
            events.append(event)
    assert [(e.kind, e.time_index) for e in events] == [("sample", t) for t in range(3)]


def test_evaluate_report_shape(trained_bundle, small_benchmark):
    runs = small_benchmark.test_runs + small_benchmark.in_control_runs
    report = pipeline.evaluate(trained_bundle, runs)
    assert report.class_labels == [1, 2, 3, 4, 5]
    assert set(report.detection_rate) <= {1, 2, 3, 4, 5}
    for rate in report.detection_rate.values():
        assert 0.0 <= rate <= 1.0
    for fdr in report.fdr_per_fault.values():
        assert 0.0 <= fdr <= 1.0
    assert report.far >= 0.0
    assert report.in_control_samples > 0
    assert report.confusion_matrix.shape == (5, 5)
    assert report.confusion_matrix.sum() == report.classified
    if report.classified:
        trace = np.trace(report.confusion_matrix)
        assert report.overall_accuracy == pytest.approx(trace / report.classified)
    payload = report.to_dict()
    assert payload["far"] == report.far
    assert payload["confusion_matrix"] == report.confusion_matrix.tolist()


def test_evaluate_rejects_empty(trained_bundle):
    with pytest.raises(EmptyInputError):
        pipeline.evaluate(trained_bundle, [])


class _ScriptedClassifier:
    """Answers ``predict`` from a script, in call order."""

    def __init__(self, class_labels, answers):
        self.class_labels = np.asarray(class_labels)
        self._answers = iter(answers)

    def predict(self, vec):
        return next(self._answers)


def _fabricated(run_id, fault_id, onset, length, hits, alarm_time, rng):
    """A detected run whose V is H + 1 on the ``hits`` samples and 0 elsewhere."""
    labels = np.zeros(length, dtype=int)
    if onset is not None:
        labels[onset:] = fault_id
    run = simulate.Run(data=rng.normal(size=(length, 20)), labels=labels, run_id=run_id)
    v = np.zeros(length)
    v[list(hits)] = PINNED_H + 1.0
    return pipeline._DetectedRun(run=run, v_trace=v, alarm_time=alarm_time)


def test_fdr_and_far_identities(trained_bundle, monkeypatch):
    # Every report field of a fabricated corpus, against counts by hand.
    # Faulty runs are 20 samples with onset 10; patience 5 and window 4 put
    # the classification at alarm + 5, which fits for alarms up to 14.
    bundle = dataclasses.replace(
        trained_bundle,
        patience=5,
        window=4,
        trace_features=False,
        classifier=_ScriptedClassifier([1, 2, 3], answers=[1, 2, 2]),
    )
    assert bundle.config.threshold == PINNED_H
    rng = np.random.default_rng(3)
    fake = [
        # Alarms at 16, too late to classify: delay 6, 4 post-onset hits.
        _fabricated("f2a", 2, 10, 20, range(16, 20), 16, rng),
        # Delay 2, 8 hits, classified 1.
        _fabricated("f1a", 1, 10, 20, range(12, 20), 12, rng),
        # In control, 30 samples, 3 at or above H; never classified.
        _fabricated("ic", 0, None, 30, range(5, 8), 5, rng),
        # 2 hits before the onset, then delay 4 with 3 hits, classified 2.
        _fabricated("f1b", 1, 10, 20, [3, 4, 14, 15, 16], 14, rng),
        # Delay 1, 3 hits, classified 2.
        _fabricated("f2b", 2, 10, 20, range(11, 14), 11, rng),
        # Never at or above H.
        _fabricated("f1c", 1, 10, 20, [], None, rng),
    ]
    monkeypatch.setattr(pipeline, "_detect_runs", lambda *args, **kw: fake)
    report = pipeline.evaluate(bundle, [item.run for item in fake])
    assert report.to_dict() == {
        "class_labels": [1, 2, 3],
        "detection_rate": {"1": 2 / 3, "2": 2 / 2},
        "fdr_per_fault": {"1": (8 + 3 + 0) / 30, "2": (4 + 3) / 20},
        "fds_per_fault": {"1": (2 + 4) / 2, "2": (6 + 1) / 2},
        "undetected": {"1": 1, "2": 0},
        "total_runs": {"1": 3, "2": 2},
        "far": (2 + 3) / (5 * 10 + 30),
        "in_control_samples": 5 * 10 + 30,
        "confusion_matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 0]],
        "overall_accuracy": 2 / 3,
        "classified": 3,
        "unclassified": {"run_ends_before_classification": 1},
    }
    # Ascending fault ids, although a fault-2 run comes first.
    assert list(report.total_runs) == [1, 2]


def test_fit_names_the_class_short_of_runs_and_only_its_dropped_runs(
    trained_bundle,
):
    # Fault 1 keeps two runs and drops one; fault 2 keeps one run, which
    # is not enough to train on, and drops one.
    rng = np.random.default_rng(4)
    detected = [
        _fabricated("f1-kept-a", 1, 10, 60, range(20, 60), 20, rng),
        _fabricated("f1-dropped", 1, 10, 60, [], None, rng),
        _fabricated("f2-kept", 2, 10, 60, range(20, 60), 20, rng),
        _fabricated("f1-kept-b", 1, 10, 60, range(20, 60), 20, rng),
        _fabricated("f2-dropped", 2, 10, 60, [], None, rng),
    ]
    setup = pipeline._Setup(
        trained_bundle.stats, trained_bundle.references, trained_bundle.config, {}
    )
    with pytest.raises(NoAlarmInTrainingError) as excinfo:
        pipeline._fit(setup, detected, pipeline.TrainConfig(patience=5))
    assert excinfo.value.fault_id == 2
    assert excinfo.value.run_ids == ("f2-dropped",)
    assert "fewer than 2 usable training runs" in str(excinfo.value)


def test_evaluate_reports_trace_too_short(trained_bundle, monkeypatch):
    # An alarm at t=1 with no patience leaves a 2-sample V trace, too short
    # for trace features: the run is counted unclassified, as online
    # monitoring reports it, instead of failing the whole evaluation.
    bundle = dataclasses.replace(
        trained_bundle, trace_features=True, window=2, patience=0
    )
    length = 30
    labels = np.ones(length, dtype=int)
    labels[0] = 0
    run = simulate.Run(
        data=np.zeros((length, 20)), labels=labels, run_id="fabricated"
    )
    v = np.full(length, bundle.config.threshold + 1.0)
    fake = [pipeline._DetectedRun(run=run, v_trace=v, alarm_time=1)]
    monkeypatch.setattr(pipeline, "_detect_runs", lambda *args, **kw: fake)
    report = pipeline.evaluate(bundle, [run])
    assert report.unclassified == {"trace_too_short": 1}
    assert report.classified == 0


def test_evaluate_reports_window_too_short(trained_bundle, monkeypatch):
    # An alarm at t=1 with no patience leaves 2 samples for a longer
    # window: offline scoring names it as online monitoring does.
    bundle = dataclasses.replace(trained_bundle, window=10, patience=0)
    length = 30
    labels = np.ones(length, dtype=int)
    labels[0] = 0
    run = simulate.Run(
        data=np.zeros((length, 20)), labels=labels, run_id="fabricated"
    )
    v = np.full(length, bundle.config.threshold + 1.0)
    fake = [pipeline._DetectedRun(run=run, v_trace=v, alarm_time=1)]
    monkeypatch.setattr(pipeline, "_detect_runs", lambda *args, **kw: fake)
    report = pipeline.evaluate(bundle, [run])
    assert report.unclassified == {"window_too_short": 1}
    assert report.classified == 0


def _runs_with_a_silent_one(bench):
    """The fixture's training runs and a fault-1 run that never alarms.

    Every row of the silent run is the in-control median, which ranks near
    the middle of each reference: both log increments are about
    log(2) - 1.3 < 0, so V stays 0.
    """
    length, onset = bench.train_runs[0].data.shape[0], bench.train_runs[0].onset
    labels = np.zeros(length, dtype=int)
    labels[onset:] = 1
    rows = np.tile(np.median(bench.in_control, axis=0), (length, 1))
    return bench.train_runs + [simulate.Run(data=rows, labels=labels, run_id="silent")]


def _check_training_detection(bench, config, patience):
    """Training's lazy traces against whole ``run_many`` traces, bit for bit.

    Returns the detected runs and each run's first prefix length.
    """
    runs = _runs_with_a_silent_one(bench)
    setup = pipeline._setup(bench.in_control, runs, config, None)
    lazy = pipeline._detect_runs(
        runs, setup.references, setup.config, setup.stats, patience
    )
    whole = detector.run_many(
        setup.references,
        setup.config,
        (standardize.apply(run.data, setup.stats) for run in runs),
    )
    firsts = []
    for item, v in zip(lazy, whole):
        size, onset = item.v_trace.size, item.run.onset
        np.testing.assert_array_equal(item.v_trace.view(np.int64), v[:size].view(np.int64))
        hits = np.flatnonzero(v[onset:] >= PINNED_H)
        assert item.alarm_time == (onset + int(hits[0]) if hits.size else None)
        first = min(v.size, onset + patience + pipeline._PREFIX_MARGIN)
        firsts.append(first)
        if item.alarm_time is None:
            assert size == v.size
        elif item.alarm_time + patience < first:
            assert size == first  # settled by its first prefix
        else:
            assert size >= min(v.size, item.alarm_time + patience + 1)
    assert lazy[-1].run.run_id == "silent" and lazy[-1].alarm_time is None
    return lazy, firsts


@pytest.mark.parametrize("patience", [0, 60, 700])
def test_training_detection_gives_prefixes_of_whole_traces(
    small_benchmark, small_config, patience
):
    # At 700 the first prefix, 150 + 700 + 200, passes every run's end.
    lazy, firsts = _check_training_detection(small_benchmark, small_config, patience)
    rows = sum(item.v_trace.size for item in lazy)
    total = sum(item.run.data.shape[0] for item in lazy)
    assert (rows < total) == (patience < 700)


def test_training_detection_extends_a_run_twice(
    small_benchmark, small_config, monkeypatch
):
    # A first prefix of onset + 1 = 151 samples: fault-4 runs that alarm
    # after sample 302 are simulated again to 302 and then to 604.
    monkeypatch.setattr(pipeline, "_PREFIX_MARGIN", 1)
    lazy, firsts = _check_training_detection(small_benchmark, small_config, 0)
    assert any(
        item.alarm_time is not None and item.v_trace.size == 4 * first
        for item, first in zip(lazy, firsts)
    )


def _training_outcome(train, tmp_path):
    """The saved bundle's bytes, or the ``NoAlarmInTrainingError`` raised."""
    try:
        model = train()
    except NoAlarmInTrainingError as exc:
        return exc.fault_id, exc.run_ids
    path = tmp_path / "bundle.json"
    save_bundle(model, path)
    return path.read_bytes()


@pytest.mark.parametrize(
    "patience, use_trace", [(0, False), (60, False), (60, True), (700, False)]
)
def test_offline_train_equals_fit_over_whole_traces(
    small_benchmark, small_config, patience, use_trace, tmp_path
):
    # At 700 every fault-3 run ends before its classification point, so
    # both raise for fault 3, naming the same runs.
    runs = _runs_with_a_silent_one(small_benchmark)
    config = dataclasses.replace(
        small_config, patience=patience, trace_features=use_trace
    )
    setup = pipeline._setup(small_benchmark.in_control, runs, config, None)
    whole = pipeline._detect_runs(runs, setup.references, setup.config, setup.stats)
    lazy = _training_outcome(
        lambda: pipeline.offline_train(small_benchmark.in_control, runs, config),
        tmp_path,
    )
    assert lazy == _training_outcome(lambda: pipeline._fit(setup, whole, config), tmp_path)
    assert isinstance(lazy, bytes) == (patience < 700)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, 1e308])
def test_offline_train_checks_rows_past_the_classification_point(
    small_benchmark, small_config, value
):
    # Training ranks run 0 only to about onset + patience + 200 = 410
    # samples, but standardizes it whole: a NaN, or a finite value that
    # overflows on the narrowest stream (scale about 0.25), at sample 800
    # still stops it.
    runs = list(small_benchmark.train_runs)
    stream = int(np.argmin(np.std(small_benchmark.in_control, axis=0)))
    data = runs[0].data.copy()
    data[800, stream] = value
    runs[0] = simulate.Run(data=data, labels=runs[0].labels, run_id=runs[0].run_id)
    with pytest.raises(NonFiniteValueError):
        pipeline.offline_train(small_benchmark.in_control, runs, small_config)


def test_sweep_patience_single_point(small_benchmark, small_config):
    points = pipeline.sweep_patience(
        small_benchmark.in_control,
        small_benchmark.train_runs,
        small_benchmark.test_runs,
        [40],
        small_config,
    )
    assert len(points) == 1
    assert points[0].patience == 40
    assert points[0].window >= 2
    assert 0.0 <= points[0].test_accuracy <= 1.0


def test_sweep_patience_matches_separate_train_and_evaluate(
    small_benchmark, small_config
):
    points = pipeline.sweep_patience(
        small_benchmark.in_control,
        small_benchmark.train_runs,
        small_benchmark.test_runs,
        [20, 60],
        small_config,
    )
    expected = []
    for patience in (20, 60):
        bundle = pipeline.offline_train(
            small_benchmark.in_control,
            small_benchmark.train_runs,
            dataclasses.replace(small_config, patience=patience),
        )
        report = pipeline.evaluate(bundle, small_benchmark.test_runs)
        expected.append(
            pipeline.SweepPoint(
                patience=patience,
                window=bundle.window,
                test_accuracy=report.overall_accuracy,
                classified=report.classified,
                truncated=sum(report.unclassified.values()),
            )
        )
    assert points == expected


def test_sweep_patience_reports_a_class_short_of_runs_as_an_unusable_point(
    small_benchmark, small_config
):
    # At patience 700 every fault-3 training run ends before its
    # classification point, so that point names fault 3 and builds no
    # classifier; the other points are those of a sweep without it.
    grid = [0, 20, 60, 200, 700]
    points = pipeline.sweep_patience(
        small_benchmark.in_control,
        small_benchmark.train_runs,
        small_benchmark.test_runs,
        grid,
        small_config,
    )
    assert points[-1] == pipeline.SweepPoint(700, None, None, 0, 0, short_class=3)
    usable = pipeline.sweep_patience(
        small_benchmark.in_control,
        small_benchmark.train_runs,
        small_benchmark.test_runs,
        grid[:-1],
        small_config,
    )
    assert points[:-1] == usable
    assert [point.patience for point in usable] == grid[:-1]
    assert all(point.short_class is None for point in usable)
    assert all(point.test_accuracy is not None for point in usable)


def test_sweep_patience_validates_grid(small_benchmark, small_config):
    with pytest.raises(EmptyInputError):
        pipeline.sweep_patience(
            small_benchmark.in_control,
            small_benchmark.train_runs,
            small_benchmark.test_runs,
            [],
            small_config,
        )
    with pytest.raises(DomainError):
        pipeline.sweep_patience(
            small_benchmark.in_control,
            small_benchmark.train_runs,
            small_benchmark.test_runs,
            [-5],
            small_config,
        )


def test_train_config_validation():
    with pytest.raises(DomainError):
        pipeline.TrainConfig(feature_mode="pca")
    with pytest.raises(DomainError):
        pipeline.TrainConfig(patience=-1)


@pytest.mark.parametrize("folds", [1, 0, -2])
def test_train_config_rejects_fewer_than_two_folds(folds):
    # Rejected when the config is built, not after calibration and
    # detection have run.
    with pytest.raises(DomainError, match="need at least 2 folds"):
        pipeline.TrainConfig(folds=folds)
