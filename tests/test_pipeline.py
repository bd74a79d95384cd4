import dataclasses

import numpy as np
import pytest

from faultmon import pipeline, simulate, standardize
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


def test_fdr_and_far_identities(trained_bundle, monkeypatch):
    # Fabricated traces pin the metric arithmetic: alarms on exactly all
    # post-onset samples give FDR 1 and FAR 0.
    onset = 10
    length = 30
    labels = np.zeros(length, dtype=int)
    labels[onset:] = 1
    run = simulate.Run(
        data=np.zeros((length, 20)), labels=labels, run_id="fabricated"
    )
    h = trained_bundle.config.threshold
    v = np.where(np.arange(length) >= onset, h + 1.0, 0.0)
    fake = [pipeline._DetectedRun(run=run, v_trace=v, alarm_time=onset)]
    monkeypatch.setattr(pipeline, "_detect_runs", lambda *args, **kw: fake)
    report = pipeline.evaluate(trained_bundle, [run])
    assert report.fdr_per_fault[1] == 1.0
    assert report.far == 0.0
    assert report.fds_per_fault[1] == 0.0
    assert report.detection_rate[1] == 1.0


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
