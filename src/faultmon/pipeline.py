"""End-to-end orchestration: offline training, online monitoring, evaluation.

Offline training fits standardization on in-control data, calibrates the
alarm threshold for the operator's target ARL0, replays the labeled fault
runs through the detector to learn the classification timing, extracts a
covariance per run from a trailing window at the classification point,
maps the covariances into the tangent space at their geometric mean, and
trains a one-vs-one SVM on the flattened features. Online monitoring
replays that recipe one sample at a time with episode resets.

Training, evaluation and online monitoring share one featurizer:
``_window_rows`` checks that a classification window fits and cuts it
out, and ``_feature_vector`` maps its covariance and V trace to the
classifier's input. ``prepare_reference_and_source``
splits the in-control pool into references and calibration samples, and
``choose_threshold`` turns the training knobs into a detector config with
its threshold; the CLI calls both too.

Detection (``_detect_runs``) finds each run's V trace and first
post-onset alarm. Training reads a trace only up to the run's
classification point, so it simulates each run only that far, by the
lazy doubling that threshold calibration uses
(:class:`calibrate._LazyTraces`, the one owner of "V traces, each
simulated only as far as a question needs"). Evaluation simulates every
run whole: its detection rates read every post-onset sample.

Evaluation (``_score``) groups the faulty runs by fault id once and writes
each per-fault rate of :class:`EvalReport` as its definition over that
group; the false-alarm rate is taken once over every run's in-control
segment, and one loop classifies the faulty runs that alarmed.

Timing conventions (all indices 0-based):
    onset     first faulty sample of a run
    t_a       first alarm at or after the onset
    patience  extra samples observed after the alarm before classifying
    t_c       classification point, ``t_a + patience``
    window    trailing window ``[t_c - window + 1, t_c]`` for covariance

The window length is learned in training as ``mean(t_a - onset) +
patience`` rounded, floored at 2, so windows straddle the onset on a
typical run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from . import calibrate, detector, spd, standardize, svm
from .bundle import ModelBundle, _check_model_options
from .errors import (
    BracketError,
    CalibrationFailedError,
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    LabelMismatchError,
    NoAlarmInTrainingError,
    NoConvergenceError,
)
from .features import trace_features
from .simulate import Run

__all__ = [
    "TrainConfig",
    "MonitorEvent",
    "EvalReport",
    "SweepPoint",
    "prepare_reference_and_source",
    "choose_threshold",
    "offline_train",
    "online_monitor",
    "evaluate",
    "sweep_patience",
]

@dataclass(frozen=True)
class TrainConfig:
    """Operator-facing knobs for offline training.

    Attributes:
        allowance: CUSUM allowance k.
        top_r: Streams pooled into the global statistic.
        target_arl0: Desired in-control average run length.
        patience: Samples to wait after an alarm before classifying.
        feature_mode: ``tangent`` or ``raw`` covariance features.
        trace_features: Append V(t) summary features.
        folds: Cross-validation folds for the hyper-parameter search.
        c_grid, gamma_grid: Optional explicit hyper-parameter grids.
        calibration_replications: Monte-Carlo budget for the threshold.
        calibration_tolerance: Relative ARL tolerance for the search.
        calibration_cap: Samples per calibration run before censoring.
        threshold_override: Skip calibration and install this threshold.
        seed: Seed for fold assignment and the bootstrap source.
    """

    allowance: float = 1.3
    top_r: int = 4
    target_arl0: float = 200.0
    patience: int = 300
    feature_mode: str = "tangent"
    trace_features: bool = False
    folds: int = 5
    c_grid: tuple[float, ...] | None = None
    gamma_grid: tuple[float, ...] | None = None
    calibration_replications: int = 400
    calibration_tolerance: float = 0.02
    calibration_cap: int | None = None
    threshold_override: float | None = None
    seed: int = 0

    def __post_init__(self):
        _check_model_options(self.feature_mode, self.patience)
        if self.folds < 2:
            raise DomainError(f"need at least 2 folds, got {self.folds}")


@dataclass(frozen=True)
class MonitorEvent:
    """One event from the online monitoring stream.

    ``kind`` is ``sample`` (every consumed sample), ``alarm_raised``
    (first crossing of an episode), ``classification`` (patience elapsed;
    carries ``predicted_fault`` or an ``error`` reason), or
    ``episode_incomplete`` (input ended after an alarm but before its
    classification). ``time_index`` counts samples globally from 0.
    """

    kind: str
    time_index: int
    global_stat: float
    predicted_fault: int | None = None
    error: str | None = None


@dataclass
class _DetectedRun:
    """A run, its V trace and its first post-onset alarm.

    Evaluation's ``v_trace`` is the whole trace. Training's is a prefix
    that reaches the classification point ``alarm_time + patience``, or
    the run's end.
    """

    run: Run
    v_trace: np.ndarray
    alarm_time: int | None

    @property
    def delay(self) -> int | None:
        if self.alarm_time is None or self.run.onset is None:
            return None
        return self.alarm_time - self.run.onset


# Training first simulates each run to onset + patience + this many samples
# (at most its end). On benchmark seeds 0-2 at patience 300 that reaches
# the classification point of all but 6-15 of 240 runs.
_PREFIX_MARGIN = 200


def _detect_runs(runs, references, config, stats, patience=None) -> list[_DetectedRun]:
    """V trace and first post-onset alarm per run.

    Without ``patience`` every trace is whole, as evaluation's FDR reads
    every post-onset sample. With it, each run is simulated only as far as
    training's classification window reads it, by the lazy doubling of
    :class:`calibrate._LazyTraces`: first to ``onset + patience +
    _PREFIX_MARGIN`` samples, then, from t = 0 at twice the length and at
    most the run's end, only the runs whose prefix reaches neither the
    classification point (first post-onset alarm + patience) nor the end.
    A prefix is bit-identical to the start of the whole trace, so the
    alarms and windows are those of whole traces. Each run is standardized
    whole, and so checked, every time it is drawn.
    """
    if not runs:
        return []
    lengths = np.array([run.data.shape[0] for run in runs])
    onsets = np.array([0 if run.onset is None else run.onset for run in runs])

    def draw(indices, length):
        return detector.run_many(
            references,
            config,
            (standardize.apply(runs[i].data, stats)[:length] for i in indices),
        )

    prefix = lengths if patience is None else onsets + patience + _PREFIX_MARGIN
    lazy = calibrate._LazyTraces(draw, prefix, lengths)
    while True:
        after_onset = np.arange(lazy.traces.shape[1]) >= onsets[:, np.newaxis]
        hits = (lazy.traces >= config.threshold) & after_onset
        alarms = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)
        # Settled: the prefix reaches the classification point, or the end.
        need = lengths
        if patience is not None:
            need = np.where(
                alarms >= 0, np.minimum(alarms + patience + 1, lengths), lengths
            )
        short = np.flatnonzero(lazy.simulated < need)
        if not short.size:
            break
        lazy.extend(short)
    return [
        _DetectedRun(
            run=run,
            v_trace=lazy.traces[i, : lazy.simulated[i]],
            alarm_time=int(alarms[i]) if alarms[i] >= 0 else None,
        )
        for i, run in enumerate(runs)
    ]


def _window_length(delays, patience: int) -> int:
    return max(2, int(round(float(np.mean(delays)) + patience)))


def _window_rows(rows, t_c: int, window: int, trace_length: int, use_trace: bool):
    """The ``window`` rows of ``rows`` ending at row t_c.

    Returns ``(window_rows, None)``, or ``(None, reason)`` when the window
    does not fit in ``rows`` or the V trace (``trace_length`` samples) is
    too short to summarize.
    """
    if t_c >= rows.shape[0]:
        return None, "run_ends_before_classification"
    start = t_c - window + 1
    if start < 0:
        return None, "window_too_short"
    if use_trace and trace_length < 3:
        return None, "trace_too_short"
    return rows[start : t_c + 1], None


def _classification_window(item: _DetectedRun, stats, patience, window, use_trace):
    """``(covariance, v_prefix, None)`` of a detected run's standardized window
    and V trace at ``alarm_time + patience``, or ``(None, None, reason)``."""
    if item.alarm_time is None:
        return None, None, "no_alarm"
    t_c = item.alarm_time + patience
    rows, reason = _window_rows(item.run.data, t_c, window, t_c + 1, use_trace)
    if reason is not None:
        return None, None, reason
    cov = spd.covariance(standardize.apply(rows, stats))
    return cov, item.v_trace[: t_c + 1], None


def _tangent_base(karcher_base, feature_mode: str):
    """The Karcher base for ``_feature_vector``: decomposed once for tangent
    features, ``None`` for raw ones."""
    return spd._Base(karcher_base) if feature_mode == "tangent" else None


def _feature_vector(cov, v_trace, tangent_base, use_trace: bool):
    """Classifier input for one window covariance and its V trace."""
    if tangent_base is not None:
        vec = spd.tangent_vectorize(spd.spd_log(tangent_base, cov))
    else:
        vec = spd.tangent_vectorize(cov)
    if use_trace:
        vec = np.concatenate([vec, trace_features(v_trace).as_vector()])
    return vec


def _check_class_coverage(detected: list[_DetectedRun], kept: list[bool]):
    """Usable training runs per fault class, in ascending fault id.

    Raises ``NoAlarmInTrainingError`` for the first class that kept fewer
    than 2 runs, naming the runs that class lost.
    """
    counts = {}
    for fid in sorted({d.run.fault_id for d in detected}):
        own = [
            (d.run.run_id, k) for d, k in zip(detected, kept) if d.run.fault_id == fid
        ]
        counts[fid] = sum(k for _, k in own)
        if counts[fid] < 2:
            raise NoAlarmInTrainingError(fid, [rid for rid, k in own if not k])
    return counts


def prepare_reference_and_source(
    in_control, calibration_source: calibrate.SampleSource | None = None, seed: int = 0
):
    """Standardization, detector references and a calibration sample source.

    Statistics are fitted on the whole raw-scale in-control pool. With a
    raw-scale ``calibration_source`` the whole pool becomes the references
    and the source is wrapped to emit standardized samples. Without one,
    the first ``max(2, round(n / 2))`` pool rows become the references
    and the rest are resampled with replacement (seeded by ``seed``).

    Returns:
        ``(stats, references, source)``: the fitted
        :class:`~faultmon.standardize.ReferenceStats`, one standardized
        reference array per stream, and a standardized sample source.

    Raises:
        EmptyInputError: Without a source, the pool leaves no row to resample.
    """
    pool = np.asarray(in_control, dtype=float)
    split = pool.shape[0]
    if calibration_source is None:
        split = max(2, int(round(0.5 * pool.shape[0])))
        if pool.shape[0] - split < 1:
            raise EmptyInputError(
                "in-control pool too small to hold out a calibration part; "
                "supply a calibration source instead"
            )
    stats = standardize.fit_reference(pool)
    z_pool = standardize.apply(pool, stats)
    references = [z_pool[:split, i] for i in range(z_pool.shape[1])]
    if calibration_source is None:
        source = calibrate.bootstrap_source(z_pool[split:], seed)
    else:
        source = calibrate.standardized_source(calibration_source, stats)
    return stats, references, source


def choose_threshold(references, config: TrainConfig, source: calibrate.SampleSource):
    """Detector config from the training knobs, with its alarm threshold.

    Installs ``config.threshold_override``, or else the threshold that
    :func:`calibrate.find_threshold` finds on ``source``. Returns the config
    and a dict recording the choice (``CalibrationResult.to_dict()`` when
    calibrated). Raises ``CalibrationFailedError`` if the search fails.
    """
    base_config = detector.MonitorConfig(
        allowance=config.allowance, top_r=config.top_r, stream_count=len(references)
    )
    if config.threshold_override is not None:
        threshold = float(config.threshold_override)
        return base_config.with_threshold(threshold), {
            "threshold": threshold, "source": "override"
        }
    spec = calibrate.CalibrationSpec(
        target_arl0=config.target_arl0,
        replications=config.calibration_replications,
        max_run_length=config.calibration_cap,
        tolerance=config.calibration_tolerance,
    )
    try:
        result = calibrate.find_threshold(references, base_config, source, spec)
    except (BracketError, NoConvergenceError) as exc:
        raise CalibrationFailedError(f"threshold calibration failed: {exc}") from exc
    return base_config.with_threshold(result.threshold), result.to_dict()


@dataclass(frozen=True)
class _Setup:
    """What training fixes before it sees a fault run."""

    stats: standardize.ReferenceStats
    references: list[np.ndarray]
    config: detector.MonitorConfig  # with the threshold installed
    calibration: dict


def _setup(in_control, train_runs, config: TrainConfig, calibration_source) -> _Setup:
    """Validate the runs, standardize, and fix the alarm threshold."""
    if not train_runs:
        raise EmptyInputError("no training runs")
    for run in train_runs:
        if run.fault_id == 0:
            raise LabelMismatchError(
                f"training run {run.run_id!r} carries no fault label"
            )
    stats, references, cal_source = prepare_reference_and_source(
        in_control, calibration_source, config.seed
    )
    return _Setup(stats, references, *choose_threshold(references, config, cal_source))


def _fit(
    setup: _Setup, detected: list[_DetectedRun], config: TrainConfig
) -> ModelBundle:
    """Window length, Karcher base and classifier from detected runs."""
    delays = [d.delay for d in detected if d.delay is not None]
    if not delays:  # no run alarmed: every class lost all of its runs
        _check_class_coverage(detected, [False] * len(detected))
    window = _window_length(delays, config.patience)

    covs, traces, labels, kept = [], [], [], []
    dropped: dict[str, list[str]] = {}
    for item in detected:
        cov, trace, reason = _classification_window(
            item, setup.stats, config.patience, window, config.trace_features
        )
        kept.append(reason is None)
        if reason is not None:
            dropped.setdefault(reason, []).append(item.run.run_id)
            continue
        covs.append(cov)
        traces.append(trace)
        labels.append(item.run.fault_id)
    labels = np.asarray(labels, dtype=int)
    class_counts = _check_class_coverage(detected, kept)

    if config.feature_mode == "tangent":
        karcher_base = spd.karcher_mean(covs)
    else:
        karcher_base = np.eye(setup.stats.stream_count)
    tangent_base = _tangent_base(karcher_base, config.feature_mode)
    feature_matrix = np.vstack([
        _feature_vector(cov, trace, tangent_base, config.trace_features)
        for cov, trace in zip(covs, traces)
    ])

    folds = min(config.folds, min(class_counts.values()))
    search = svm.grid_search(
        feature_matrix,
        labels,
        config.c_grid,
        config.gamma_grid,
        folds=folds,
        seed=config.seed,
    )
    classifier = svm.train_multiclass(
        feature_matrix, labels, search.c_penalty, search.gamma
    )

    summary = {
        "calibration": setup.calibration,
        "window": window,
        "mean_detection_delay": float(np.mean(delays)),
        "dropped_runs": dropped,
        "usable_runs_per_class": class_counts,
        "cv_accuracy": search.cv_accuracy,
        "c_penalty": search.c_penalty,
        "gamma": search.gamma,
    }
    return ModelBundle(
        stats=setup.stats,
        references=[detector.build_reference(r) for r in setup.references],
        config=setup.config,
        target_arl0=config.target_arl0,
        patience=config.patience,
        window=window,
        karcher_base=karcher_base,
        classifier=classifier,
        feature_mode=config.feature_mode,
        trace_features=config.trace_features,
        training_summary=summary,
    )


def offline_train(
    in_control,
    train_runs: list[Run],
    config: TrainConfig = TrainConfig(),
    *,
    calibration_source: calibrate.SampleSource | None = None,
) -> ModelBundle:
    """Train a complete monitoring model.

    Args:
        in_control: Raw-scale in-control matrix ``(n, p)``.
        train_runs: Labeled faulty runs (every run must carry a non-zero
            fault id).
        config: Training knobs.
        calibration_source: Optional raw-scale sample source for threshold
            calibration. Without one, part of the in-control pool is held
            out and resampled (bootstrap), which is safe but slightly
            optimistic about tail behavior.

    Raises:
        CalibrationFailedError: Threshold search failed.
        NoAlarmInTrainingError: Some fault class kept fewer than 2 runs.
        LabelMismatchError: A training run has no fault label.
    """
    setup = _setup(in_control, train_runs, config, calibration_source)
    detected = _detect_runs(
        train_runs, setup.references, setup.config, setup.stats, config.patience
    )
    return _fit(setup, detected, config)


def online_monitor(bundle: ModelBundle, samples: Iterable) -> Iterator[MonitorEvent]:
    """Monitor a live sample stream, yielding events as they happen.

    Every sample yields a ``sample`` event. The first threshold crossing
    of an episode yields ``alarm_raised``; ``patience`` samples later a
    ``classification`` event carries the predicted fault id, after which
    the detector resets and a new episode begins. The standardized sample
    buffer survives resets so classification windows may span episodes,
    but the V(t) trace (used by trace features) restarts with each
    episode. If the stream ends between an alarm and its classification,
    a final ``episode_incomplete`` event is emitted.

    Args:
        bundle: Trained model bundle.
        samples: Iterable of raw-scale samples of shape ``(p,)`` (a
            ``(T, p)`` array works; it iterates by rows).

    Yields:
        :class:`MonitorEvent` in time order.
    """
    monitor = detector.Monitor(bundle.references, bundle.config)
    monitor._checks_samples = False  # _standardized_row checks each sample
    tangent_base = _tangent_base(bundle.karcher_base, bundle.feature_mode)
    window_buffer: deque = deque(maxlen=bundle.window)
    v_episode: list[float] = []
    alarm_at: int | None = None
    for time_index, sample in enumerate(samples):
        z = _standardized_row(sample, bundle.stats)
        out = monitor.step(z)
        v = out.global_stat
        window_buffer.append(z)
        v_episode.append(v)
        yield MonitorEvent("sample", time_index, v)
        if alarm_at is None and out.alarm:
            alarm_at = time_index
            yield MonitorEvent("alarm_raised", time_index, v)
        if alarm_at is not None and time_index == alarm_at + bundle.patience:
            predicted, error = _classify_buffer(
                bundle, tangent_base, window_buffer, v_episode
            )
            yield MonitorEvent(
                "classification",
                time_index,
                v,
                predicted_fault=predicted,
                error=error,
            )
            monitor.reset()
            alarm_at = None
            v_episode = []
    # An alarm is pending only after a sample, so time_index and v are set.
    if alarm_at is not None:
        yield MonitorEvent("episode_incomplete", time_index, v)


def _standardized_row(sample, stats: standardize.ReferenceStats) -> np.ndarray:
    """One raw sample, standardized and checked once: p finite values, 1-D.

    ``standardize.apply`` checks the stream count and that its result is
    finite; a sample of more than one axis is refused here. A finite one
    is refused before it is standardized, so it fails for its shape even
    where standardizing it would overflow, while one holding a NaN or an
    infinity fails in ``apply`` for that.
    """
    arr = np.asarray(sample, dtype=float)
    if arr.ndim > 1 and np.isfinite(arr).all():
        raise DimensionMismatchError(
            f"expected one sample of {stats.stream_count} streams, got shape {arr.shape}"
        )
    return standardize.apply(arr, stats)


def _classify_buffer(bundle: ModelBundle, tangent_base, window_buffer, v_episode):
    z = np.asarray(window_buffer)
    rows, reason = _window_rows(
        z, z.shape[0] - 1, bundle.window, len(v_episode), bundle.trace_features
    )
    if reason is not None:
        return None, reason
    vec = _feature_vector(
        spd.covariance(rows), v_episode, tangent_base, bundle.trace_features
    )
    return int(bundle.classifier.predict(vec)), None


@dataclass
class EvalReport:
    """Detection and classification quality over a labeled corpus.

    The per-fault dicts are keyed by the fault ids of the corpus's faulty
    runs, in ascending order. V is the non-resetting detector's trace, H
    the bundle's threshold, and a run's alarm its first sample at or after
    the onset with V >= H.

    Attributes:
        class_labels: The classifier's fault ids, the rows and columns of
            ``confusion_matrix`` in this order.
        detection_rate: Runs with an alarm / runs of that fault.
        fdr_per_fault: Post-onset samples with V >= H / post-onset
            samples, pooled over that fault's runs.
        fds_per_fault: Sum of onset-to-alarm delays / runs with an alarm;
            a fault none of whose runs alarmed has no entry.
        undetected: Runs of that fault without an alarm.
        total_runs: Runs of that fault.
        far: In-control samples with V >= H / ``in_control_samples``
            (0.0 without any). It is not alarms per sample: one
            excursion above H counts every sample it lasts, so it is not
            comparable with 1/ARL0; :func:`calibrate.estimate_false_alarm_rate`
            gives that rate.
        in_control_samples: Samples of the in-control runs plus the
            pre-onset samples of the faulty runs.
        confusion_matrix: Classified runs by true fault (row) and
            predicted fault (column).
        overall_accuracy: Runs classified as their own fault /
            ``classified`` (0.0 without any).
        classified: Runs with an alarm whose window, ``patience`` samples
            after it, fits in the run.
        unclassified: Runs with an alarm whose window does not fit, by
            reason.
    """

    class_labels: list[int]
    detection_rate: dict[int, float]
    fdr_per_fault: dict[int, float]
    fds_per_fault: dict[int, float]
    undetected: dict[int, int]
    total_runs: dict[int, int]
    far: float
    in_control_samples: int
    confusion_matrix: np.ndarray
    overall_accuracy: float
    classified: int
    unclassified: dict[str, int]

    def to_dict(self) -> dict:
        payload = {
            name: {str(k): v for k, v in value.items()} if isinstance(value, dict)
            else value
            for name, value in asdict(self).items()
        }
        return {**payload, "confusion_matrix": self.confusion_matrix.tolist()}


def evaluate(bundle: ModelBundle, runs: list[Run]) -> EvalReport:
    """Replay labeled runs through a trained bundle and score it.

    Faulty runs are scored for detection (any alarm at or after onset),
    detection delay, and classification at ``t_a + patience`` using the
    bundle's learned window. In-control runs and pre-onset segments feed
    the false-alarm rate.
    """
    return _score(
        bundle, _detect_runs(runs, bundle.references, bundle.config, bundle.stats)
    )


def _at_or_above(traces, threshold) -> tuple[int, int]:
    """Samples of ``traces`` at or above ``threshold``, and all samples."""
    hits = sum(int(np.sum(v >= threshold)) for v in traces)
    return hits, sum(v.size for v in traces)


def _score(bundle: ModelBundle, detected: list[_DetectedRun]) -> EvalReport:
    """Detection and classification metrics of ``bundle`` on detected runs."""
    if not detected:
        raise EmptyInputError("no runs to evaluate")
    h = bundle.config.threshold
    by_fault: dict[int, list[_DetectedRun]] = {}
    for item in sorted(detected, key=lambda d: d.run.fault_id):
        if item.run.onset is not None:
            by_fault.setdefault(item.run.fault_id, []).append(item)
    delays = {
        fid: [d.delay for d in items if d.delay is not None]
        for fid, items in by_fault.items()
    }
    post_onset = {
        fid: _at_or_above([d.v_trace[d.run.onset :] for d in items], h)
        for fid, items in by_fault.items()
    }
    false_alarms, in_control_samples = _at_or_above(
        [d.v_trace[: d.run.onset] for d in detected], h
    )

    class_labels = [int(c) for c in bundle.classifier.class_labels]
    label_index = {c: i for i, c in enumerate(class_labels)}
    tangent_base = _tangent_base(bundle.karcher_base, bundle.feature_mode)
    confusion = np.zeros((len(class_labels), len(class_labels)), dtype=int)
    unclassified: dict[str, int] = {}
    classified = correct = 0
    for item in detected:
        if item.delay is None:  # an in-control run, or no alarm
            continue
        cov, trace, reason = _classification_window(
            item, bundle.stats, bundle.patience, bundle.window, bundle.trace_features
        )
        if reason is not None:
            unclassified[reason] = unclassified.get(reason, 0) + 1
            continue
        vec = _feature_vector(cov, trace, tangent_base, bundle.trace_features)
        predicted = int(bundle.classifier.predict(vec))
        actual = item.run.fault_id
        classified += 1
        correct += predicted == actual
        if actual in label_index:
            confusion[label_index[actual], label_index[predicted]] += 1

    return EvalReport(
        class_labels=class_labels,
        detection_rate={
            fid: len(delays[fid]) / len(items) for fid, items in by_fault.items()
        },
        fdr_per_fault={fid: hits / n for fid, (hits, n) in post_onset.items()},
        fds_per_fault={fid: float(np.mean(ds)) for fid, ds in delays.items() if ds},
        undetected={
            fid: len(items) - len(delays[fid]) for fid, items in by_fault.items()
        },
        total_runs={fid: len(items) for fid, items in by_fault.items()},
        far=false_alarms / in_control_samples if in_control_samples else 0.0,
        in_control_samples=in_control_samples,
        confusion_matrix=confusion,
        overall_accuracy=correct / classified if classified else 0.0,
        classified=classified,
        unclassified=unclassified,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One patience setting's outcome.

    A patience that leaves some fault class with fewer than 2 usable
    training runs builds no classifier. Its point is unusable:
    ``short_class`` names the first such class, ``window`` and
    ``test_accuracy`` are ``None``, and no test run is classified or
    truncated.
    """

    patience: int
    window: int | None
    test_accuracy: float | None
    classified: int
    truncated: int
    short_class: int | None = None


def sweep_patience(
    in_control,
    train_runs: list[Run],
    test_runs: list[Run],
    patience_grid,
    config: TrainConfig = TrainConfig(),
    *,
    calibration_source: calibrate.SampleSource | None = None,
) -> list[SweepPoint]:
    """Accuracy as a function of the patience parameter.

    Detection and threshold calibration run once; for each patience value
    the window, features, classifier, and test accuracy are rebuilt. The
    training runs are simulated through their classification points at
    the largest patience, the test runs whole. Use
    this to pick the smallest patience whose accuracy is acceptable: more
    patience usually helps until windows saturate or runs end before the
    classification point. A patience at which some class keeps fewer than
    2 usable training runs gives an unusable point (see :class:`SweepPoint`)
    instead of ending the sweep.
    """
    grid = sorted(int(tp) for tp in patience_grid)
    if not grid:
        raise EmptyInputError("patience_grid is empty")
    if grid[0] < 0:
        raise DomainError("patience values must be >= 0")
    setup = _setup(in_control, train_runs, config, calibration_source)
    references, run_config, stats = setup.references, setup.config, setup.stats
    detected_train = _detect_runs(train_runs, references, run_config, stats, grid[-1])
    detected_test = _detect_runs(test_runs, references, run_config, stats)
    points = []
    for patience in grid:
        try:
            bundle = _fit(setup, detected_train, replace(config, patience=patience))
        except NoAlarmInTrainingError as exc:
            points.append(SweepPoint(patience, None, None, 0, 0, exc.fault_id))
            continue
        report = _score(bundle, detected_test)
        points.append(
            SweepPoint(
                patience=patience,
                window=bundle.window,
                test_accuracy=report.overall_accuracy,
                classified=report.classified,
                truncated=sum(report.unclassified.values()),
            )
        )
    return points
