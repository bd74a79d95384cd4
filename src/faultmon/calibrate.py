"""Alarm-threshold selection for a target in-control average run length.

The operator picks a target ARL0 (expected samples between false alarms
while in control). The threshold H achieving it has no closed form for
this detector, so it is found by Monte Carlo: simulate in-control runs,
measure the mean first-crossing time as a function of H, and bisect.

A sample source is a callable ``source(replication, start, count)``
returning ``count`` consecutive standardized in-control samples of shape
``(count, p)`` for one replication. Sources must be deterministic and
addressable: the same arguments always return the same values regardless
of call order, which makes every estimate here reproducible. In
particular ``source(r, 0, n)`` is the first n rows of ``source(r, 0, m)``
for n <= m, so a run simulated to n samples is a prefix of the same run
simulated further.

Runs are simulated lazily, and the results are those of simulating every
run to the cap. Each replication is first simulated to
``min(cap, 4 * target_arl0)`` samples. At a threshold H a run's length is
then exact if its trace crossed H, and otherwise lies between one past
its simulated length and the cap. Every question the search asks of the
mean run length is a comparison that is monotone in the mean, or an
interval of it, and the exact mean lies between the means of the lower
and upper bounds, so the question is settled once both bound means give
the same answer. Until they do, the undecided runs are simulated again
from t = 0 to twice their length, at most the cap. An estimate that is
reported (``estimate_arl``, the chosen threshold's ``achieved_arl``, an
error message) is exact: its runs are extended until each one has
crossed or reached the cap.

``_LazyTraces`` owns this doubling: V traces of many runs, each simulated
only as far as a question needs. Training shares it to simulate each
fault run only through its classification point (see
:mod:`faultmon.pipeline`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import detector
from .errors import BracketError, DimensionMismatchError, DomainError, EmptyInputError
from .simulate import _uniforms
from .standardize import ReferenceStats, apply as apply_stats

__all__ = [
    "SampleSource",
    "CalibrationSpec",
    "ArlEstimate",
    "CalibrationResult",
    "estimate_arl",
    "find_threshold",
    "estimate_false_alarm_rate",
    "bootstrap_source",
    "standardized_source",
]

SampleSource = Callable[[int, int, int], np.ndarray]

# Bisection stops when the bracket is narrower than this, even if the
# relative tolerance on ARL was never met (the ARL curve is a step
# function of H at finite replication counts).
_MIN_BRACKET_WIDTH = 0.125
_MAX_EXPANSIONS = 60
# Initial (low, high) threshold bracket; doubled / halved until it
# straddles the target.
_H_BRACKET = (0.5, 32.0)
# Every run is first simulated to this many target ARLs (at most the cap).
# At ARL0 = 200 about e^-4, 2%, of in-control runs outlast it.
_PREFIX_ARLS = 4


@dataclass(frozen=True)
class CalibrationSpec:
    """Monte-Carlo budget and search parameters.

    Attributes:
        target_arl0: Desired in-control average run length, > 1.
        replications: Number of simulated in-control runs.
        max_run_length: Samples per run before censoring; defaults to
            ``20 * target_arl0``.
        tolerance: Relative ARL tolerance for early termination.
    """

    target_arl0: float
    replications: int = 1000
    max_run_length: int | None = None
    tolerance: float = 0.02

    def __post_init__(self):
        if not self.target_arl0 > 1.0:
            raise DomainError(f"target_arl0 must exceed 1, got {self.target_arl0}")
        if self.replications < 1:
            raise EmptyInputError("replications must be at least 1")
        if self.max_run_length is not None and self.max_run_length < 1:
            raise DomainError("max_run_length must be positive")
        if not 0.0 < self.tolerance < 1.0:
            raise DomainError(f"tolerance must lie in (0, 1), got {self.tolerance}")

    @property
    def run_length_cap(self) -> int:
        if self.max_run_length is not None:
            return int(self.max_run_length)
        return int(round(20.0 * self.target_arl0))


@dataclass(frozen=True)
class ArlEstimate:
    """Monte-Carlo ARL estimate at one threshold.

    Attributes:
        mean_run_length: Mean of ``run_lengths``.
        standard_error: Monte-Carlo standard error of that mean,
            ``std(run_lengths, ddof=1) / sqrt(R)``; 0 for one replication.
        censored_fraction: Share of runs that reached the cap.
        run_lengths: Each replication's run length; a run that never
            crossed counts as the cap.
    """

    mean_run_length: float
    standard_error: float
    censored_fraction: float
    run_lengths: np.ndarray


def _estimate_from_lengths(lengths: np.ndarray, caps: np.ndarray) -> ArlEstimate:
    count = lengths.size
    spread = float(np.std(lengths, ddof=1) / np.sqrt(count)) if count > 1 else 0.0
    return ArlEstimate(
        mean_run_length=float(lengths.mean()),
        standard_error=spread,
        censored_fraction=float(np.mean(lengths >= caps)),
        run_lengths=lengths,
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a threshold search.

    ``achieved_arl``, ``standard_error`` and ``censored_fraction`` are the
    exact :class:`ArlEstimate` at ``threshold``. The other thresholds the
    search probed were decided from bounds on their mean run length, so
    no exact ARL or error is known there.
    """

    threshold: float
    achieved_arl: float
    standard_error: float
    censored_fraction: float
    target_arl0: float
    replications: int
    evaluations: int

    def to_dict(self) -> dict:
        return asdict(self)


def _collect_traces(
    references,
    config: detector.MonitorConfig,
    source: SampleSource,
    replications,
    run_length: int,
    reset_on_alarm: bool = False,
) -> np.ndarray:
    """V traces of the given replication indices, shape ``(R, run_length)``.

    Without ``reset_on_alarm`` trajectories do not depend on the threshold,
    so one pass supports every threshold probed during the search.

    Raises:
        DimensionMismatchError: A draw is not exactly ``(run_length, p)``.
    """
    traces = detector.run_many(
        references,
        config,
        (source(rep, 0, run_length) for rep in replications),
        reset_on_alarm=reset_on_alarm,
    )
    if traces.shape[1] != run_length:
        raise DimensionMismatchError(
            f"source returned {traces.shape[1]} samples per replication, "
            f"expected {run_length}"
        )
    return traces


class _LazyTraces:
    """V traces of many runs, each simulated only as far as a question needs.

    ``draw(runs, length)`` returns the traces of the runs with the given
    indices over their first ``length`` samples, shape ``(len(runs),
    length)``; a shorter draw must be a prefix of a longer one. Run i is
    first simulated to ``min(prefix[i], caps[i])`` samples, and ``extend``
    simulates runs again from t = 0 to twice their length, at most their
    cap. Calibration asks about in-control run lengths (``decide``,
    ``estimate``); training (:func:`faultmon.pipeline._detect_runs`) asks
    for each fault run's trace through its classification point.

    Row i of ``traces`` holds run i's trace over its first
    ``simulated[i]`` samples and ``-inf`` after them, so the first
    crossing of any threshold lies in the simulated part.
    """

    def __init__(self, draw, prefix, caps):
        self._draw = draw
        self.caps = np.asarray(caps)
        self.traces = np.empty((self.caps.size, 0))
        self.simulated = np.zeros(self.caps.size, dtype=int)
        self._simulate(np.arange(self.caps.size), np.minimum(prefix, self.caps))

    def _simulate(self, runs: np.ndarray, lengths: np.ndarray) -> None:
        """Simulate each of ``runs`` from t = 0 to its entry of ``lengths``."""
        for length in np.unique(lengths).tolist():
            group = runs[lengths == length]
            block = self._draw(group.tolist(), length)
            width = self.traces.shape[1]
            if length > width:
                self.traces = np.pad(
                    self.traces, ((0, 0), (0, length - width)), constant_values=-np.inf
                )
            self.traces[group, :length] = block
            self.simulated[group] = length

    def extend(self, runs: np.ndarray) -> None:
        """Simulate ``runs`` again from t = 0, to twice their length or their cap."""
        self._simulate(runs, np.minimum(2 * self.simulated[runs], self.caps[runs]))

    def _bounds(self, threshold: float) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds on every run length at ``threshold``.

        A run that crossed has its exact length, the crossing index + 1. A
        run that did not lies in ``[simulated + 1, cap]``; either end is
        the cap, and so exact, once it is simulated to ``cap - 1``.
        """
        crossed = self.traces >= threshold
        hit = crossed.any(axis=1)
        exact = crossed.argmax(axis=1) + 1.0
        low = np.where(hit, exact, np.minimum(self.simulated + 1.0, self.caps))
        high = np.where(hit, exact, self.caps)
        return low, high

    def _settle(self, threshold: float, settled) -> tuple[np.ndarray, np.ndarray]:
        """Extend undecided runs until ``settled(low, high)`` holds."""
        low, high = self._bounds(threshold)
        while not settled(low, high):
            self.extend(np.flatnonzero(low != high))
            low, high = self._bounds(threshold)
        return low, high

    def decide(self, threshold: float, answer):
        """``answer(m)`` for the exact mean run length m at ``threshold``.

        ``answer`` must be constant on every interval of m where it takes
        the same value at both ends: a monotone comparison, or which of a
        band and its two sides m falls in. ``mean`` adds in an order fixed
        by the run count, and float addition is monotone, so the exact
        mean lies between the means of the bounds; its answer is theirs
        once they agree.
        """
        low, _ = self._settle(
            threshold, lambda lo, hi: answer(lo.mean()) == answer(hi.mean())
        )
        return answer(low.mean())

    def estimate(self, threshold: float) -> ArlEstimate:
        """The exact estimate: every run crossed or reached the cap."""
        lengths, _ = self._settle(threshold, np.array_equal)
        return _estimate_from_lengths(lengths, self.caps)


def _in_control_traces(references, config, source, spec: CalibrationSpec) -> _LazyTraces:
    """The spec's replications, each first simulated to ``4 * target_arl0``
    samples, at most the cap."""
    return _LazyTraces(
        partial(_collect_traces, references, config, source),
        int(round(_PREFIX_ARLS * spec.target_arl0)),
        np.full(spec.replications, spec.run_length_cap),
    )


def estimate_arl(
    threshold: float,
    references,
    config: detector.MonitorConfig,
    source: SampleSource,
    spec: CalibrationSpec,
) -> ArlEstimate:
    """Monte-Carlo ARL at a fixed threshold.

    Runs are censored at ``spec.run_length_cap``; censored runs contribute
    the cap itself, so the estimate is biased low when censoring is heavy.
    Check ``censored_fraction`` before trusting the number.

    Each run is simulated to ``min(cap, 4 * spec.target_arl0)`` samples,
    then only the runs that have not crossed are simulated further, from
    t = 0 to twice their length, until each crosses or reaches the cap.
    The result equals simulating every run to the cap, given a source
    whose shorter draws are prefixes of its longer ones (see the module
    docstring).
    """
    return _in_control_traces(references, config, source, spec).estimate(threshold)


def find_threshold(
    references,
    config: detector.MonitorConfig,
    source: SampleSource,
    spec: CalibrationSpec,
) -> CalibrationResult:
    """Bisect for the threshold whose in-control ARL matches the target.

    The ARL is a non-decreasing step function of H over a fixed set of
    simulated trajectories, so bisection converges; the search stops as
    soon as the estimate is within ``spec.tolerance`` of the target or the
    bracket narrows below an absolute floor. Entirely deterministic for a
    deterministic source.

    Every probe is decided lazily (module docstring): runs are simulated
    to ``min(cap, 4 * target_arl0)`` samples and extended only while the
    bounds on a probe's mean run length disagree on the comparison the
    search makes there. The result, ``evaluations`` included, equals a
    search over every run simulated to the cap. Only the chosen threshold
    gets an exact estimate, and so a standard error.

    Raises:
        BracketError: The bracket cannot be expanded to straddle the
            target (for instance when the cap censors everything).
    """
    cap = spec.run_length_cap
    target = spec.target_arl0
    if cap <= target:
        raise BracketError(
            f"run length cap {cap} cannot resolve a target ARL of {target}"
        )
    traces = _in_control_traces(references, config, source, spec)
    evaluations = 0

    def probe(h: float, answer):
        nonlocal evaluations
        evaluations += 1
        return traces.decide(h, answer)

    def side_of_band(mean: float) -> int:
        # 0 inside the tolerance band, else -1 below it and 1 above it.
        if abs(mean / target - 1.0) <= spec.tolerance:
            return 0
        return -1 if mean < target else 1

    low, high = _H_BRACKET
    expansions = 0
    while probe(high, lambda mean: mean <= target):
        high *= 2.0
        expansions += 1
        if expansions > _MAX_EXPANSIONS:
            arl = traces.estimate(high / 2.0).mean_run_length
            raise BracketError(
                f"ARL stays at {arl:.1f} below target {target} even at H={high / 2.0}"
            )
    expansions = 0
    while probe(low, lambda mean: mean >= target):
        low /= 2.0
        expansions += 1
        if expansions > _MAX_EXPANSIONS:
            arl = traces.estimate(low * 2.0).mean_run_length
            raise BracketError(
                f"ARL is already {arl:.1f} above target {target} at H={low * 2.0}"
            )

    best_h = high
    while high - low >= _MIN_BRACKET_WIDTH:
        mid = 0.5 * (low + high)
        side = probe(mid, side_of_band)
        if side == 0:
            best_h = mid
            break
        if side < 0:
            low = mid
        else:
            # Track the conservative (upper) end: its ARL is >= target.
            high = best_h = mid

    best = traces.estimate(best_h)
    return CalibrationResult(
        threshold=float(best_h),
        achieved_arl=best.mean_run_length,
        standard_error=best.standard_error,
        censored_fraction=best.censored_fraction,
        target_arl0=target,
        replications=spec.replications,
        evaluations=evaluations,
    )


def estimate_false_alarm_rate(
    threshold: float,
    references,
    config: detector.MonitorConfig,
    source: SampleSource,
    replications: int,
    run_length: int,
) -> float:
    """In-control false-alarm rate with the reset-on-alarm convention.

    After each alarm the detector state is zeroed and monitoring resumes
    at the next sample, mirroring how an operator acknowledges an alarm.
    Under this renewal convention alarms per sample converge to 1 / ARL0.
    Counting every above-threshold sample without resetting would instead
    inflate the rate by the mean excursion length. The detector applies
    the resets itself (``run_many(..., reset_on_alarm=True)``), so each
    sample is ranked once. A call of few replications, down to one, costs
    far fewer kernel steps than samples: the detector cuts each run into
    time chunks that advance side by side in three fixed passes, exactly
    (see :mod:`faultmon.detector`).

    Returns:
        Total alarms divided by total samples inspected.
    """
    if replications < 1 or run_length < 1:
        raise EmptyInputError("replications and run_length must be at least 1")
    cfg = config.with_threshold(threshold)
    traces = _collect_traces(
        references, cfg, source, range(replications), run_length, True
    )
    return int(np.count_nonzero(traces >= threshold)) / (replications * run_length)


def bootstrap_source(pool, seed: int) -> SampleSource:
    """Sample source that resamples rows of a fixed pool with replacement.

    Useful when only a finite in-control history is available. Row draws
    are addressable: replication r, offset t always yields the same row.
    """
    rows = np.asarray(pool, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise EmptyInputError("pool must be a non-empty (n, p) matrix")
    n = rows.shape[0]

    def source(replication: int, start: int, count: int) -> np.ndarray:
        draws = _uniforms(seed, (replication,), start, count)
        idx = np.minimum((draws * n).astype(np.int64), n - 1)
        return rows[idx]

    return source


def standardized_source(source: SampleSource, stats: ReferenceStats) -> SampleSource:
    """Wrap a raw-scale source so it emits standardized samples."""

    def wrapped(replication: int, start: int, count: int) -> np.ndarray:
        return apply_stats(source(replication, start, count), stats)

    return wrapped
