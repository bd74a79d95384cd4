"""Alarm-threshold selection for a target in-control average run length.

The operator picks a target ARL0 (expected samples between false alarms
while in control). The threshold H achieving it has no closed form for
this detector, so it is found by Monte Carlo: simulate in-control runs,
measure the mean first-crossing time as a function of H, and bisect.

A sample source is a callable ``source(replication, start, count)``
returning ``count`` consecutive standardized in-control samples of shape
``(count, p)`` for one replication. Sources must be deterministic and
addressable: the same arguments always return the same values regardless
of call order, which makes every estimate here reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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
    """Monte-Carlo ARL estimate at one threshold."""

    mean_run_length: float
    censored_fraction: float
    run_lengths: np.ndarray


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a threshold search."""

    threshold: float
    achieved_arl: float
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
    replications: int,
    run_length: int,
    reset_on_alarm: bool = False,
) -> np.ndarray:
    """V traces for in-control replications, shape ``(R, run_length)``.

    Without ``reset_on_alarm`` trajectories do not depend on the threshold,
    so one pass supports every threshold probed during the search.

    Raises:
        DimensionMismatchError: A draw is not exactly ``(run_length, p)``.
    """
    traces = detector.run_many(
        references,
        config,
        (source(rep, 0, run_length) for rep in range(replications)),
        reset_on_alarm=reset_on_alarm,
    )
    if traces.shape[1] != run_length:
        raise DimensionMismatchError(
            f"source returned {traces.shape[1]} samples per replication, "
            f"expected {run_length}"
        )
    return traces


def _run_lengths_at(traces: np.ndarray, threshold: float, cap: int) -> np.ndarray:
    crossed = traces >= threshold
    first = crossed.argmax(axis=1)
    never = ~crossed.any(axis=1)
    # Run length counts samples, so index t crossing means length t + 1.
    lengths = np.where(never, float(cap), first + 1.0)
    return lengths


def _estimate_from_traces(traces: np.ndarray, threshold: float, cap: int) -> ArlEstimate:
    lengths = _run_lengths_at(traces, threshold, cap)
    censored = float(np.mean(lengths >= cap))
    return ArlEstimate(
        mean_run_length=float(lengths.mean()),
        censored_fraction=censored,
        run_lengths=lengths,
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
    """
    traces = _collect_traces(
        references, config, source, spec.replications, spec.run_length_cap
    )
    return _estimate_from_traces(traces, threshold, spec.run_length_cap)


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

    Raises:
        BracketError: The bracket cannot be expanded to straddle the
            target (for instance when the cap censors everything).
    """
    cap = spec.run_length_cap
    if cap <= spec.target_arl0:
        raise BracketError(
            f"run length cap {cap} cannot resolve a target ARL of {spec.target_arl0}"
        )
    traces = _collect_traces(references, config, source, spec.replications, cap)
    evaluations = 0

    def arl_at(h: float) -> ArlEstimate:
        nonlocal evaluations
        evaluations += 1
        return _estimate_from_traces(traces, h, cap)

    low, high = _H_BRACKET
    est_high = arl_at(high)
    expansions = 0
    while est_high.mean_run_length <= spec.target_arl0:
        high *= 2.0
        expansions += 1
        if expansions > _MAX_EXPANSIONS:
            raise BracketError(
                f"ARL stays at {est_high.mean_run_length:.1f} below target "
                f"{spec.target_arl0} even at H={high / 2.0}"
            )
        est_high = arl_at(high)
    est_low = arl_at(low)
    expansions = 0
    while est_low.mean_run_length >= spec.target_arl0:
        low /= 2.0
        expansions += 1
        if expansions > _MAX_EXPANSIONS:
            raise BracketError(
                f"ARL is already {est_low.mean_run_length:.1f} above target "
                f"{spec.target_arl0} at H={low * 2.0}"
            )
        est_low = arl_at(low)

    best_h, best_est = high, est_high
    while high - low >= _MIN_BRACKET_WIDTH:
        mid = 0.5 * (low + high)
        est = arl_at(mid)
        if abs(est.mean_run_length / spec.target_arl0 - 1.0) <= spec.tolerance:
            best_h, best_est = mid, est
            break
        if est.mean_run_length < spec.target_arl0:
            low = mid
        else:
            # Track the conservative (upper) end: its ARL is >= target.
            high, best_h, best_est = mid, mid, est

    return CalibrationResult(
        threshold=float(best_h),
        achieved_arl=best_est.mean_run_length,
        censored_fraction=best_est.censored_fraction,
        target_arl0=spec.target_arl0,
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
    sample is ranked once.

    Returns:
        Total alarms divided by total samples inspected.
    """
    if replications < 1 or run_length < 1:
        raise EmptyInputError("replications and run_length must be at least 1")
    cfg = config.with_threshold(threshold)
    traces = _collect_traces(references, cfg, source, replications, run_length, True)
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
