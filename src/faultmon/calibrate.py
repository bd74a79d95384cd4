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
particular ``source(r, a, n)`` is rows a to a + n - 1 of ``source(r, 0,
m)`` for a + n <= m, so a run simulated to a samples is resumed by
drawing from offset a, and the result is the run simulated in one draw.

Runs are simulated lazily, and the results are those of simulating every
run to the cap. Each replication is first simulated to
``min(cap, 2 * target_arl0)`` samples. An in-control CUSUM run length has
a near-geometric tail (Brook & Evans 1972), so near the chosen threshold
about e^-2, 13.5%, of the runs outlast that prefix, and extending those
few costs less than drawing every run further (``_PREFIX_ARLS`` says why
two ARLs, not one or four). At a threshold H a run's length is
then exact if its trace crossed H, and otherwise lies between one past
its simulated length and the cap. Every question the search asks of the
mean run length is a comparison that is monotone in the mean, or an
interval of it, and the exact mean lies between the means of the lower
and upper bounds, so the question is settled once both bound means give
the same answer. Until they do, the undecided runs are resumed where they
stopped, from their CUSUM state there, to twice their length, at most the
cap, so every sample is drawn, ranked and stepped once. An estimate that is
reported (``estimate_arl``, the chosen threshold's ``achieved_arl``, an
error message) is exact: its runs are extended until each one has
crossed or reached the cap.

:class:`detector._LazyTraces`, beside ``run_many``, owns this doubling:
V traces of many runs, each simulated only as far as a question needs,
every draw over the one reference context the detector keeps. Training
shares it to simulate each fault run only through its classification
point (see :mod:`faultmon.pipeline`). This module keeps the run-length
questions (``_RunLengths``: the bounds, and ``decide`` and ``estimate`` on
them); the false-alarm-rate check draws whole runs through ``run_many``.
"""

from __future__ import annotations

import logging
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

logger = logging.getLogger(__name__)

# Bisection stops when the bracket is narrower than this, even if the
# relative tolerance on ARL was never met (the ARL curve is a step
# function of H at finite replication counts).
_MIN_BRACKET_WIDTH = 0.125
_MAX_EXPANSIONS = 60
# Initial (low, high) threshold bracket; doubled / halved until it
# straddles the target.
_H_BRACKET = (0.5, 32.0)
# Every run is first simulated to this many target ARLs (at most the cap).
# The in-control run length is near-geometric, so about e^-2, 13.5%, of
# the runs outlast two ARLs and are resumed. Four ARLs draw every run
# twice as far to spare the e^-4, 2%, that outlast them. One ARL draws
# fewer rows but leaves e^-1, 37%, open, and so makes more draws and
# extension rounds, whose fixed costs outweigh the rows saved. A draw of
# the 20-stream process costs ~0.15 ms before its first row (the stream
# keys, a re-keyed Philox per stream, 20 quantile transforms) and ~1.4 us
# a row after it. The seed-0 process search (ARL0 200, 400 replications)
# draws 165,800 rows in 753 draws from one ARL, 184,400 rows in 459 draws
# from two, and 321,600 rows in 402 draws from four; seed 1 draws 172,800
# rows in 768 draws from one and 190,400 in 473 from two. perfbench
# ``calibrate`` ``main_s`` read 7.4% (seed 0) and 6.5% (seed 1) higher
# from one ARL than from two, in 6 of 6 untraced pairs each (one pinned
# CPU, ``OPENBLAS_NUM_THREADS=1``), though one ARL peaks ~12 MB lower.
_PREFIX_ARLS = 2


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


class _RunLengths(detector._LazyTraces):
    """In-control V traces (:class:`detector._LazyTraces`), asked about
    their run lengths at a threshold. They are drawn without resets, so
    they do not depend on the threshold, and one set serves every
    threshold the search probes."""

    def _bounds(self, threshold: float) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds on every run length at ``threshold``.

        A run that crossed has its exact length, the crossing index + 1. A
        run that did not lies in ``[simulated + 1, cap]``; either end is
        the cap, and so exact, once it is simulated to ``cap - 1``.
        """
        first = self.first_crossings(threshold)
        hit = first >= 0
        exact = first + 1.0
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


def _in_control_traces(references, config, source, spec: CalibrationSpec) -> _RunLengths:
    """The spec's replications, each first simulated to ``2 * target_arl0``
    samples, at most the cap."""
    prefix = int(round(_PREFIX_ARLS * spec.target_arl0))
    caps = np.full(spec.replications, spec.run_length_cap)
    return _RunLengths(references, config, source, prefix, caps)


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

    Each run is simulated to ``min(cap, 2 * spec.target_arl0)`` samples,
    then only the runs that have not crossed are resumed where they
    stopped, to twice their length, until each crosses or reaches the cap.
    The result equals simulating every run to the cap, given an
    addressable source (see the module docstring).
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
    to ``min(cap, 2 * target_arl0)`` samples and extended only while the
    bounds on a probe's mean run length disagree on the comparison the
    search makes there. The result, ``evaluations`` included, equals a
    search over every run simulated to the cap. Only the chosen threshold
    gets an exact estimate, and so a standard error. One DEBUG record on
    the ``faultmon.calibrate`` logger gives the chosen H, the evaluations,
    and the replication draws and rows simulated; each row is simulated
    once.

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
    logger.debug(
        "find_threshold: H %r after %d evaluations; %d replication draws, "
        "%d rows simulated, %.3f of replications x cap",
        best_h, evaluations, traces.draws, traces.rows,
        traces.rows / (spec.replications * cap),
    )
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
    (see :mod:`faultmon.detector`). ``references`` equal bit for bit to
    those of the previous call reuse its reference context, so a loop of
    calls over one reference set builds one context.

    Returns:
        Total alarms divided by total samples inspected.

    Raises:
        DimensionMismatchError: A draw is not ``(run_length, p)``.
    """
    if replications < 1 or run_length < 1:
        raise EmptyInputError("replications and run_length must be at least 1")
    draws = (source(r, 0, run_length) for r in range(replications))
    cfg = config.with_threshold(threshold)
    traces = detector.run_many(references, cfg, draws, reset_on_alarm=True)
    if traces.shape[1] != run_length:
        raise DimensionMismatchError(f"source drew {traces.shape[1]} samples, not {run_length}")
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
