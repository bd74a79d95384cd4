"""Nonparametric CUSUM detection over standardized sensor streams.

Each stream keeps a sorted in-control reference sample. Every incoming
value is ranked against its reference and the rank is smoothed into an
empirical CDF estimate ``(c + 1) / (s + 2)``, where ``c`` counts reference
values strictly below the observation and ``s`` is the reference size. The
negative logs of that estimate and of its complement drive a pair of
one-sided CUSUM statistics per stream:

    W+ <- max(W+ - log(1 - mu) - k, 0)      (upward shifts)
    W- <- max(W- - log(mu) - k, 0)          (downward shifts)

where ``k`` is the allowance that drains the statistics while in control.
The monitor-wide statistic V is the sum of the r largest two-sided stream
statistics; an alarm is raised when V reaches the threshold.

One function, ``_cusum_step``, applies this update: ``Monitor.step`` calls
it per sample and the batch loop behind ``Monitor.run`` and ``run_many``
per time step, so all three paths give bit-identical results. With
``reset_on_alarm``, ``run_many`` zeroes a run's W+ and W- after each
sample whose V reaches the threshold (the renewal convention), as calling
``Monitor.reset`` after every alarm would.

Ranking picks its method by the call. ``Monitor.step`` ranks its p values
through one index of all references (``_StepIndex``): one vectorized
search per sample instead of p separate ones, whose per-call overhead
dominates when each searches a single key. Each stream's reference values
are complex keys ``stream + value j``, and the sample's value for stream i
is searched as ``i + z_i j``; numpy orders complex numbers by real part,
then imaginary part, so that one search ranks every stream within its own
block. Its result is the sample's position in two tables, built once per
monitor, that hold ``log(1 - mu)`` and ``log(mu)`` for every count c in
0..s of every stream: ``step`` gathers its log terms there instead of
dividing and taking two logs per sample. The tables hold the logs of the
same estimate ``(c + 1.0) / (s + 2.0)``, so the step stays bit-identical
to the batch path, which takes the logs of a whole block at once.

``Monitor.run`` and ``run_many`` rank a batch by sort-merge
(``_cdf_estimates``): per stream and per slice of rows, they sort the
slice's values and place the s reference values among them with s
searches, instead of one binary search over the reference per value,
whose mispredicted branches dominate when a stream has thousands of keys.
Both paths count the same reference values strictly below each
observation, so they stay bit-identical.

``run_many`` owns the lockstep block: it checks runs as it copies them,
one at a time, into a block of at most ``_BLOCK_BYTES`` and ranks the
block in place, so callers may pass generators and keep no corpus.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRError,
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    NonFiniteValueError,
)

__all__ = [
    "build_reference",
    "estimate_cdf",
    "MonitorConfig",
    "MonitorOutput",
    "MonitorTrace",
    "Monitor",
    "run_many",
]


def build_reference(history) -> np.ndarray:
    """Sort an in-control history into a reference sample.

    Duplicates are kept; ties simply weight the empirical CDF.

    Args:
        history: 1-D array of in-control values for one stream.

    Returns:
        Ascending float64 copy of ``history``.
    """
    arr = np.asarray(history, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError(
            f"reference history must be 1-D, got ndim={arr.ndim}"
        )
    if arr.size == 0:
        raise EmptyInputError("reference history is empty")
    if not np.isfinite(arr).all():
        raise NonFiniteValueError("reference history contains NaN or infinity")
    return np.sort(arr)


def estimate_cdf(reference: np.ndarray, value: float) -> float:
    """Smoothed empirical CDF of ``value`` under a sorted reference.

    Returns ``(c + 1) / (s + 2)`` with ``c`` the count of reference entries
    strictly below ``value``. The result is always inside (0, 1), so its
    logs below are finite even for values outside the reference range.
    """
    ref = np.asarray(reference, dtype=float)
    if not math.isfinite(value):
        raise NonFiniteValueError("value must be finite")
    count = np.searchsorted(ref, value, side="left")
    return float((count + 1.0) / (ref.size + 2.0))


def _top_r_sum(two_sided_stats: np.ndarray, top_r: int) -> np.ndarray:
    """Sum of the r largest entries along the last axis.

    The selected entries are summed in ascending order so that the result
    does not depend on which code path produced them.
    """
    p = two_sided_stats.shape[-1]
    return np.sort(two_sided_stats, axis=-1)[..., p - top_r:].sum(axis=-1)


@dataclass(frozen=True)
class MonitorConfig:
    """Detection parameters shared by every code path.

    Attributes:
        allowance: CUSUM allowance k (> 0).
        top_r: Number of streams pooled into the global statistic.
        stream_count: Number of monitored streams p.
        threshold: Alarm threshold H; ``inf`` disables alarms until a
            calibrated value is installed.
    """

    allowance: float
    top_r: int
    stream_count: int
    threshold: float = math.inf

    def __post_init__(self):
        if not self.allowance > 0.0:
            raise DomainError(f"allowance must be positive, got {self.allowance}")
        if self.stream_count < 1:
            raise DimensionMismatchError("stream_count must be at least 1")
        if not 1 <= self.top_r <= self.stream_count:
            raise BadRError(
                f"top_r must be in 1..{self.stream_count}, got {self.top_r}"
            )
        if math.isnan(self.threshold) or self.threshold < 0.0:
            raise DomainError(f"threshold must be >= 0, got {self.threshold}")

    def with_threshold(self, threshold: float) -> "MonitorConfig":
        return dataclasses.replace(self, threshold=threshold)


@dataclass(frozen=True)
class MonitorOutput:
    """Result of consuming one sample."""

    time_index: int
    global_stat: float
    alarm: bool
    local_stats: np.ndarray


@dataclass(frozen=True)
class MonitorTrace:
    """Result of consuming a batch of samples."""

    global_stats: np.ndarray
    alarms: np.ndarray


def _validate_references(references, stream_count: int) -> list[np.ndarray]:
    if len(references) != stream_count:
        raise DimensionMismatchError(
            f"got {len(references)} references for {stream_count} streams"
        )
    return [build_reference(ref) for ref in references]


def _check_samples(samples, stream_count: int, ndim: int) -> np.ndarray:
    """``samples`` as a finite, non-empty float array of ``ndim`` axes, p last."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != ndim or arr.shape[-1] != stream_count:
        raise DimensionMismatchError(
            f"expected {ndim}-D samples over {stream_count} streams, got {arr.shape}"
        )
    if 0 in arr.shape:
        raise EmptyInputError("empty sample batch")
    if not np.isfinite(arr).all():
        raise NonFiniteValueError("samples contain NaN or infinity")
    return arr


# Rows per slice in ``_cdf_estimates``. A slice costs s searches per stream
# whatever its length, and its (p, rows) transposed copy (5 MB at p = 20)
# stays in cache while its p streams are ranked.
_RANK_SLICE_ROWS = 1 << 15

# Bytes of the block of runs that ``run_many`` ranks and advances in
# lockstep, about 125 runs of 4000 samples over 20 streams. The recursion
# pays numpy's per-call overhead once per time step for the whole block, so
# wide blocks amortize it; while it runs, the block (holding mu, then
# log(mu)) and log(1 - mu) beside it are the two block-sized arrays alive.
_BLOCK_BYTES = 80_000_000


def _cdf_estimates(references, samples: np.ndarray) -> np.ndarray:
    """Smoothed empirical CDF values for samples of shape ``(..., p)``,
    written over ``samples`` (a C-contiguous float array), which is returned.

    Ranks each stream of each slice of rows by sort-merge. With the slice's
    n keys of stream i sorted as ``x_0 <= ... <= x_{n-1}``,
    ``above = x.searchsorted(ref, side="right")`` gives, for each reference
    value r, the number of keys ``<= r``; so r is strictly below ``x_j``
    exactly when ``above <= j``, and the running total of the histogram of
    ``above`` at j counts the reference values strictly below ``x_j``. That
    is the count ``ref.searchsorted(x_j)`` gives, an exact integer under the
    same ``<`` comparison, so ties within the reference, ties between key
    and reference, and ``-0.0 == 0.0`` all count alike. Equal keys get
    equal counts (no reference value lies between them), so the sort need
    not be stable.
    """
    p = samples.shape[-1]
    rows = samples.reshape(-1, p, copy=False)
    # Each slice is copied in transposed, so that every stream's keys are
    # contiguous, ranked in place and copied back over the slice. One
    # buffer serves every slice: allocating one per slice raised the
    # resident peak by several MB.
    buffer = np.empty((p, min(_RANK_SLICE_ROWS, rows.shape[0])))
    for lo in range(0, rows.shape[0], _RANK_SLICE_ROWS):
        rows_slice = rows[lo : lo + _RANK_SLICE_ROWS]
        n = rows_slice.shape[0]
        keys = buffer[:, :n]
        keys[...] = rows_slice.T
        for i, ref in enumerate(references):
            order = np.argsort(keys[i])
            above = keys[i][order].searchsorted(ref, side="right")
            below = np.bincount(above, minlength=n + 1).cumsum()[:-1]
            keys[i, order] = (below + 1.0) / (ref.size + 2.0)
        rows_slice[...] = keys.T
    return samples


class _StepIndex:
    """Ranks one value per stream against all p references in one search
    and reads the CUSUM's log terms for those ranks from two tables.

    Stream i's reference values r become the complex keys ``i + r j``,
    followed by one closing key ``i + inf j``, and the p streams' keys are
    laid end to end; numpy orders complex numbers by real part, then by
    imaginary part, so the keys ascend as built. Searching them for the
    sample ``i + z_i j`` finds every key of the streams before i, their
    closing keys included, then stream i's reference values strictly below
    ``z_i``, with ties and ``-0.0 == 0.0`` counted as ``ref.searchsorted``
    counts them; its closing key is never below a finite ``z_i``. The
    search thus returns ``offset_i + i + c_i``, the position of count
    ``c_i`` in stream i's block of two tables that hold ``log(1 - mu)``
    and ``log(mu)`` at ``mu = (c + 1.0) / (s_i + 2.0)`` for every c in
    0..s_i. Memory is O(N + p) for N reference values in all.
    """

    def __init__(self, references: list[np.ndarray]):
        sizes = np.array([ref.size for ref in references])
        keys = np.empty(sizes.sum() + sizes.size, dtype=complex)
        keys.real = np.repeat(np.arange(sizes.size), sizes + 1)
        keys.imag = np.concatenate([np.append(ref, np.inf) for ref in references])
        self._keys = keys
        # One sample's keys; step writes z into the imaginary parts.
        self._query = np.arange(sizes.size, dtype=complex)
        counts = np.concatenate([np.arange(size + 1) for size in sizes])
        mu = (counts + 1.0) / np.repeat(sizes + 2.0, sizes + 1)
        self._log_hi = np.log(1.0 - mu)
        self._log_lo = np.log(mu)

    def log_terms(self, sample: np.ndarray):
        """``log(1 - mu)`` and ``log(mu)`` for one finite sample of shape ``(p,)``."""
        self._query.imag = sample
        at = self._keys.searchsorted(self._query)
        return self._log_hi[at], self._log_lo[at]


def _cusum_step(w_plus, w_minus, log_hi, log_lo, allowance: float, top_r: int):
    """Advance W+/W- (shape ``(..., p)``) by one sample's ``log(1 - mu)`` and
    ``log(mu)``; returns the new W+, W-, the two-sided statistics and V."""
    w_plus = np.maximum(w_plus - log_hi - allowance, 0.0)
    w_minus = np.maximum(w_minus - log_lo - allowance, 0.0)
    two = np.maximum(w_plus, w_minus)
    return w_plus, w_minus, two, _top_r_sum(two, top_r)


def _run_recursion(
    references,
    config: MonitorConfig,
    samples: np.ndarray,
    w_plus: np.ndarray,
    w_minus: np.ndarray,
    reset_at: float | None = None,
):
    """Rank samples and drive the CUSUM recursion over their time axis.

    Args:
        samples: Shape ``(..., T, p)``, C-contiguous; overwritten with mu,
            then ``log(mu)``, so that no more block-sized arrays are kept.
        w_plus, w_minus: Entry state, broadcastable to ``(..., p)`` (0.0
            for zeroed state); not modified.
        reset_at: If given, zero the state of each row whose V reaches it.

    Returns:
        ``(v, w_plus, w_minus)`` with ``v`` of shape ``(..., T)`` and the
        exit states.
    """
    mu = _cdf_estimates(references, samples)
    log_hi = np.subtract(1.0, mu)
    np.log(log_hi, out=log_hi)
    log_lo = np.log(mu, out=mu)
    v = np.empty(mu.shape[:-1], dtype=float)
    for t in range(mu.shape[-2]):
        w_plus, w_minus, _, v[..., t] = _cusum_step(
            w_plus, w_minus, log_hi[..., t, :], log_lo[..., t, :],
            config.allowance, config.top_r,
        )
        if reset_at is not None:
            # In place is safe: _cusum_step returned fresh arrays.
            fired = v[..., t] >= reset_at
            w_plus[fired] = w_minus[fired] = 0.0
    return v, w_plus, w_minus


class Monitor:
    """Streaming detector over p standardized streams.

    A monitor owns sorted references, the per-stream CUSUM state, and a
    sample counter. ``step`` consumes one sample; ``run`` consumes a batch
    and is bit-identical to the equivalent sequence of ``step`` calls.

    Time indices are 0-based: the first sample consumed after construction
    (or :meth:`reset`) has ``time_index == 0``.
    """

    # Whether ``step`` checks its sample. ``pipeline.online_monitor`` turns
    # it off on the monitor it owns, which only ever sees rows it has
    # checked itself: a 1-D float array of p finite values.
    _checks_samples = True

    def __init__(self, references, config: MonitorConfig):
        self.config = config
        self._references = _validate_references(references, config.stream_count)
        self._index = _StepIndex(self._references)
        self._w_plus = np.zeros(config.stream_count)
        self._w_minus = np.zeros(config.stream_count)
        self._time = 0

    def reset(self) -> None:
        """Zero the CUSUM state and the sample counter."""
        self._w_plus = np.zeros(self.config.stream_count)
        self._w_minus = np.zeros(self.config.stream_count)
        self._time = 0

    def step(self, sample) -> MonitorOutput:
        """Consume one standardized sample of shape ``(p,)``."""
        if self._checks_samples:
            sample = _check_samples(sample, self.config.stream_count, 1)
        log_hi, log_lo = self._index.log_terms(sample)
        self._w_plus, self._w_minus, two, v = _cusum_step(
            self._w_plus, self._w_minus, log_hi, log_lo,
            self.config.allowance, self.config.top_r,
        )
        v = float(v)
        out = MonitorOutput(
            time_index=self._time,
            global_stat=v,
            alarm=v >= self.config.threshold,
            local_stats=two,
        )
        self._time += 1
        return out

    def run(self, samples) -> MonitorTrace:
        """Consume a batch of shape ``(T, p)``; equivalent to T ``step`` calls."""
        # A private copy, because ranking writes mu over its input.
        arr = _check_samples(samples, self.config.stream_count, 2).copy()
        v, self._w_plus, self._w_minus = _run_recursion(
            self._references, self.config, arr, self._w_plus, self._w_minus
        )
        self._time += arr.shape[0]
        return MonitorTrace(global_stats=v, alarms=v >= self.config.threshold)


def run_many(
    references, config: MonitorConfig, runs, *, reset_on_alarm: bool = False
) -> np.ndarray:
    """Global-statistic traces for many runs advanced in lockstep.

    Args:
        references: In-control histories, one per stream.
        config: Detection parameters.
        runs: Iterable of equal-shaped ``(T, p)`` arrays, such as a
            generator or an array of shape ``(R, T, p)``; every run starts
            from zeroed state.
        reset_on_alarm: Zero a run's state after each alarm at
            ``config.threshold``, as :meth:`Monitor.reset` would.

    Returns:
        V traces of shape ``(R, T)``, bit-identical to running each run
        through its own :class:`Monitor`.

    Raises:
        DimensionMismatchError: A run is not ``(T, p)`` with the first run's T.
        EmptyInputError: There is no run, or T is 0.
        NonFiniteValueError: A run holds NaN or infinity.
    """
    refs = _validate_references(references, config.stream_count)
    reset_at = config.threshold if reset_on_alarm else None
    traces, block, filled = [], None, 0
    for index, run in enumerate(runs):
        run = _check_samples(run, config.stream_count, 2)
        if block is None:
            # Rows past the last run filled are never written, so a block
            # larger than the runs given costs address space, not memory.
            block = np.empty((max(1, _BLOCK_BYTES // run.nbytes), *run.shape))
        elif run.shape != block.shape[1:]:
            raise DimensionMismatchError(
                f"run {index} has shape {run.shape}, expected {block.shape[1:]}"
            )
        block[filled] = run
        filled += 1
        if filled == len(block):
            traces.append(_run_recursion(refs, config, block, 0.0, 0.0, reset_at)[0])
            filled = 0
    if block is None:
        raise EmptyInputError("no runs")
    if filled:
        rows = block[:filled]
        traces.append(_run_recursion(refs, config, rows, 0.0, 0.0, reset_at)[0])
    return np.concatenate(traces)
