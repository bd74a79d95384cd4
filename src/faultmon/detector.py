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

One function, ``_Cusum.step``, applies this update: the monitor's
per-sample kernel ``Monitor._advance`` calls it per sample and the batch
path ``run_many`` per time step of a block, so every path gives
bit-identical results. It works in place on one state array that holds
W- and W+ as its two halves, shape ``(2, ..., p)``, so each ufunc of the
update runs once for both sides and allocates nothing. With
``reset_on_alarm``, ``run_many`` zeroes a run's W+ and W- after each
sample whose V reaches the threshold (the renewal convention), as calling
``Monitor.reset`` after every alarm would; the step applies that reset
too, at the threshold its ``_Cusum`` was built with.

A step's cost is mostly numpy's per-call overhead, so it costs about the
same for one run as for 16. A narrow block, of fewer runs than
``_LOCKSTEP_WIDTH`` (a false-alarm-rate check advances one), is therefore
advanced as time chunks side by side (``_advance_chunks``), exactly, in
three passes:

1. Every chunk runs from zeroed state, keeping its first states.
2. Every chunk runs again from its predecessor's pass-1 end state (a
   run's first chunk from the run's entry state) until all meet their
   kept ones.
3. In chunk order, a chunk whose predecessor's true end state is not its
   pass-2 entry is re-run from that true end.

A step's new state and V depend only on the old state and the step's log
terms, resets included, so the passes give the bits of stepping, and no
chunk advances more than three times: a lone run whose chunks never meet
their kept states costs about 1.1 times stepping it. The steps past the
last whole chunk, and every wider block, advance one time step at a time.

One reference context (``_References``) owns what the references give
both paths: it checks and sorts them once, and builds the CUSUM's log
table (``_log_table``) once, two rows that hold ``log(mu)`` and
``log(1 - mu)`` for every count c in 0..s of every stream, the streams'
blocks laid end to end, with its logs taken once per distinct reference
size. It builds each path's ranking index on first use, over that one
table, and is read-only once built, so any number of monitors and
``run_many`` calls, from any threads, share it. ``run_many`` and
``Monitor`` take plain references and go through ``_References.of``,
which keeps the context of the last references it was given: a later call
whose references equal those bit for bit reuses it. That kept entry is
the one way contexts are shared, so training and the evaluations and
monitors over its bundle build one. Ranking a value gives its column in
the table, the stream's first column plus its count, and a step gathers
both log terms of all p streams with one ``take``, so no path divides or
takes a log per sample, and every path reads the same bits.

Ranking picks its method by the path. A monitor ranks each sample's p
values through one index of all references (``_StepIndex``): one vectorized
search per sample instead of p separate ones, whose per-call overhead
dominates when each searches a single key. Each stream's reference values
are complex keys ``stream + value j``, and the sample's value for stream i
is searched as ``i + z_i j``; numpy orders complex numbers by real part,
then imaginary part, so that one search ranks every stream within its own
block and returns the sample's columns directly. The query and the
gathered terms are each monitor's own buffers, not the index's.

``Monitor._advance`` is the whole per-sample kernel: rank, gather, CUSUM
step, V as a Python float. ``Monitor.step`` checks its sample, advances and
wraps V in a ``MonitorOutput``; ``Monitor.run`` checks its batch once and
advances row by row. ``pipeline.online_monitor`` steps each row it has
standardized and checked itself, so its monitor skips the check.

``run_many`` ranks a batch through one bucket index per stream
(``_RankIndex``), built once per context and shared by all the blocks of
every call that finds that context. A uniform grid over the reference
narrows each key to the few reference values of its bucket, and a
fixed-width branchless search counts those below the key, a few
whole-array steps per stream instead of a binary search per value, whose
mispredicted branches dominate when a stream has thousands of keys. The
grid map is monotone, so the count is the exact number of reference
values strictly below each observation, as in ``_StepIndex``, and both
paths stay bit-identical.

``run_many`` is the only batch path, and it owns the lockstep block: it
checks runs as it copies them, one at a time, into one ``(R, T, p)`` float
array of at most ``_BLOCK_BYTES``, so callers may pass generators and keep
no corpus. ``_run_recursion`` ranks the block in place, writing each
sample's table column over it through an intp view of the same memory;
columns are integers, copied through intp views only and never as floats
(as floats they would be subnormal numbers), so no copy depends on a float
copy keeping an integer's bits. The recursion then advances the block from
zeroed state, or from the state a caller hands ``run_many`` (``state``),
gathering one time step's log terms at a time into a buffer of the state's
shape, and hands the runs' end state back the same way. A run advanced
over two spans, the second from the first's end state, gets the bits of
one pass over both.

``_LazyTraces``, beside ``run_many``, owns "V traces of many runs, each
simulated only as far as a question needs": runs are drawn to a prefix and
resumed, from where their last draw ended, to twice their length, each
draw one ``run_many`` call over one kept context, so every sample is
drawn, ranked and stepped once. Threshold calibration
(:mod:`faultmon.calibrate`) asks it about in-control run lengths, and
training (:mod:`faultmon.pipeline`) for each fault run's trace through its
classification point.
"""

from __future__ import annotations

import dataclasses
import functools
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


def _check_samples(samples, stream_count: int, ndim: int) -> np.ndarray:
    """``samples`` as a finite, non-empty float array of ``ndim`` axes, p last."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != ndim or arr.shape[-1] != stream_count:
        raise DimensionMismatchError(
            f"expected {ndim}-D samples over {stream_count} streams, got {arr.shape}"
        )
    if 0 in arr.shape:
        raise EmptyInputError("empty sample batch")
    # count_nonzero tests this at about half the per-call cost of .all(),
    # as in standardize.apply; Monitor.step runs it once per sample.
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise NonFiniteValueError("samples contain NaN or infinity")
    return arr


# Rows per slice in ``_table_columns``. Ranking a stream's keys makes some
# twenty numpy calls whatever their number, so long slices amortize the
# calls' overhead: slices of 4096 rows ranked a fifth slower, and of 8192
# about 5% slower. The slice's (p, rows) transposed copy (5 MB at p = 20)
# and the kernel's three row-sized buffers are the only memory ranking
# adds; the slice's columns go back over the block through intp views. A
# slice is copied in by tiles of ``_TRANSPOSE_ROWS`` rows.
_RANK_SLICE_ROWS = 1 << 15
_TRANSPOSE_ROWS = 1024

# Bytes of the block of runs that ``run_many`` ranks and advances in
# lockstep, about 125 runs of 4000 samples over 20 streams. The recursion
# pays numpy's per-call overhead once per time step for the whole block, so
# wide blocks amortize it. The block is one ``(R, T, p)`` float array that
# holds the samples, then, through an intp view, their log-table columns;
# it is the only block-sized memory alive.
_BLOCK_BYTES = 80_000_000

# A block of R runs, R below ``_LOCKSTEP_WIDTH``, is cut into
# ``min(_LOCKSTEP_WIDTH // R, T // _MIN_CHUNK)`` time chunks per run, which
# advance side by side (``_advance_chunks``) if there are 2 or more: at
# p = 20 one kernel step costs 7.5 us for one run and 11.3 us for 16, so an
# in-control run of 3000 steps takes 187 steps of 16 chunks, then a second
# pass of 16 chunks that stops after some 80 steps, and 8 single steps past
# the last chunk. A lone run whose chunks never meet their speculation
# costs about 1.1 times stepping it. Wide
# blocks, such as training's and evaluation's, gain nothing from it and
# keep one step per time step. Speculation stores each chunk's state after
# at most its first ``_STORED_STEPS`` steps, so its memory does not grow
# with T.
_LOCKSTEP_WIDTH = 16
_MIN_CHUNK = 100
_STORED_STEPS = 512


def _log_table(sizes) -> tuple[np.ndarray, np.ndarray]:
    """The log terms of every count of every stream, and each stream's
    first column.

    Args:
        sizes: Reference size s_i of each stream i.

    Returns:
        A ``(2, N + p)`` table for N reference values in all, whose rows
        hold ``log(mu)`` and ``log(1 - mu)`` at ``mu = (c + 1.0) / (s_i +
        2.0)``, stream i's counts c = 0..s_i in columns ``start_i + c``, and
        the ``(p,)`` intp array of those ``start_i``. The logs are taken once
        per distinct size and shared by every stream of that size.
    """
    mu = {size: (np.arange(size + 1) + 1.0) / (size + 2.0) for size in set(sizes)}
    logs = {size: np.log([mu[size], 1.0 - mu[size]]) for size in mu}
    table = np.concatenate([logs[size] for size in sizes], axis=1)
    return table, np.cumsum([0, *sizes[:-1]]) + np.arange(len(sizes))


class _RankIndex:
    """Counts the values of one sorted reference strictly below each of
    many keys, the exact integer ``ref.searchsorted(keys, side="left")``
    gives, and maps each count c to its column ``start + c`` in the log
    table of :func:`_log_table`, ``start`` being the stream's first column.

    A uniform grid of s buckets over the reference's range ``[lo, hi]``
    puts a value x in bucket ``int((clip(x, lo, hi) - lo) * scale)``, with
    ``scale = s / (hi - lo)``. Clipping, subtraction, multiplication by a
    positive scale and truncation are each monotone non-decreasing, and
    numpy applies them alike to every element, so every reference value in
    an earlier bucket than x's is below x and every one in a later bucket
    is above it. The count is then ``first[bucket(x)]``, the reference
    values in earlier buckets, plus those of x's own bucket below x. A
    branchless lower bound finds the latter over the m values from
    ``first[bucket(x)]`` on, m being the power of two above the fullest
    bucket's count, in ``log2(m)`` steps of one gather, one ``<`` and one
    add; the reference is padded with m infinities, so the window never
    runs off its end. Ties, duplicates and ``-0.0 == 0.0`` count under the
    same ``<`` as ``searchsorted``. The grid only sets how many steps run,
    never the count.

    The map is total on finite keys and raises no floating-point warning:
    the clip keeps ``x - lo`` within ``[0, hi - lo]`` and the product
    within ``[0, s]`` (rounding can give s itself, at ``hi``, which the
    table of ``first`` covers, as it covers every bucket up to ``hi``'s).
    A constant reference, a range that overflows, or one so narrow that
    its scale overflows, gets the single bucket of ``lo = hi = scale = 0``,
    and the search then spans the whole reference. Memory is O(s); a
    reference context builds one per stream, on its first ``run_many``
    call.
    """

    __slots__ = ("_lo", "_hi", "_scale", "_first", "_padded", "_halves", "_start")

    def __init__(self, ref: np.ndarray, start: int):
        size = ref.size
        lo, hi = float(ref[0]), float(ref[-1])
        scale = size / (hi - lo) if hi > lo else math.inf
        if not 0.0 < scale < math.inf:
            lo = hi = scale = 0.0
        self._lo, self._hi, self._scale = lo, hi, scale
        # Keys are clipped to [lo, hi], so no key's bucket lies past hi's,
        # the last of the reference's.
        occupancy = np.bincount(self._buckets(ref, np.empty(size), np.empty(size, np.intp)))
        self._first = np.zeros(occupancy.size, dtype=np.intp)
        np.cumsum(occupancy[:-1], out=self._first[1:])
        steps = int(occupancy.max()).bit_length()
        self._halves = [1 << k for k in reversed(range(steps))]
        self._padded = np.concatenate([ref, np.full(1 << steps, np.inf)])
        self._start = start

    def _buckets(self, x: np.ndarray, spot: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Each value's bucket, written to ``out``; ``spot`` is scratch."""
        np.clip(x, self._lo, self._hi, out=spot)
        np.subtract(spot, self._lo, out=spot)
        np.multiply(spot, self._scale, out=spot)
        np.copyto(out, spot, casting="unsafe")
        return out

    def columns(self, keys: np.ndarray, spot: np.ndarray, at: np.ndarray, less: np.ndarray):
        """Write the table column of every finite key over ``keys``, a
        contiguous 1-D float array, through an intp view of it; ``spot``
        (float), ``at`` and ``less`` (intp) are scratch of the same
        length."""
        # Every index taken is in range, so mode="clip" changes none; it
        # spares take the bounds check and output copy of mode="raise".
        self._first.take(self._buckets(keys, spot, less), out=at, mode="clip")
        for half in self._halves:
            self._padded[half - 1 :].take(at, out=spot, mode="clip")
            np.less(spot, keys, out=less)
            if half > 1:
                less *= half
            at += less
        np.add(at, self._start, out=keys.view(np.intp))


def _table_columns(rank_index: list[_RankIndex], samples: np.ndarray) -> np.ndarray:
    """Log-table columns for samples of shape ``(..., p)``, written over
    ``samples`` (a C-contiguous float array) and returned as its intp view.

    ``rank_index`` holds one :class:`_RankIndex` per stream, a reference
    context's, shared by all the blocks of every ``run_many`` call that
    finds that context.
    """
    p = samples.shape[-1]
    rows = samples.reshape(-1, p, copy=False)
    n = min(_RANK_SLICE_ROWS, rows.shape[0])
    # Each slice is copied in transposed, so that every stream's keys are
    # contiguous, ranked in place into columns and copied back over the
    # slice, as integers. One set of buffers serves every slice and stream:
    # allocating them per slice raised the resident peak by several MB.
    buffer = np.empty((p, n))
    spot, at, less = np.empty(n), np.empty(n, np.intp), np.empty(n, np.intp)
    for lo in range(0, rows.shape[0], _RANK_SLICE_ROWS):
        rows_slice = rows[lo : lo + _RANK_SLICE_ROWS]
        n = rows_slice.shape[0]
        keys = buffer[:, :n]
        # Copied in by tiles of rows: a copy of the whole slice at once
        # writes each stream's row in one pass over the slice, p passes in
        # all, and took about three times as long.
        for tile in range(0, n, _TRANSPOSE_ROWS):
            keys[:, tile : tile + _TRANSPOSE_ROWS] = rows_slice[tile : tile + _TRANSPOSE_ROWS].T
        for i, stream in enumerate(rank_index):
            stream.columns(keys[i], spot[:n], at[:n], less[:n])
        rows_slice.view(np.intp)[...] = keys.view(np.intp).T
    return samples.view(np.intp)


class _StepIndex:
    """Ranks one value per stream against all p references in one search
    and gathers the CUSUM's log terms for those ranks from one table.

    Stream i's reference values r become the complex keys ``i + r j``,
    followed by one closing key ``i + inf j``, and the p streams' keys are
    laid end to end; numpy orders complex numbers by real part, then by
    imaginary part, so the keys ascend as built. Searching them for the
    sample ``i + z_i j`` finds every key of the streams before i, their
    closing keys included, then stream i's reference values strictly below
    ``z_i``, with ties and ``-0.0 == 0.0`` counted as ``ref.searchsorted``
    counts them; its closing key is never below a finite ``z_i``. The
    search thus returns ``offset_i + i + c_i``, the column of count
    ``c_i`` in stream i's block of the table of :func:`_log_table`, so one
    ``take`` along the columns gathers both log terms of all p streams,
    stacked as ``_Cusum.w`` is. Memory is O(N + p) for N reference values
    in all, besides the table, which is its context's (:class:`_References`).
    The index holds no per-call buffer and is never written after it is
    built: each caller passes its own query and terms.
    """

    def __init__(self, references: list[np.ndarray], logs: np.ndarray):
        sizes = np.array([ref.size for ref in references])
        keys = np.empty(sizes.sum() + sizes.size, dtype=complex)
        keys.real = np.repeat(np.arange(sizes.size), sizes + 1)
        keys.imag = np.concatenate([np.append(ref, np.inf) for ref in references])
        self._keys = keys
        self._logs = logs

    def log_terms(self, query: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """``log(mu)`` and ``log(1 - mu)`` for one finite sample, written to
        ``terms`` of shape ``(2, p)`` and returned. ``query`` holds the
        sample as the ``(p,)`` complex keys ``i + z_i j``."""
        at = self._keys.searchsorted(query)
        # Every column searched is in range, so mode="clip" changes none; it
        # spares take the bounds check and output copy of mode="raise".
        return self._logs.take(at, axis=1, out=terms, mode="clip")


class _References:
    """The checked, sorted in-control references of p streams and what
    ranking against them needs: one reference context.

    ``arrays`` holds the references as :func:`build_reference` returns
    them, and ``logs`` and ``starts`` the one log table of
    :func:`_log_table` over them. The batch path's per-stream
    :class:`_RankIndex` list (``rank_index``) and the monitor's
    :class:`_StepIndex` (``step_index``) are built on first use and kept,
    so every ``run_many`` call and every :class:`Monitor` that finds one
    context shares them. Nothing is written to a context after it is built
    (the lazy indexes aside), so monitors that share one may be stepped
    from different threads.

    Public entry points take plain references and find their context
    through :meth:`of`. It keeps one entry: float64 copies of the last
    references it was given and the context built from them: at p = 20 and
    s = 3000, 2.9 MB with the batch index, copies included, and 3.9 MB once
    a monitor has built the step index too. References equal to the copies
    bit for bit get that context back instead of a new one.
    """

    # ``of``'s one entry: (float64 copies of references, their context).
    _kept: tuple[list[np.ndarray], "_References"] | None = None

    def __init__(self, references, stream_count: int):
        if len(references) != stream_count:
            raise DimensionMismatchError(
                f"got {len(references)} references for {stream_count} streams"
            )
        self.arrays = [build_reference(ref) for ref in references]
        self.logs, self.starts = _log_table([ref.size for ref in self.arrays])

    @classmethod
    def of(cls, references, stream_count: int) -> "_References":
        """The context of ``references``, one array per stream.

        References that match the kept copies in count (``stream_count``),
        shapes and bits (so -0.0 is not 0.0) get the kept context: those
        bits already passed :func:`build_reference`, and a new context would
        hold the same arrays, table and indexes. Any others are checked and
        sorted into a new context, which replaces the kept entry.
        """
        plain = [np.asarray(ref, dtype=float) for ref in references]
        kept = cls._kept
        if kept is not None and len(kept[0]) == stream_count and _same_bits(plain, kept[0]):
            return kept[1]
        refs = cls(plain, stream_count)
        cls._kept = ([ref.copy() for ref in plain], refs)
        return refs

    @functools.cached_property
    def rank_index(self) -> list[_RankIndex]:
        return [_RankIndex(ref, start) for ref, start in zip(self.arrays, self.starts)]

    @functools.cached_property
    def step_index(self) -> _StepIndex:
        return _StepIndex(self.arrays, self.logs)


def _same_bits(arrays: list[np.ndarray], kept: list[np.ndarray]) -> bool:
    """Whether two lists of float64 arrays match in count, shapes and bits."""
    return len(arrays) == len(kept) and all(
        a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
        for a, b in zip(arrays, kept)
    )


class _Cusum:
    """W- and W+ of one run, or of a block of runs, advanced in place.

    The state ``w`` has shape ``(2, ..., p)``: ``w[0]`` is W- and ``w[1]``
    is W+, so each of the three update ufuncs runs once over both sides,
    writing into ``w`` with ``out=``. The allowance and the zero floor are
    0-d arrays, built once, which numpy does not have to convert on every
    call, and the two-sided statistics go to one buffer that is sorted in
    place; its top-r slice is a view made once. ``step`` is the only code
    that advances the recursion, resets included: given ``reset_at``, it
    zeroes the state of each run whose V reaches it.
    """

    __slots__ = ("w", "_minus", "_plus", "_allowance", "_zero", "_two", "_top", "_reset_at")

    def __init__(self, config: MonitorConfig, runs: tuple[int, ...] = (), reset_at=None):
        shape = (*runs, config.stream_count)
        self.w = np.zeros((2, *shape))
        self._minus, self._plus = self.w
        self._allowance = np.array(config.allowance)
        self._zero = np.zeros(())
        self._two = np.empty(shape)
        self._top = self._two[..., config.stream_count - config.top_r :]
        self._reset_at = reset_at

    def step(self, terms: np.ndarray):
        """Advance by one sample per run and return V.

        Args:
            terms: ``log(mu)`` and ``log(1 - mu)`` stacked as ``w`` is,
                shape ``(2, ..., p)``.

        Returns:
            V, the sum of the r largest two-sided statistics of each run,
            added in ascending order so that every path agrees bitwise.
        """
        w = self.w
        np.subtract(w, terms, out=w)
        np.subtract(w, self._allowance, out=w)
        np.maximum(w, self._zero, out=w)
        np.maximum(self._plus, self._minus, out=self._two)
        self._two.sort()
        v = np.add.reduce(self._top, -1)
        if self._reset_at is not None:
            fired = v >= self._reset_at
            # Few steps fire; count_nonzero tests that at a third of the
            # per-call cost of fired.any().
            if np.count_nonzero(fired):
                w[:, fired] = 0.0
        return v

    def two_sided(self) -> np.ndarray:
        """A fresh array of each stream's ``max(W+, W-)``, in stream order."""
        return np.maximum(self._plus, self._minus)


def _run_recursion(
    rank_index: list[_RankIndex],
    logs: np.ndarray,
    block: np.ndarray,
    config: MonitorConfig,
    reset_at: float | None = None,
    state: np.ndarray | None = None,
) -> np.ndarray:
    """Rank a block of runs and drive the CUSUM recursion over their time
    axis, every run from zeroed state or from ``state``.

    A block of fewer than ``_LOCKSTEP_WIDTH`` runs that is long enough is
    advanced as time chunks side by side (:func:`_advance_chunks`); the
    steps past its last whole chunk, and every other block, one time step
    at a time. Both give the same bits.

    Args:
        rank_index: One :class:`_RankIndex` per stream.
        logs: The log table the indexes' columns point into.
        block: Samples of shape ``(R, T, p)``, C-contiguous. Ranking
            writes each sample's table column over it through an intp view;
            each time step's log terms are gathered from ``logs`` at those
            columns, stacked as a ``_Cusum`` state is.
        config: Detection parameters.
        reset_at: If given, zero the state of each run whose V reaches it.
        state: If given, W- and W+ of shape ``(2, R, p)``, laid out as a
            ``_Cusum`` state is: each run starts from its slice, and the
            slice is overwritten with the run's end state.

    Returns:
        V of shape ``(R, T)``.
    """
    cols = _table_columns(rank_index, block)
    runs, steps = block.shape[:2]
    v = np.empty((runs, steps))
    cusum = _Cusum(config, (runs,), reset_at)
    if state is not None:
        cusum.w[...] = state
    chunks = min(_LOCKSTEP_WIDTH // runs, steps // _MIN_CHUNK)
    done = 0
    if chunks >= 2:
        done = chunks * (steps // chunks)
        cusum.w[...] = _advance_chunks(
            logs, cols[:, :done], v[:, :done], config, chunks, reset_at, cusum.w
        )
    _advance_steps(cusum, logs, cols[:, done:], v[:, done:])
    if state is not None:
        state[...] = cusum.w
    return v


def _advance_steps(cusum: _Cusum, logs: np.ndarray, cols: np.ndarray, v: np.ndarray):
    """Advance ``cusum`` one time step at a time through the table columns
    ``cols`` of shape ``(..., T, p)``, gathering each step's log terms from
    ``logs``, and write each step's V to ``v`` of shape ``(..., T)``."""
    terms = np.empty_like(cusum.w)
    # Indexing the time axis first costs less per step than ``v[..., t]``.
    v_at = np.moveaxis(v, -1, 0)
    for t, step_cols in enumerate(np.moveaxis(cols, -2, 0)):
        # Every column is in range, so mode="clip" changes none; it spares
        # take the bounds check and output copy of mode="raise".
        v_at[t] = cusum.step(logs.take(step_cols, axis=1, out=terms, mode="clip"))


def _advance_chunks(
    logs: np.ndarray, cols: np.ndarray, v: np.ndarray, config: MonitorConfig, chunks: int,
    reset_at: float | None, start: np.ndarray,
) -> np.ndarray:
    """Advance R runs from their entry state through their T steps as R x
    chunks time chunks of L = T / chunks steps, bit-identical to stepping
    them, in three passes.

    Args:
        logs: The log table.
        cols: Table columns of shape ``(R, T, p)``.
        v: V of shape ``(R, T)``, written for every step.
        config: Detection parameters.
        chunks: Chunks per run, from 2 to T, dividing T.
        reset_at: If given, zero the state of each run whose V reaches it.
        start: The runs' entry state, of shape ``(2, R, p)``.

    Returns:
        The runs' state after their last step, of shape ``(2, R, p)``.

    1. Every chunk runs from zeroed state, keeping its state after each of
       its first ``_STORED_STEPS`` steps.
    2. Every chunk runs from its predecessor's pass-1 end state (a run's
       first chunk from ``start``) until every chunk's state equals its
       stored state at the same step, or to the chunks' end.
    3. In chunk order, a chunk whose predecessor's true end state differs
       from its pass-2 entry is re-run from that true end to its own end,
       rewriting every V pass 2 wrote for it.

    A step's new state and V depend only on the old state and the step's
    terms, resets included. So a run's first chunk is exact after pass 2,
    where a chunk that met its stored state keeps pass 1's later V and end
    state; by induction, each later chunk is exact after pass 3.
    """
    runs, steps, p = cols.shape
    length = steps // chunks
    cols = cols.reshape(runs, chunks, length, p, copy=False)
    v = v.reshape(runs, chunks, length, copy=False)

    # Pass 1.
    side_by_side = _Cusum(config, (runs, chunks), reset_at)
    terms = np.empty_like(side_by_side.w)
    stored = min(length, _STORED_STEPS)
    states = np.empty((stored, 2, runs, chunks, p))
    for s in range(length):
        v[..., s] = side_by_side.step(logs.take(cols[..., s, :], axis=1, out=terms, mode="clip"))
        if s < stored:
            states[s] = side_by_side.w
    # States are compared bit for bit, as integers.
    state_bits = states.view(np.int64)

    # Pass 2, after which ``end`` holds each chunk's end state from its
    # pass-2 entry.
    end = side_by_side.w.copy()
    entry = np.empty_like(end)
    entry[:, :, 0] = start
    entry[:, :, 1:] = end[:, :, :-1]
    side_by_side.w[...] = entry
    for s in range(length):
        v[..., s] = side_by_side.step(logs.take(cols[..., s, :], axis=1, out=terms, mode="clip"))
        if s < stored and (side_by_side.w.view(np.int64) == state_bits[s]).all():
            break
    else:
        end = side_by_side.w

    # Pass 3; ``true`` carries each chunk's true end state to the next.
    true = _Cusum(config, (runs,), reset_at)
    true.w[...] = end[:, :, 0]
    for c in range(1, chunks):
        if (true.w.view(np.int64) == entry[:, :, c].view(np.int64)).all():
            true.w[...] = end[:, :, c]
        else:
            _advance_steps(true, logs, cols[:, c], v[:, c])
    return true.w


class Monitor:
    """Streaming detector over p standardized streams.

    A monitor holds the step index of its references' context (the one
    :meth:`_References.of` keeps for them), its own query and log-term
    buffers, the per-stream CUSUM state, and a sample counter. The context
    is only read, so monitors that share one may be stepped from different
    threads; each monitor itself is stepped from one thread at a time. One
    private kernel, ``_advance``, consumes one checked sample and returns V
    as a float: it ranks the sample, gathers its log terms from one table
    and steps the CUSUM. ``step`` checks one sample,
    advances and reports the result; ``run`` checks a batch once and
    advances it one row at a time, so it is bit-identical to the equivalent
    sequence of ``step`` calls. Batches of many runs at a time go through
    :func:`run_many`.

    Time indices are 0-based: the first sample consumed after construction
    (or :meth:`reset`) has ``time_index == 0``.
    """

    # Whether ``step`` checks its sample. ``pipeline.online_monitor`` turns
    # it off on the monitor it owns, which only ever sees rows it has
    # checked itself: a 1-D float array of p finite values.
    _checks_samples = True

    def __init__(self, references, config: MonitorConfig):
        self.config = config
        self._index = _References.of(references, config.stream_count).step_index
        # The sample as the step index searches it, the complex keys
        # ``i + z_i j``, whose imaginary parts ``_advance`` overwrites
        # through a view made once, and the log terms gathered for it.
        self._query = np.arange(config.stream_count, dtype=complex)
        self._query_imag = self._query.imag
        self._terms = np.empty((2, config.stream_count))
        self._cusum = _Cusum(config)
        self._time = 0

    def reset(self) -> None:
        """Zero the CUSUM state and the sample counter."""
        self._cusum.w.fill(0.0)
        self._time = 0

    def _advance(self, sample: np.ndarray) -> float:
        """Advance the CUSUM by one checked sample, a 1-D float array of p
        finite values, and return V; the sample counter is left as is."""
        self._query_imag[...] = sample
        return float(self._cusum.step(self._index.log_terms(self._query, self._terms)))

    def step(self, sample) -> MonitorOutput:
        """Consume one standardized sample of shape ``(p,)``."""
        if self._checks_samples:
            sample = _check_samples(sample, self.config.stream_count, 1)
        v = self._advance(sample)
        out = MonitorOutput(
            time_index=self._time,
            global_stat=v,
            alarm=v >= self.config.threshold,
            local_stats=self._cusum.two_sided(),
        )
        self._time += 1
        return out

    def run(self, samples) -> MonitorTrace:
        """Consume a batch of shape ``(T, p)``; equivalent to T ``step`` calls."""
        arr = _check_samples(samples, self.config.stream_count, 2)
        v = np.array([self._advance(row) for row in arr])
        self._time += arr.shape[0]
        return MonitorTrace(global_stats=v, alarms=v >= self.config.threshold)


def run_many(
    references, config: MonitorConfig, runs, *, reset_on_alarm: bool = False,
    state: np.ndarray | None = None,
) -> np.ndarray:
    """Global-statistic traces for many runs advanced in lockstep.

    Runs are copied one at a time into an ``(R, T, p)`` block of at most
    ``_BLOCK_BYTES``; each full block, and the last part-filled one, is
    ranked and advanced by :func:`_run_recursion` and then released, so
    at most one block is alive. A block of fewer
    than ``_LOCKSTEP_WIDTH`` runs, such as the one run of a false-alarm-rate
    check, advances as time chunks side by side, with the same result.

    Args:
        references: In-control histories, one per stream. Histories equal
            bit for bit to those of the previous call reuse its reference
            context and ranking structures (:meth:`_References.of`).
        config: Detection parameters.
        runs: Iterable of equal-shaped ``(T, p)`` arrays, such as a
            generator or an array of shape ``(R, T, p)``.
        reset_on_alarm: Zero a run's state after each alarm at
            ``config.threshold``, as :meth:`Monitor.reset` would.
        state: ``None`` starts every run from zeroed state. Otherwise a
            float64 array of shape ``(2, R, p)`` holding each run's W- and
            W+ (``state[0]`` and ``state[1]``, as ``_Cusum.w`` lays them
            out): run r starts from ``state[:, r]``, and once every run
            has been advanced, its end state overwrites that slice. A run
            advanced over samples ``[0, a)`` and then, from the state so
            written, over ``[a, T)`` gets the V and end state of one call
            over ``[0, T)``, bit for bit. ``state`` is left as it was when
            the call raises.

    Returns:
        V traces of shape ``(R, T)``, bit-identical to running each run
        through its own :class:`Monitor`.

    Raises:
        DimensionMismatchError: A run is not ``(T, p)`` with the first run's
            T, or ``state`` is not ``(2, R, p)``.
        EmptyInputError: There is no run, or T is 0.
        NonFiniteValueError: A run holds NaN or infinity.
    """
    if state is not None and (state.ndim != 3 or state.shape[::2] != (2, config.stream_count)):
        raise DimensionMismatchError(
            f"state must have shape (2, R, {config.stream_count}), got {state.shape}"
        )
    refs = _References.of(references, config.stream_count)
    # Taken before the first block is allocated: built after it, the
    # indexes made a one-run call of 3000 samples at p = 20 about 1.2 ms
    # slower (7.7 against 6.5 ms, timeit on one core of a 2-vCPU x86 box),
    # though ranking does the same work.
    rank_index, logs = refs.rank_index, refs.logs
    reset_at = config.threshold if reset_on_alarm else None
    # The runs advance from, and write their end state into, a copy, which
    # goes to ``state`` only once every run has passed its checks.
    end = None if state is None else np.array(state, dtype=float)
    traces, shape, block, filled, done = [], None, None, 0, 0

    def advance(block):
        # The block's runs follow the ``done`` runs of the earlier blocks.
        part = None if end is None else end[:, done : done + block.shape[0]]
        return _run_recursion(rank_index, logs, block, config, reset_at, part)

    for index, run in enumerate(runs):
        run = _check_samples(run, config.stream_count, 2)
        if end is not None and index == end.shape[1]:
            raise DimensionMismatchError(f"state holds {index} runs, got more")
        if shape is None:
            shape, capacity = run.shape, max(1, _BLOCK_BYTES // run.nbytes)
        elif run.shape != shape:
            raise DimensionMismatchError(
                f"run {index} has shape {run.shape}, expected {shape}"
            )
        if block is None:
            # A fresh block for each batch of runs: pages past the last
            # run filled are never touched, and the previous block's pages
            # have been returned rather than kept resident while it fills.
            block = np.empty((capacity, *shape))
        block[filled] = run
        filled += 1
        if filled == capacity:
            traces.append(advance(block))
            block, filled, done = None, 0, done + filled
    if shape is None:
        raise EmptyInputError("no runs")
    if end is not None and done + filled != end.shape[1]:
        raise DimensionMismatchError(f"state holds {end.shape[1]} runs, got {done + filled}")
    if filled:
        traces.append(advance(block[:filled]))
    # Released before the traces are joined, so that the join does not add
    # to the peak.
    block = None
    if end is not None:
        state[...] = end
    return np.concatenate(traces)


class _LazyTraces:
    """V traces of many runs, each simulated only as far as a question needs.

    Built over plain references, a config and ``rows(i, start, count)``,
    which returns run i's ``count`` samples from ``start`` on, shape
    ``(count, p)``, as a calibration source does; draws of one run over
    adjacent spans must join into the draw over both. Run i is first
    simulated to ``min(prefix[i], caps[i])`` samples, and ``extend``
    resumes runs to twice their length, at most their cap: each run keeps
    the CUSUM state its last draw ended in, and ``run_many`` (``state``)
    carries on from it over the new samples only, with the bits of a run
    simulated in one draw. Every draw is one call of the module's
    ``run_many`` over the runs drawn over one span, all sharing the one
    kept context of the references. Calibration asks
    about in-control run lengths (:mod:`faultmon.calibrate`); training
    (:func:`faultmon.pipeline._detect_runs`) asks for each fault run's
    trace through its classification point.

    Row i of ``traces`` holds run i's trace over its first
    ``simulated[i]`` samples and ``-inf`` after them, so the first
    crossing of any threshold (``first_crossings``) lies in the simulated
    part. ``draws`` and ``rows`` count the runs drawn and the samples
    simulated so far; each sample is simulated once, so ``rows`` is the
    sum of ``simulated``.

    Raises:
        DimensionMismatchError: A draw is not exactly ``count`` samples.
    """

    def __init__(self, references, config, rows, prefix, caps):
        self._references, self._config, self._draw_rows = list(references), config, rows
        self.caps = np.asarray(caps)
        self.traces = np.empty((self.caps.size, 0))
        self.simulated = np.zeros(self.caps.size, dtype=int)
        # Each run's W- and W+ where its last draw ended, laid out as
        # ``run_many``'s ``state``.
        self._state = np.zeros((2, self.caps.size, config.stream_count))
        self.draws = self.rows = 0
        self._simulate(np.arange(self.caps.size), np.minimum(prefix, self.caps))

    def _simulate(self, runs: np.ndarray, stops: np.ndarray) -> None:
        """Simulate each of ``runs`` from its simulated length to its entry
        of ``stops``."""
        starts = self.simulated[runs]
        for start in np.unique(starts).tolist():
            for stop in np.unique(stops[starts == start]).tolist():
                self._draw(runs[(starts == start) & (stops == stop)], start, stop)

    def _draw(self, group: np.ndarray, start: int, stop: int) -> None:
        """Simulate ``group``, runs simulated to ``start``, on to ``stop``
        in one ``run_many`` call."""
        count = stop - start
        drawn = (self._draw_rows(i, start, count) for i in group.tolist())
        state = self._state[:, group]
        block = run_many(self._references, self._config, drawn, state=state)
        if block.shape[1] != count:
            raise DimensionMismatchError(
                f"rows returned {block.shape[1]} samples per run, expected {count}"
            )
        if stop > self.traces.shape[1]:
            wider = np.full((self.caps.size, stop), -np.inf)
            wider[:, : self.traces.shape[1]] = self.traces
            self.traces = wider
        self.traces[group, start:stop] = block
        self._state[:, group] = state
        self.simulated[group] = stop
        self.draws += group.size
        self.rows += group.size * count

    def extend(self, runs: np.ndarray) -> None:
        """Resume ``runs`` to twice their length or their cap."""
        self._simulate(runs, np.minimum(2 * self.simulated[runs], self.caps[runs]))

    def first_crossings(self, threshold: float, since=None) -> np.ndarray:
        """Each run's first simulated sample with V >= ``threshold``, -1
        for a run without one; with ``since``, one entry per run, the
        first at or after that run's entry."""
        crossed = self.traces >= threshold
        if since is not None:
            crossed &= np.arange(self.traces.shape[1]) >= since[:, np.newaxis]
        return np.where(crossed.any(axis=1), crossed.argmax(axis=1), -1)
