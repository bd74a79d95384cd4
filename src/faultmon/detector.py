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
too.

A step's cost is mostly numpy's per-call overhead, so it costs about the
same for one run as for 16. A narrow block, of fewer runs than
``_LOCKSTEP_WIDTH`` (a false-alarm-rate check advances one), is therefore
advanced as time chunks side by side (``_advance_chunks``), exactly, in
three passes:

1. Every chunk runs from zeroed state, keeping its first states.
2. Every chunk runs again from its predecessor's pass-1 end state (a
   run's first chunk from zeroed state) until all meet their kept ones.
3. In chunk order, a chunk whose predecessor's true end state is not its
   pass-2 entry is re-run from that true end.

A step's new state and V depend only on the old state and the step's log
terms, resets included, so the passes give the bits of stepping, and no
chunk advances more than three times: a lone run whose chunks never meet
their kept states costs about 1.1 times stepping it. The steps past the
last whole chunk, and every wider block, advance one time step at a time.

Ranking picks its method by the path. A monitor ranks each sample's p
values through one index of all references (``_StepIndex``): one vectorized
search per sample instead of p separate ones, whose per-call overhead
dominates when each searches a single key. Each stream's reference values
are complex keys ``stream + value j``, and the sample's value for stream i
is searched as ``i + z_i j``; numpy orders complex numbers by real part,
then imaginary part, so that one search ranks every stream within its own
block. Its result is the sample's column in one two-row table, built
once per monitor, whose rows hold ``log(mu)`` and ``log(1 - mu)`` for every
count c in 0..s of every stream: a step gathers both log terms there with
one ``take`` instead of dividing and taking two logs per sample. The table
holds the logs of the same estimate ``(c + 1.0) / (s + 2.0)``, so the step
stays bit-identical to the batch path, which takes the logs of a whole
block at once.

``Monitor._advance`` is the whole per-sample kernel: rank, gather, CUSUM
step, V as a Python float. ``Monitor.step`` checks its sample, advances and
wraps V in a ``MonitorOutput``; ``Monitor.run`` checks its batch once and
advances row by row. ``pipeline.online_monitor`` steps each row it has
standardized and checked itself, so its monitor skips the check.

``run_many`` ranks a batch through one bucket index per stream
(``_RankIndex``), built once per call and shared by all its blocks. A
uniform grid over the reference narrows each key to the few reference
values of its bucket, and a fixed-width branchless search counts those
below the key, a few whole-array steps per stream instead of a binary
search per value, whose mispredicted branches dominate when a stream has
thousands of keys. The grid map is monotone, so the count is the exact
number of reference values strictly below each observation, as in
``_StepIndex``, and both paths stay bit-identical.

``run_many`` is the only batch path, and it owns the lockstep block: it
checks runs as it copies them, one at a time, into the first half of a
``(2, R, T, p)`` array of at most ``_BLOCK_BYTES`` per half, so callers
may pass generators and keep no corpus. ``_run_recursion`` ranks that
half in place; the logs of the estimates then fill both halves, stacked
as the state is, and the recursion advances the block from zeroed state,
reading one time step of both halves as a single view.
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
    # count_nonzero tests this at about half the per-call cost of .all(),
    # as in standardize.apply; Monitor.step runs it once per sample.
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise NonFiniteValueError("samples contain NaN or infinity")
    return arr


# Rows per slice in ``_cdf_estimates``. Ranking a stream's keys makes some
# twenty numpy calls whatever their number, so long slices amortize the
# calls' overhead: slices of 4096 rows ranked a fifth slower, and of 8192
# about 5% slower. The slice's (p, rows) transposed copy (5 MB at p = 20)
# and the kernel's three row-sized buffers are the only memory ranking
# adds. A slice is copied in by tiles of ``_TRANSPOSE_ROWS`` rows.
_RANK_SLICE_ROWS = 1 << 15
_TRANSPOSE_ROWS = 1024

# Bytes of each half of the block of runs that ``run_many`` ranks and
# advances in lockstep, about 125 runs of 4000 samples over 20 streams. The
# recursion pays numpy's per-call overhead once per time step for the whole
# block, so wide blocks amortize it. The block is one array of two halves:
# the first holds the samples, then mu, then log(mu); the second
# log(1 - mu). They are the only block-sized memory alive.
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


class _RankIndex:
    """Counts the values of one sorted reference strictly below each of
    many keys, the exact integer ``ref.searchsorted(keys, side="left")``
    gives, and maps each count c to the estimate ``(c + 1.0) / (s + 2.0)``.

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
    and the search then spans the whole reference. Memory is O(s);
    ``run_many`` builds one per stream per call.
    """

    __slots__ = ("_lo", "_hi", "_scale", "_first", "_padded", "_halves", "_mu")

    def __init__(self, ref: np.ndarray):
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
        self._mu = (np.arange(size + 1) + 1.0) / (size + 2.0)

    def _buckets(self, x: np.ndarray, spot: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Each value's bucket, written to ``out``; ``spot`` is scratch."""
        np.clip(x, self._lo, self._hi, out=spot)
        np.subtract(spot, self._lo, out=spot)
        np.multiply(spot, self._scale, out=spot)
        np.copyto(out, spot, casting="unsafe")
        return out

    def estimate(self, keys: np.ndarray, spot: np.ndarray, at: np.ndarray, less: np.ndarray):
        """Write the estimate of every finite key over ``keys``, a contiguous
        1-D float array; ``spot`` (float), ``at`` and ``less`` (intp) are
        scratch of the same length."""
        # Every index taken is in range, so mode="clip" changes none; it
        # spares take the bounds check and output copy of mode="raise".
        self._first.take(self._buckets(keys, spot, less), out=at, mode="clip")
        for half in self._halves:
            self._padded[half - 1 :].take(at, out=spot, mode="clip")
            np.less(spot, keys, out=less)
            if half > 1:
                less *= half
            at += less
        self._mu.take(at, out=keys, mode="clip")


def _cdf_estimates(rank_index: list[_RankIndex], samples: np.ndarray) -> np.ndarray:
    """Smoothed empirical CDF values for samples of shape ``(..., p)``,
    written over ``samples`` (a C-contiguous float array), which is returned.

    ``rank_index`` holds one :class:`_RankIndex` per stream, built once per
    call of ``run_many`` and shared by all its blocks.
    """
    p = samples.shape[-1]
    rows = samples.reshape(-1, p, copy=False)
    n = min(_RANK_SLICE_ROWS, rows.shape[0])
    # Each slice is copied in transposed, so that every stream's keys are
    # contiguous, ranked in place and copied back over the slice. One set
    # of buffers serves every slice and stream: allocating them per slice
    # raised the resident peak by several MB.
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
            stream.estimate(keys[i], spot[:n], at[:n], less[:n])
        rows_slice[...] = keys.T
    return samples


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
    ``c_i`` in stream i's block of a ``(2, N + p)`` table whose rows hold
    ``log(mu)`` and ``log(1 - mu)`` at ``mu = (c + 1.0) / (s_i + 2.0)`` for
    every c in 0..s_i, so one ``take`` along the columns gathers both log
    terms of all p streams, stacked as ``_Cusum.w`` is. Memory is O(N + p)
    for N reference values in all.
    """

    def __init__(self, references: list[np.ndarray]):
        sizes = np.array([ref.size for ref in references])
        keys = np.empty(sizes.sum() + sizes.size, dtype=complex)
        keys.real = np.repeat(np.arange(sizes.size), sizes + 1)
        keys.imag = np.concatenate([np.append(ref, np.inf) for ref in references])
        self._keys = keys
        # One sample's keys; step writes z into the imaginary parts through
        # a view made once.
        self._query = np.arange(sizes.size, dtype=complex)
        self._query_imag = self._query.imag
        counts = np.concatenate([np.arange(size + 1) for size in sizes])
        mu = (counts + 1.0) / np.repeat(sizes + 2.0, sizes + 1)
        self._logs = np.empty((2, mu.size))
        np.log(mu, out=self._logs[0])
        np.log(1.0 - mu, out=self._logs[1])
        # The sample's log terms, stacked as ``_Cusum.w`` is; each step
        # overwrites them.
        self._terms = np.empty((2, sizes.size))

    def log_terms(self, sample: np.ndarray) -> np.ndarray:
        """``log(mu)`` and ``log(1 - mu)`` for one finite sample of shape
        ``(p,)``, as one ``(2, p)`` array that the next call overwrites."""
        self._query_imag[...] = sample
        at = self._keys.searchsorted(self._query)
        # Every column searched is in range, so mode="clip" changes none; it
        # spares take the bounds check and output copy of mode="raise".
        return self._logs.take(at, axis=1, out=self._terms, mode="clip")


class _Cusum:
    """W- and W+ of one run, or of a block of runs, advanced in place.

    The state ``w`` has shape ``(2, ..., p)``: ``w[0]`` is W- and ``w[1]``
    is W+, so each of the three update ufuncs runs once over both sides,
    writing into ``w`` with ``out=``. The allowance and the zero floor are
    0-d arrays, built once, which numpy does not have to convert on every
    call, and the two-sided statistics go to one buffer that is sorted in
    place; its top-r slice is a view made once. ``step`` is the only code
    that advances the recursion, resets included.
    """

    __slots__ = ("w", "_minus", "_plus", "_allowance", "_zero", "_two", "_top")

    def __init__(self, config: MonitorConfig, runs: tuple[int, ...] = ()):
        shape = (*runs, config.stream_count)
        self.w = np.zeros((2, *shape))
        self._minus, self._plus = self.w
        self._allowance = np.array(config.allowance)
        self._zero = np.zeros(())
        self._two = np.empty(shape)
        self._top = self._two[..., config.stream_count - config.top_r :]

    def step(self, terms: np.ndarray, reset_at: float | None = None):
        """Advance by one sample per run and return V.

        Args:
            terms: ``log(mu)`` and ``log(1 - mu)`` stacked as ``w`` is,
                shape ``(2, ..., p)``.
            reset_at: If given, zero the state of each run whose V reaches it.

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
        if reset_at is not None:
            fired = v >= reset_at
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
    block: np.ndarray,
    config: MonitorConfig,
    reset_at: float | None = None,
) -> np.ndarray:
    """Rank a block of runs and drive the CUSUM recursion over their time
    axis, every run from zeroed state.

    A block of fewer than ``_LOCKSTEP_WIDTH`` runs that is long enough is
    advanced as time chunks side by side (:func:`_advance_chunks`); the
    steps past its last whole chunk, and every other block, one time step
    at a time. Both give the same bits.

    Args:
        block: Shape ``(2, R, T, p)`` with samples in ``block[0]``, whose
            two halves are each C-contiguous. Ranking writes mu over
            ``block[0]``; then ``log(1 - mu)`` goes to ``block[1]`` and
            ``log(mu)`` over ``block[0]``, so the log terms of one time
            step are ``block[:, :, t]``, stacked as a ``_Cusum`` state is.
        config: Detection parameters.
        reset_at: If given, zero the state of each run whose V reaches it.

    Returns:
        V of shape ``(R, T)``.
    """
    mu = _cdf_estimates(rank_index, block[0])
    np.subtract(1.0, mu, out=block[1])
    np.log(block[1], out=block[1])
    np.log(mu, out=mu)
    runs, steps = block.shape[1:3]
    v = np.empty((runs, steps))
    cusum = _Cusum(config, (runs,))
    chunks = min(_LOCKSTEP_WIDTH // runs, steps // _MIN_CHUNK)
    done = 0
    if chunks >= 2:
        done = chunks * (steps // chunks)
        cusum.w[...] = _advance_chunks(
            block[:, :, :done], v[:, :done], config, chunks, reset_at
        )
    _advance_steps(cusum, block[:, :, done:], v[:, done:], reset_at)
    return v


def _advance_steps(cusum: _Cusum, terms: np.ndarray, v: np.ndarray, reset_at):
    """Advance ``cusum`` one time step at a time through ``terms`` of shape
    ``(2, ..., T, p)``, writing each step's V to ``v`` of shape ``(..., T)``."""
    # Indexing the time axis first costs less per step than ``v[..., t]``.
    v_at = np.moveaxis(v, -1, 0)
    for t, step_terms in enumerate(np.moveaxis(terms, -2, 0)):
        v_at[t] = cusum.step(step_terms, reset_at)


def _advance_chunks(
    terms: np.ndarray, v: np.ndarray, config: MonitorConfig, chunks: int, reset_at
) -> np.ndarray:
    """Advance R runs from zeroed state through their T steps as R x chunks
    time chunks of L = T / chunks steps, bit-identical to stepping them, in
    three passes.

    Args:
        terms: Log terms of shape ``(2, R, T, p)``.
        v: V of shape ``(R, T)``, written for every step.
        config: Detection parameters.
        chunks: Chunks per run, from 2 to T, dividing T.

    Returns:
        The runs' state after their last step, of shape ``(2, R, p)``.

    1. Every chunk runs from zeroed state, keeping its state after each of
       its first ``_STORED_STEPS`` steps.
    2. Every chunk runs from its predecessor's pass-1 end state (a run's
       first chunk from zeroed state) until every chunk's state equals its
       stored state at the same step, or to the chunks' end.
    3. In chunk order, a chunk whose predecessor's true end state differs
       from its pass-2 entry is re-run from that true end to its own end,
       rewriting every V pass 2 wrote for it.

    A step's new state and V depend only on the old state and the step's
    terms, resets included. So a run's first chunk is exact after pass 2,
    where a chunk that met its stored state keeps pass 1's later V and end
    state; by induction, each later chunk is exact after pass 3.
    """
    _, runs, steps, p = terms.shape
    length = steps // chunks
    terms = terms.reshape(2, runs, chunks, length, p, copy=False)
    v = v.reshape(runs, chunks, length, copy=False)

    # Pass 1.
    side_by_side = _Cusum(config, (runs, chunks))
    stored = min(length, _STORED_STEPS)
    states = np.empty((stored, 2, runs, chunks, p))
    for s in range(length):
        v[..., s] = side_by_side.step(terms[..., s, :], reset_at)
        if s < stored:
            states[s] = side_by_side.w
    # States are compared bit for bit, as integers.
    state_bits = states.view(np.int64)

    # Pass 2, after which ``end`` holds each chunk's end state from its
    # pass-2 entry.
    end = side_by_side.w.copy()
    entry = np.zeros_like(end)
    entry[:, :, 1:] = end[:, :, :-1]
    side_by_side.w[...] = entry
    for s in range(length):
        v[..., s] = side_by_side.step(terms[..., s, :], reset_at)
        if s < stored and (side_by_side.w.view(np.int64) == state_bits[s]).all():
            break
    else:
        end = side_by_side.w

    # Pass 3; ``true`` carries each chunk's true end state to the next.
    true = _Cusum(config, (runs,))
    true.w[...] = end[:, :, 0]
    for c in range(1, chunks):
        if (true.w.view(np.int64) == entry[:, :, c].view(np.int64)).all():
            true.w[...] = end[:, :, c]
        else:
            _advance_steps(true, terms[:, :, c], v[:, c], reset_at)
    return true.w


class Monitor:
    """Streaming detector over p standardized streams.

    A monitor owns the step index of its sorted references, the per-stream
    CUSUM state, and a sample counter. One private kernel, ``_advance``,
    consumes one checked sample and returns V as a float: it ranks the
    sample, gathers its log terms from one table and steps the CUSUM.
    ``step`` checks one sample, advances and reports the result; ``run``
    checks a batch once and advances it one row at a time, so it is
    bit-identical to the equivalent sequence of ``step`` calls. Batches
    replayed from zeroed state, many runs at a time, go through
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
        self._index = _StepIndex(_validate_references(references, config.stream_count))
        self._cusum = _Cusum(config)
        self._time = 0

    def reset(self) -> None:
        """Zero the CUSUM state and the sample counter."""
        self._cusum.w.fill(0.0)
        self._time = 0

    def _advance(self, sample: np.ndarray) -> float:
        """Advance the CUSUM by one checked sample, a 1-D float array of p
        finite values, and return V; the sample counter is left as is."""
        return float(self._cusum.step(self._index.log_terms(sample)))

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
    references, config: MonitorConfig, runs, *, reset_on_alarm: bool = False
) -> np.ndarray:
    """Global-statistic traces for many runs advanced in lockstep.

    Runs are copied one at a time into a ``(2, R, T, p)`` block of at most
    ``_BLOCK_BYTES`` per half; each full block, and the last part-filled
    one, is ranked and advanced from zeroed state by :func:`_run_recursion`
    and then released, so at most one block is alive. A block of fewer
    than ``_LOCKSTEP_WIDTH`` runs, such as the one run of a false-alarm-rate
    check, advances as time chunks side by side, with the same result.

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
    rank_index = [_RankIndex(ref) for ref in refs]
    reset_at = config.threshold if reset_on_alarm else None
    traces, shape, block, filled = [], None, None, 0
    for index, run in enumerate(runs):
        run = _check_samples(run, config.stream_count, 2)
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
            block = np.empty((2, capacity, *shape))
        block[0, filled] = run
        filled += 1
        if filled == capacity:
            traces.append(_run_recursion(rank_index, block, config, reset_at))
            block, filled = None, 0
    if shape is None:
        raise EmptyInputError("no runs")
    if filled:
        traces.append(_run_recursion(rank_index, block[:, :filled], config, reset_at))
    # Released before the traces are joined, so that the join does not add
    # to the peak.
    block = None
    return np.concatenate(traces)
