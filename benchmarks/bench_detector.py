"""Detector layer micro-benchmarks (pytest-benchmark).

Run with ``python -m pytest benchmarks/bench_detector.py`` from the
repository root, with faultmon installed or ``PYTHONPATH=src``. The file
name does not match ``test_*.py``, so the unit-test run skips it. Record
the BLAS thread setting (``OPENBLAS_NUM_THREADS``) with any numbers.

Sizes follow the benchmark corpus: p = 20 streams with s = 3000 reference
values each. The ranking blocks are the three batch shapes that
``run_many``'s block budget (``detector._BLOCK_BYTES``, 80 MB) gives the
system: 240 runs of 1000 samples (training's first block: every
training run to onset 500 + patience 300 + 200), 125 replications of
4000 (a full threshold-calibration block) and one replication of 3000
(one false-alarm-rate call). ``test_references_build`` times the
reference context that a call with new plain references builds; calls
whose references equal the last call's reuse it, so the ``run_many``
cases here time every round after the first without it. ``run_many``
holds each block as one ``(R, T, p)`` array, ranked in place into
log-table columns. A block of fewer than ``detector._LOCKSTEP_WIDTH``
runs, such as the false-alarm-rate run, advances as time chunks side by
side in three fixed passes; the ``test_run_many`` cases time one such
block and one wide block. ``test_run_many_shifted_run`` times the
chunks' worst case, a run whose chunks never meet their speculation,
against stepping the same run one time step at a time.
"""

import itertools

import numpy as np
import pytest

from faultmon import detector

STREAMS = 20
REFERENCE_SIZE = 3000


@pytest.fixture(scope="module")
def references():
    rng = np.random.default_rng(0)
    return [detector.build_reference(rng.normal(size=REFERENCE_SIZE))
            for _ in range(STREAMS)]


@pytest.fixture(scope="module")
def context(references):
    """The reference context that ``run_many`` builds from ``references``:
    the log table and, on first use, one bucket index per stream."""
    return detector._References(references, STREAMS)


@pytest.fixture(scope="module")
def log_table(context):
    return context.logs, context.starts


@pytest.fixture(scope="module")
def rank_index(context):
    return context.rank_index


def test_references_build(benchmark, references):
    """A cold reference context, as a public call with new plain references
    builds it: checking and sorting the references, the log table and the
    batch path's bucket index of every stream."""
    benchmark.pedantic(
        lambda: detector._References(references, STREAMS).rank_index, rounds=20
    )


def test_monitor_step(benchmark, references):
    """One closed-loop sample through ``Monitor.step``.

    Each call takes the next row of a pre-drawn ``(4096, 20)`` block, in a
    cycle. A repeated sample would rank the same keys every call, keeping
    its search path through the reference index in cache and its branches
    predicted, which a live stream does not, and so would read faster than
    the stream runs. The cycling adds ``next`` on an iterator to each call.
    """
    monitor = detector.Monitor(references, detector.MonitorConfig(1.3, 4, STREAMS))
    rows = itertools.cycle(np.random.default_rng(1).normal(size=(4096, STREAMS)))
    benchmark(lambda: monitor.step(next(rows)))


@pytest.mark.parametrize(
    "shape", [(240, 1000, STREAMS), (125, 4000, STREAMS), (1, 3000, STREAMS)], ids=str
)
def test_cdf_estimates_block(benchmark, rank_index, shape):
    """Per-stream ranking of a lockstep block through the bucket index.

    The index is built once, outside the timing, as a reference context
    builds it once for all the blocks of every ``run_many`` call given that
    context (about 1 ms for these 20 streams).
    Ranking writes each sample's log-table column over the block, so each
    round ranks a fresh copy of the samples; the copy is made outside the
    timing.
    """
    block = np.random.default_rng(2).normal(size=shape)
    benchmark.pedantic(
        detector._table_columns,
        setup=lambda: ((rank_index, block.copy()), {}),
        rounds=5,
    )


def test_run_many_streamed(benchmark, references):
    """One full calibration block, 125 runs of 4000, handed to ``run_many``
    one run at a time by a generator: copying into the block, ranking and
    the recursion."""
    runs = np.random.default_rng(4).normal(size=(125, 4000, STREAMS))
    config = detector.MonitorConfig(1.3, 4, STREAMS)
    benchmark.pedantic(
        lambda: detector.run_many(references, config, (run for run in runs)), rounds=3
    )


@pytest.mark.parametrize(
    "shape, threshold",
    [((1, 3000, STREAMS), 35.970703125), ((60, 3500, STREAMS), None)],
    ids=["far-run-with-resets", "evaluate-block"],
)
def test_run_many(benchmark, references, shape, threshold):
    """``run_many`` end to end on a narrow block and a wide one: the one
    run of a false-alarm-rate call, reset after each alarm at the
    calibrated threshold of the benchmark's acceptance point, and the
    60 test runs of 3500 that ``evaluate`` scores on benchmark seed 0.
    """
    runs = np.random.default_rng(6).normal(size=shape)
    config = detector.MonitorConfig(1.3, 4, STREAMS)
    if threshold is not None:
        config = config.with_threshold(threshold)
    benchmark.pedantic(
        lambda: detector.run_many(
            references, config, runs, reset_on_alarm=threshold is not None
        ),
        rounds=20 if shape[0] == 1 else 3,
    )


@pytest.mark.parametrize("width", [detector._LOCKSTEP_WIDTH, 1], ids=["chunks", "stepping"])
def test_run_many_shifted_run(benchmark, references, monkeypatch, width):
    """``run_many`` on the narrow block whose time chunks never meet their
    speculation: one run of 3500 with 3 of the 20 streams shifted by +1
    from t = 500 and no resets, as a faulty run would be. ``chunks`` is the
    detector as it is; ``stepping`` advances the same run one time step at
    a time (``_LOCKSTEP_WIDTH`` = 1), the cost the chunks are held to.
    """
    runs = np.random.default_rng(7).normal(size=(1, 3500, STREAMS))
    runs[:, 500:, :3] += 1.0
    config = detector.MonitorConfig(1.3, 4, STREAMS)
    monkeypatch.setattr(detector, "_LOCKSTEP_WIDTH", width)
    benchmark.pedantic(lambda: detector.run_many(references, config, runs), rounds=20)


@pytest.mark.parametrize(
    "shape, threshold",
    [((1, 3000, STREAMS), 35.970703125), ((125, 4000, STREAMS), None)],
    ids=["far-run-with-resets", "calibration-block"],
)
def test_run_recursion(benchmark, rank_index, log_table, shape, threshold):
    """Ranking, the per-step gather of log terms and the CUSUM recursion
    of one block: the one run of a false-alarm-rate call, reset after each
    alarm at the calibrated threshold of the benchmark's acceptance point,
    and a full calibration block without resets.

    Subtract ``test_cdf_estimates_block`` at the same shape for the
    recursion alone. Each round ranks a fresh copy of the samples, made
    outside the timing; the recursion makes the block's zeroed state.
    """
    samples = np.random.default_rng(5).normal(size=shape)
    config = detector.MonitorConfig(1.3, 4, STREAMS)
    logs, _ = log_table

    def setup():
        return (rank_index, logs, samples.copy(), config, threshold), {}

    benchmark.pedantic(detector._run_recursion, setup=setup, rounds=5 if shape[0] == 1 else 2)


@pytest.mark.parametrize("runs", [(), (240,), (125,)], ids=str)
def test_cusum_step(benchmark, runs):
    """One kernel step over 20 streams at top-r 4: one sample, a training
    block, a calibration block."""
    config = detector.MonitorConfig(1.3, 4, STREAMS)
    cusum = detector._Cusum(config, runs)
    mu = np.random.default_rng(3).uniform(size=(*runs, STREAMS))
    terms = np.stack([np.log(mu), np.log1p(-mu)])
    benchmark(cusum.step, terms)
