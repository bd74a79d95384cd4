"""Detector layer micro-benchmarks (pytest-benchmark).

Run with ``python -m pytest benchmarks/bench_detector.py`` from the
repository root, with faultmon installed or ``PYTHONPATH=src``. The file
name does not match ``test_*.py``, so the unit-test run skips it. Record
the BLAS thread setting (``OPENBLAS_NUM_THREADS``) with any numbers.

Sizes follow the benchmark corpus: p = 20 streams with s = 3000 reference
values each. The ranking blocks are the three batch shapes that
``run_many``'s block budget (``detector._BLOCK_BYTES``, 80 MB) gives the
system: 142 runs of 3500 samples (a full block of training runs), 125
replications of 4000 (a full threshold-calibration block) and one
replication of 3000 (one false-alarm-rate call).
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
    "shape", [(142, 3500, STREAMS), (125, 4000, STREAMS), (1, 3000, STREAMS)], ids=str
)
def test_cdf_estimates_block(benchmark, references, shape):
    """Per-stream ranking of a lockstep block.

    Ranking writes its estimates over the block, so each round ranks a
    fresh copy of the samples; the copy is made outside the timing.
    """
    block = np.random.default_rng(2).normal(size=shape)
    benchmark.pedantic(
        detector._cdf_estimates,
        setup=lambda: ((references, block.copy()), {}),
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


@pytest.mark.parametrize("shape", [(20,), (142, 20), (125, 20)], ids=str)
def test_top_r_sum(benchmark, shape):
    """Top-4 sum over the stream axis: one sample, a training block, a
    calibration block."""
    stats = np.random.default_rng(3).exponential(size=shape)
    benchmark(detector._top_r_sum, stats, 4)
