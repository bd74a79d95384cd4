"""Detector layer micro-benchmarks (pytest-benchmark).

Run with ``python -m pytest benchmarks/bench_detector.py`` from the
repository root, with faultmon installed or ``PYTHONPATH=src``. The file
name does not match ``test_*.py``, so the unit-test run skips it. Record
the BLAS thread setting (``OPENBLAS_NUM_THREADS``) with any numbers.

Sizes follow the benchmark corpus: p = 20 streams with s = 3000 reference
values each. The ranking blocks are the three batch shapes the system
ranks: 40 runs of 3500 samples (a ``_detect_runs`` chunk in training and
evaluation), 125 replications of 4000 (a threshold-calibration chunk) and
one replication of 3000 (one false-alarm-rate call).
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
    "shape", [(40, 3500, STREAMS), (125, 4000, STREAMS), (1, 3000, STREAMS)], ids=str
)
def test_cdf_estimates_block(benchmark, references, shape):
    """Per-stream ranking of a lockstep block."""
    block = np.random.default_rng(2).normal(size=shape)
    sizes = np.array([ref.size for ref in references], dtype=float)
    benchmark(detector._cdf_estimates, references, sizes, block)


@pytest.mark.parametrize("shape", [(20,), (40, 20), (125, 20)], ids=str)
def test_top_r_sum(benchmark, shape):
    """Top-4 sum over the stream axis: one sample, a lockstep chunk, a
    calibration chunk."""
    stats = np.random.default_rng(3).exponential(size=shape)
    benchmark(detector._top_r_sum, stats, 4)
