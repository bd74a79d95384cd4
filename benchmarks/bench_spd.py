"""SPD layer micro-benchmarks (pytest-benchmark).

Run with ``python -m pytest benchmarks/bench_spd.py`` from the repository
root, with faultmon installed or ``PYTHONPATH=src``. The file name does not
match ``test_*.py``, so the unit-test run skips it. Record the BLAS thread
setting (``OPENBLAS_NUM_THREADS``) with any numbers.

Sizes follow training on the benchmark corpus: the Karcher mean of 240
window covariances of p = 20 streams.
"""

import numpy as np
import pytest

from faultmon import spd

STREAMS = 20
MATRICES = 240


@pytest.fixture(scope="module")
def covariances():
    rng = np.random.default_rng(0)
    # Covariances of 100-row windows with per-window stream scales, so the
    # set is spread out rather than clustered at one point.
    windows = rng.normal(size=(MATRICES, 100, STREAMS))
    scales = rng.uniform(0.5, 2.0, size=(MATRICES, 1, STREAMS))
    return [spd.covariance(window) for window in windows * scales]


def test_karcher_mean(benchmark, covariances):
    """Affine-invariant Karcher mean of the training-sized set."""
    benchmark(spd.karcher_mean, covariances)
