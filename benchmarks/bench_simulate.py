"""Sample generation micro-benchmarks (pytest-benchmark).

Run with ``python -m pytest benchmarks/bench_simulate.py`` from the
repository root, with faultmon installed or ``PYTHONPATH=src``. The file
name does not match ``test_*.py``, so the unit-test run skips it. Record
the BLAS thread setting (``OPENBLAS_NUM_THREADS``) with any numbers.

Each case is one draw of a calibration source, the call the threshold
search makes once per replication draw:

- ``test_process_draw[400]``: 400 rows of one replication of the
  20-stream process of seed 0, the prefix every replication of the
  ARL0 = 200 search is first simulated to. A draw derives the 20 stream
  keys in one pass and re-keys one Philox per stream; most of what is
  left is the student-t and normal quantile transforms.
- ``test_process_draw[3000]``: 3000 rows, one false-alarm-rate run.
- ``test_bootstrap_draw``: 400 rows resampled by ``bootstrap_source``
  from a 3000-row pool, one keystream per draw.
"""

import numpy as np
import pytest

from faultmon import calibrate, simulate

REPLICATION = 7


@pytest.mark.parametrize("rows", [400, 3000])
def test_process_draw(benchmark, rows):
    source = simulate.in_control_source(
        simulate.default_process_spec(0), run_offset=simulate.CALIBRATION_RUN_OFFSET
    )
    draw = benchmark(source, REPLICATION, 0, rows)
    assert draw.shape == (rows, 20)


def test_bootstrap_draw(benchmark):
    pool = np.random.default_rng(0).normal(size=(3000, 20))
    source = calibrate.bootstrap_source(pool, seed=0)
    draw = benchmark(source, REPLICATION, 0, 400)
    assert draw.shape == (400, 20)
