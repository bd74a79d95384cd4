"""Threshold calibration micro-benchmarks (pytest-benchmark).

Run with ``python -m pytest benchmarks/bench_calibrate.py`` from the
repository root, with faultmon installed or ``PYTHONPATH=src``. The file
name does not match ``test_*.py``, so the unit-test run skips it. Record
the BLAS thread setting (``OPENBLAS_NUM_THREADS``) with any numbers.

The ``test_find_threshold`` cases search for ARL0 = 200 with 400
replications and the default cap of 4000 samples, at k = 1.3 and r = 4 on
the 20-stream process of seed 0:

- ``process``: the acceptance suite's criterion-4 point. References are
  3000 in-control samples; the source simulates the process afresh.
- ``bootstrap``: the default of ``faultmon train`` and ``faultmon
  calibrate`` without a process spec. The benchmark corpus's 6000-row
  in-control pool is split in half into references and a pool that the
  source resamples.

``test_far_check`` checks the found threshold's false-alarm rate on the
``process`` case, as an operator who chose it would.
"""

import numpy as np
import pytest

from faultmon import calibrate, detector, pipeline, simulate, standardize

SPEC = calibrate.CalibrationSpec(target_arl0=200.0, replications=400)
# The threshold ``find_threshold`` finds on the ``process`` case.
FAR_THRESHOLD = 35.970703125
FAR_CALLS = 45
FAR_LENGTH = 3000
# Disjoint from the search's replications.
FAR_OFFSET = simulate.CALIBRATION_RUN_OFFSET + 100_000


def _process_references(process):
    """The process's standardization and its 3000-sample references."""
    pool = simulate.generate_in_control(process, 3000)
    stats = standardize.fit_reference(pool)
    z = standardize.apply(pool, stats)
    return stats, [z[:, i] for i in range(z.shape[1])]


def _process_source(process, stats, run_offset):
    return calibrate.standardized_source(
        simulate.in_control_source(process, run_offset=run_offset), stats
    )


def _process_case():
    process = simulate.default_process_spec(0)
    stats, references = _process_references(process)
    return references, _process_source(process, stats, simulate.CALIBRATION_RUN_OFFSET)


def _bootstrap_case():
    process = simulate.default_process_spec(0)
    pool = simulate.generate_in_control(
        process, 6000, run=simulate._IN_CONTROL_POOL_RUN
    )
    _, references, source = pipeline.prepare_reference_and_source(pool, None, 0)
    return references, source


@pytest.mark.parametrize("make_case", [_process_case, _bootstrap_case],
                         ids=["process", "bootstrap"])
def test_find_threshold(benchmark, make_case):
    """One ``find_threshold`` call; the source is built outside the timing.

    ``extra_info["rows_drawn"]`` is the samples one call simulates, each
    row once, counted by a wrapper around the source: 184,400 for
    ``process`` and 182,400 for ``bootstrap``.
    """
    references, source = make_case()
    config = detector.MonitorConfig(1.3, 4, len(references))
    rows = []

    def setup():
        rows.append(0)

        def counting(replication, start, count):
            rows[-1] += count
            return source(replication, start, count)

        return (references, config, counting, SPEC), {}

    result = benchmark.pedantic(calibrate.find_threshold, setup=setup, rounds=3)
    assert np.isfinite(result.threshold)
    assert len(set(rows)) == 1
    benchmark.extra_info["rows_drawn"] = rows[0]


def test_far_check(benchmark):
    """45 one-replication ``estimate_false_alarm_rate`` calls of 3000
    samples at the found threshold, each over its own fresh run, and all
    over one list of plain references: an operator's check of a chosen
    threshold, as perfbench's ``calibrate`` check makes it. At most the
    first call builds the reference context; every later call reuses it.
    """
    process = simulate.default_process_spec(0)
    stats, references = _process_references(process)
    config = detector.MonitorConfig(1.3, 4, len(references))

    def check():
        return [
            calibrate.estimate_false_alarm_rate(
                FAR_THRESHOLD, references, config,
                _process_source(process, stats, FAR_OFFSET + i), 1, FAR_LENGTH,
            )
            for i in range(FAR_CALLS)
        ]

    rates = benchmark.pedantic(check, rounds=5)
    assert 0.0 < np.mean(rates) < 0.02
