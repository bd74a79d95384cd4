"""Online monitoring micro-benchmark (pytest-benchmark).

Run with ``python -m pytest benchmarks/bench_pipeline.py`` from the
repository root, with faultmon installed or ``PYTHONPATH=src``. The file
name does not match ``test_*.py``, so the unit-test run skips it. Record
the BLAS thread setting (``OPENBLAS_NUM_THREADS``) with any numbers.

``test_online_monitor_run`` times one in-control run of 2000 samples over
20 streams through ``pipeline.online_monitor``, every event drained: the
per-sample path (standardize and check the row, advance the detector,
emit the ``sample`` event) and whatever episodes the run's false alarms
open. The bundle is trained once per module on the small corpus that
``tests/conftest.py`` trains its bundle on, at the same pinned threshold,
so set-up takes a few seconds and is not timed.
"""

import pytest

from faultmon import pipeline, simulate

# The recipe of ``tests/conftest.py``: its corpus, its training options
# and its pinned threshold for ARL0 = 200 at k = 1.3, r = 4 on 20 streams.
PINNED_H = 36.21875
RUN_LENGTH = 2000
# A run index clear of every run the corpus and calibration draw.
RUN = 800_000


@pytest.fixture(scope="module")
def bundle_and_run():
    bench = simulate.make_benchmark(
        7,
        runs_per_class=6,
        run_length=900,
        onset=150,
        in_control_samples=1500,
        in_control_eval_runs=2,
        in_control_eval_length=400,
    )
    config = pipeline.TrainConfig(
        patience=60,
        threshold_override=PINNED_H,
        folds=3,
        c_grid=(1.0, 10.0),
        gamma_grid=(0.005, 0.05),
        seed=0,
    )
    bundle = pipeline.offline_train(bench.in_control, bench.train_runs, config)
    run = simulate.generate_in_control(bench.process, RUN_LENGTH, run=RUN)
    return bundle, run


def test_online_monitor_run(benchmark, bundle_and_run):
    """One 2000 x 20 in-control run through ``online_monitor``."""
    bundle, run = bundle_and_run
    events = benchmark(lambda: list(pipeline.online_monitor(bundle, run)))
    assert sum(e.kind == "sample" for e in events) == RUN_LENGTH
