"""Shared fixtures: a small labeled corpus and a trained bundle.

The small benchmark trades statistical power for speed; the full-scale
protocol lives in test_acceptance.py.
"""

import numpy as np
import pytest

from faultmon import detector, pipeline, simulate

# Rehearsed threshold for ARL0=200 at k=1.3, r=4 on 20 streams; tests that
# need a calibrated operating point reuse it instead of recalibrating.
PINNED_H = 36.21875


@pytest.fixture(scope="session")
def small_benchmark():
    return simulate.make_benchmark(
        7,
        runs_per_class=6,
        run_length=900,
        onset=150,
        in_control_samples=1500,
        in_control_eval_runs=2,
        in_control_eval_length=400,
    )


@pytest.fixture(scope="session")
def small_config():
    return pipeline.TrainConfig(
        patience=60,
        threshold_override=PINNED_H,
        folds=3,
        c_grid=(1.0, 10.0),
        gamma_grid=(0.005, 0.05),
        seed=0,
    )


@pytest.fixture(scope="session")
def trained_bundle(small_benchmark, small_config):
    return pipeline.offline_train(
        small_benchmark.in_control, small_benchmark.train_runs, small_config
    )


@pytest.fixture
def built_contexts(monkeypatch):
    """Empties the detector's kept reference context and counts every
    context built from then on; returns the one-item count list."""
    monkeypatch.setattr(detector._References, "_kept", None)
    count = [0]
    init = detector._References.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(detector._References, "__init__", counting)
    return count
