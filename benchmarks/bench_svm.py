"""SVM layer micro-benchmarks (pytest-benchmark).

Run with ``python -m pytest benchmarks/bench_svm.py`` from the repository
root, with faultmon installed or ``PYTHONPATH=src``. The file name does not
match ``test_*.py``, so the unit-test run skips it. Record the BLAS thread
setting (``OPENBLAS_NUM_THREADS``) with any numbers.

Sizes follow the benchmark corpus: 210 tangent features (p = 20 streams),
five fault classes of 48 training runs each. The data are five overlapping
Gaussian classes drawn from a fixed seed; the default grid search over them
makes 600 binary fits, 52,072 SMO iterations in all and at most 268 in one
fit, close to training on benchmark seed 0 (52,803 and 267). The search
solves them in lockstep, one batch per gamma, in 450 rounds; the last
problem of each batch finishes alone in the scalar loop (``_smo_scalar``).
"""

import numpy as np
import pytest

from faultmon import svm

FEATURES = 210
CLASSES = 5
PER_CLASS = 48


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(CLASSES, FEATURES)) * 0.15
    labels = np.repeat(np.arange(1, CLASSES + 1), PER_CLASS)
    features = centers[labels - 1] + rng.normal(size=(labels.size, FEATURES))
    return features, labels


def test_train_binary_pair(benchmark, dataset):
    """One one-vs-one fit the size of a cross-validation pair (77 x 210)."""
    features, labels = dataset
    rows = np.r_[0:38, PER_CLASS:PER_CLASS + 39]
    x = features[rows]
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    y = np.where(labels[rows] == 1, 1.0, -1.0)
    benchmark(svm.train_binary, x, y, 10.0, 1.0 / FEATURES)


def test_grid_search(benchmark, dataset):
    """Default 4 x 3 grid, 5 folds, 10 pairs per fold: 600 fits."""
    features, labels = dataset
    benchmark.pedantic(svm.grid_search, args=(features, labels), rounds=5)
