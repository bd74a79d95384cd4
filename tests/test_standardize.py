import numpy as np
import pytest

from faultmon import standardize
from faultmon.errors import (
    ConstantStreamError,
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteValueError,
)
from tests.oracles import unstandardize


def test_hand_case():
    # 3x2 matrix with unit-slope first column, 10x second column.
    raw = np.array([[0.0, 10.0], [1.0, 20.0], [2.0, 30.0]])
    stats = standardize.fit_reference(raw)
    assert stats.means == pytest.approx((1.0, 20.0))
    assert stats.stddevs == pytest.approx((1.0, 10.0))


def test_matches_numpy_ddof1():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(40, 5)) * rng.uniform(0.5, 3.0, size=5)
    stats = standardize.fit_reference(raw)
    np.testing.assert_allclose(stats.means, raw.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(stats.stddevs, raw.std(axis=0, ddof=1), rtol=1e-12)


def test_apply_hand_case():
    stats = standardize.ReferenceStats(means=(1.0, 20.0), stddevs=(1.0, 10.0))
    out = standardize.apply(np.array([3.0, 0.0]), stats)
    np.testing.assert_allclose(out, [2.0, -2.0])


def test_apply_invert_round_trip():
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(30, 4))
    stats = standardize.fit_reference(raw)
    z = standardize.apply(raw, stats)
    back = unstandardize(z, stats)
    np.testing.assert_allclose(back, raw, atol=1e-12)
    # Standardized output is zero-mean unit-variance by construction.
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(axis=0, ddof=1), 1.0, rtol=1e-12)


def test_apply_accepts_matrix_and_vector():
    stats = standardize.ReferenceStats(means=(0.0, 0.0), stddevs=(2.0, 4.0))
    vec = standardize.apply(np.array([2.0, 4.0]), stats)
    mat = standardize.apply(np.array([[2.0, 4.0], [4.0, 8.0]]), stats)
    np.testing.assert_allclose(vec, [1.0, 1.0])
    np.testing.assert_allclose(mat, [[1.0, 1.0], [2.0, 2.0]])


def test_constant_stream_rejected_with_indices():
    raw = np.array([[1.0, 5.0, 2.0]] * 10)
    raw[:, 0] = np.arange(10)
    with pytest.raises(ConstantStreamError) as excinfo:
        standardize.fit_reference(raw)
    assert excinfo.value.stream_indices == (1, 2)


def test_too_few_rows():
    with pytest.raises(EmptyInputError):
        standardize.fit_reference(np.ones((1, 3)))


def test_non_finite_rejected():
    raw = np.ones((5, 2))
    raw[2, 1] = np.nan
    with pytest.raises(NonFiniteValueError):
        standardize.fit_reference(raw)


def test_dimension_mismatch():
    stats = standardize.ReferenceStats(means=(0.0, 0.0), stddevs=(1.0, 1.0))
    with pytest.raises(DimensionMismatchError):
        standardize.apply(np.ones(3), stats)


# Warnings are errors, so that a numpy RuntimeWarning raised by an
# overflowing division fails the test ahead of faultmon's own error.
@pytest.mark.filterwarnings("error")
def test_apply_rejects_non_finite_input_and_overflow():
    stats = standardize.ReferenceStats(means=(0.0, 0.0), stddevs=(1.0, 1e-300))
    for bad in ([np.nan, 0.0], [0.0, np.inf], [[1.0, 1.0], [-np.inf, 0.0]]):
        with pytest.raises(NonFiniteValueError):
            standardize.apply(np.array(bad), stats)
    # Finite, but 1e10 / 1e-300 overflows, alone and in a batch.
    for bad in ([0.0, 1e10], [[2.0, 0.0], [-1e308, -1e10]]):
        with pytest.raises(NonFiniteValueError):
            standardize.apply(np.array(bad), stats)
    np.testing.assert_array_equal(standardize.apply(np.array([2.0, 0.0]), stats), [2.0, 0.0])


def test_stats_are_frozen():
    stats = standardize.ReferenceStats(means=(0.0,), stddevs=(1.0,))
    with pytest.raises(AttributeError):
        stats.means = (1.0,)
