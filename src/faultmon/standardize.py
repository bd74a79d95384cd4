"""Z-score standardization against in-control reference statistics.

Detection operates on standardized values so that thresholds and fault
magnitudes are comparable across streams with very different physical
scales. Statistics are fitted once on in-control data and then applied
unchanged to live samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantStreamError,
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteValueError,
)

__all__ = ["ReferenceStats", "fit_reference", "apply"]


@dataclass(frozen=True)
class ReferenceStats:
    """Per-stream location and scale fitted on in-control data.

    Attributes:
        means: Per-stream sample means, shape ``(p,)``.
        stddevs: Per-stream sample standard deviations (ddof=1), shape
            ``(p,)``, all strictly positive.
    """

    means: np.ndarray
    stddevs: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        stddevs = np.asarray(self.stddevs, dtype=float)
        if means.ndim != 1 or stddevs.ndim != 1:
            raise DimensionMismatchError("means and stddevs must be 1-D")
        if means.shape != stddevs.shape:
            raise DimensionMismatchError(
                f"means has shape {means.shape} but stddevs has {stddevs.shape}"
            )
        if means.size == 0:
            raise EmptyInputError("at least one stream is required")
        if not (np.isfinite(means).all() and np.isfinite(stddevs).all()):
            raise NonFiniteValueError("reference statistics must be finite")
        if (stddevs <= 0).any():
            bad = np.flatnonzero(stddevs <= 0)
            raise ConstantStreamError(bad)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stddevs", stddevs)

    @property
    def stream_count(self) -> int:
        return self.means.shape[0]


def _as_sample_matrix(raw) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1:
        # A single stream; treat as one column.
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"expected a samples-by-streams matrix, got ndim={arr.ndim}"
        )
    return arr


def fit_reference(raw) -> ReferenceStats:
    """Fit per-stream mean and standard deviation on in-control data.

    Args:
        raw: Matrix of shape ``(n, p)`` with one row per time point, or a
            1-D array for a single stream. Needs ``n >= 2``.

    Returns:
        Fitted :class:`ReferenceStats`.

    Raises:
        EmptyInputError: Fewer than two rows.
        NonFiniteValueError: Any NaN or infinite entry.
        ConstantStreamError: Any stream with zero sample variance.
    """
    arr = _as_sample_matrix(raw)
    if arr.shape[0] < 2:
        raise EmptyInputError(
            f"need at least 2 samples to estimate a scale, got {arr.shape[0]}"
        )
    if not np.isfinite(arr).all():
        rows, cols = np.nonzero(~np.isfinite(arr))
        raise NonFiniteValueError(
            f"non-finite value at row {rows[0]}, stream {cols[0]}"
        )
    means = arr.mean(axis=0)
    stddevs = arr.std(axis=0, ddof=1)
    return ReferenceStats(means=means, stddevs=stddevs)


# Overflow shows as infinity, which ``apply`` rejects with its own error;
# numpy's RuntimeWarning would otherwise print ahead of it. The decorator
# form of ``np.errstate`` costs about half of a ``with`` block per call,
# and ``apply`` runs once per sample on the online path.
@np.errstate(over="ignore")
def _standardized(arr, means, stddevs):
    return (arr - means) / stddevs


def apply(values, stats: ReferenceStats) -> np.ndarray:
    """Standardize one sample ``(p,)`` or a batch ``(n, p)``.

    The result is checked rather than the input: it is non-finite where
    the input is, and also where standardizing a finite value overflows,
    so one check rejects both.

    Raises:
        DimensionMismatchError: Last axis does not match the stream count.
        NonFiniteValueError: Any NaN or infinite entry, in the input or in
            the standardized result.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != stats.stream_count:
        raise DimensionMismatchError(
            f"expected {stats.stream_count} streams on the last axis, "
            f"got shape {arr.shape}"
        )
    out = _standardized(arr, stats.means, stats.stddevs)
    if not np.isfinite(out).all():
        raise NonFiniteValueError(
            "input contains NaN or infinity, or overflows when standardized"
        )
    return out

