"""Summary features of a global-statistic trace.

The shape of V(t) between monitoring start and the classification point
carries fault information that an end-of-window covariance misses (how
fast the statistic grew, whether it oscillated, how much area it swept).
These eight summaries are appended to the classifier features when trace
augmentation is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatchError, NonFiniteValueError, TraceTooShortError

__all__ = ["FEATURE_NAMES", "TraceFeatures", "trace_features"]


@dataclass(frozen=True)
class TraceFeatures:
    """Fixed-order summary of one V(t) trace.

    The field order is the feature order, :data:`FEATURE_NAMES`.

    Attributes:
        mean: Arithmetic mean of the trace.
        stddev: Population standard deviation (divisor T).
        median: Sample median.
        variance: Population variance; equals ``stddev ** 2``.
        value_range: ``max - min``.
        max_value: Largest value.
        peak_count: Number of strict interior local maxima; endpoints are
            never peaks.
        auc: Trapezoidal area under the trace at unit sample spacing.
    """

    mean: float
    stddev: float
    median: float
    variance: float
    value_range: float
    max_value: float
    peak_count: int
    auc: float

    def as_vector(self) -> np.ndarray:
        """Feature vector in the order of :data:`FEATURE_NAMES`."""
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=float)


# The classifier's trace-feature order: the field order of TraceFeatures.
FEATURE_NAMES = tuple(f.name for f in fields(TraceFeatures))


def trace_features(trace) -> TraceFeatures:
    """Summarize a statistic trace of length at least 3.

    Raises:
        TraceTooShortError: Fewer than 3 samples (peaks are undefined).
        NonFiniteValueError: Any NaN or infinite entry.
    """
    v = np.asarray(trace, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"trace must be 1-D, got ndim={v.ndim}")
    if v.size < 3:
        raise TraceTooShortError(
            f"need at least 3 samples to summarize a trace, got {v.size}"
        )
    if not np.isfinite(v).all():
        raise NonFiniteValueError("trace contains NaN or infinity")
    interior = v[1:-1]
    peaks = int(np.count_nonzero((interior > v[:-2]) & (interior > v[2:])))
    return TraceFeatures(
        mean=float(v.mean()),
        stddev=float(v.std()),
        median=float(np.median(v)),
        variance=float(v.var()),
        value_range=float(v.max() - v.min()),
        max_value=float(v.max()),
        peak_count=peaks,
        auc=float(np.trapezoid(v)),
    )
