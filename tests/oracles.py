"""Independent reference implementations that tests check faultmon against.

Each oracle is the plain textbook form of something the package computes
in bulk or only in one direction. None of them is part of the package.
"""

import numpy as np


def rbf_kernel(x, y, gamma):
    """Gaussian kernel ``exp(-gamma * ||x - y||^2)`` for two vectors."""
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return float(np.exp(-gamma * np.dot(diff, diff)))


def tangent_unvectorize(flat):
    """Inverse of ``spd.tangent_vectorize``: rebuild the symmetric matrix."""
    vec = np.asarray(flat, dtype=float)
    p = int(round((np.sqrt(8.0 * vec.size + 1.0) - 1.0) / 2.0))
    assert p * (p + 1) // 2 == vec.size, "length is not a triangular number"
    rows, cols = np.triu_indices(p)
    out = np.zeros((p, p))
    out[rows, cols] = vec / np.where(rows == cols, 1.0, np.sqrt(2.0))
    return out + np.triu(out, 1).T


def unstandardize(standardized, stats):
    """Inverse of ``standardize.apply``: back to the original scale."""
    return np.asarray(standardized, dtype=float) * stats.stddevs + stats.means
