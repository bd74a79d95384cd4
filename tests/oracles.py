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


def one_vs_one_vote(model, x):
    """Labels of ``MulticlassModel.predict``, chosen one row at a time.

    The label with the most pair votes wins; a vote tie goes to the largest
    sum of |decision| over the label's pairs, then to the smallest label.
    """
    scaled = model._scale(np.atleast_2d(np.asarray(x, dtype=float)))
    decisions = [
        (label_a, label_b, binary.decision_function(scaled))
        for label_a, label_b, binary in model.pairs
    ]
    out = []
    for row in range(scaled.shape[0]):
        votes = dict.fromkeys(model.class_labels.tolist(), 0)
        margins = dict.fromkeys(votes, 0.0)
        for label_a, label_b, values in decisions:
            votes[label_a if values[row] > 0.0 else label_b] += 1
            margins[label_a] += abs(values[row])
            margins[label_b] += abs(values[row])
        out.append(max(votes, key=lambda label: (votes[label], margins[label], -label)))
    return np.array(out)
