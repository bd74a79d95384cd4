"""Independent reference implementations that tests check faultmon against.

Each oracle is the plain textbook form of something the package computes
in bulk or only in one direction. None of them is part of the package.
"""

import numpy as np

from faultmon import calibrate, detector, svm
from faultmon.errors import BracketError


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


def max_violating_pair_smo(kernel, labels, c_penalty, tol, alpha_tol=1e-8,
                           curvature_floor=1e-12):
    """Duals, bias and iteration count of ``svm.train_binary``, one mask at a time.

    SMO with maximal-violating-pair selection that recomputes the gradient
    form ``-y * grad`` and both working-set masks from scratch on every
    iteration, and reads the kernel column by column. It makes the same
    floating-point operations as the package's incremental loop, so the two
    agree bit for bit.
    """
    y = np.asarray(labels, dtype=float)
    n = y.size
    alphas = np.zeros(n)
    # Gradient of the minimized form: grad_i = (Q a)_i - 1.
    grad = -np.ones(n)

    def working_sets():
        below_c = alphas < c_penalty - alpha_tol
        above_0 = alphas > alpha_tol
        up_mask = ((y > 0) & below_c) | ((y < 0) & above_0)
        low_mask = ((y < 0) & below_c) | ((y > 0) & above_0)
        return up_mask, low_mask

    iterations = 0
    while True:
        score = -y * grad
        up_mask, low_mask = working_sets()
        if not up_mask.any() or not low_mask.any():
            break
        i = np.flatnonzero(up_mask)[np.argmax(score[up_mask])]
        j = np.flatnonzero(low_mask)[np.argmin(score[low_mask])]
        gap = score[i] - score[j]
        if gap <= tol:
            break
        curvature = kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j]
        step = gap / max(curvature, curvature_floor)
        if y[i] > 0:
            step = min(step, c_penalty - alphas[i])
        else:
            step = min(step, alphas[i])
        if y[j] > 0:
            step = min(step, alphas[j])
        else:
            step = min(step, c_penalty - alphas[j])
        alphas[i] += y[i] * step
        alphas[j] -= y[j] * step
        grad += y * step * (kernel[:, i] - kernel[:, j])
        iterations += 1

    score = -y * grad
    free = (alphas > alpha_tol) & (alphas < c_penalty - alpha_tol)
    if free.any():
        bias = float(score[free].mean())
    else:
        up_mask, low_mask = working_sets()
        hi = score[up_mask].max() if up_mask.any() else score.min()
        lo = score[low_mask].min() if low_mask.any() else score.max()
        bias = float(0.5 * (hi + lo))
    return alphas, bias, iterations


def sequential_grid_search(features, labels, c_grid=None, gamma_grid=None, *,
                           folds=5, seed=0):
    """``svm.grid_search`` with every model fitted by ``svm.train_multiclass``.

    The search as one loop over C, gamma and fold, fitting each fold's
    one-vs-one pairs one by one with ``svm.train_binary``. Ties go to the
    smaller C, then the smaller gamma.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels).astype(int)
    default_c, default_gamma = svm.default_grids(x.shape[1])
    c_grid = sorted(default_c if c_grid is None else c_grid)
    gamma_grid = sorted(default_gamma if gamma_grid is None else gamma_grid)
    fold_indices = svm.stratified_folds(y, folds, seed)
    table = []
    best = None
    for c_penalty in c_grid:
        for gamma in gamma_grid:
            correct = 0
            for fold in fold_indices:
                train_mask = np.ones(y.size, dtype=bool)
                train_mask[fold] = False
                model = svm.train_multiclass(x[train_mask], y[train_mask], c_penalty, gamma)
                correct += int(np.sum(model.predict(x[fold]) == y[fold]))
            accuracy = correct / y.size
            table.append((float(c_penalty), float(gamma), accuracy))
            if best is None or accuracy > best[2]:
                best = (float(c_penalty), float(gamma), accuracy)
    return svm.GridSearchResult(
        c_penalty=best[0],
        gamma=best[1],
        cv_accuracy=best[2],
        table=tuple(table),
    )


def _eager_estimate(traces, threshold, cap):
    crossed = traces >= threshold
    first = crossed.argmax(axis=1)
    never = ~crossed.any(axis=1)
    # Run length counts samples, so index t crossing means length t + 1.
    lengths = np.where(never, float(cap), first + 1.0)
    count = lengths.size
    return calibrate.ArlEstimate(
        mean_run_length=float(lengths.mean()),
        standard_error=(
            float(np.std(lengths, ddof=1) / np.sqrt(count)) if count > 1 else 0.0
        ),
        censored_fraction=float(np.mean(lengths >= cap)),
        run_lengths=lengths,
    )


def _eager_traces(references, config, source, spec):
    cap = spec.run_length_cap
    return detector.run_many(
        references, config, (source(rep, 0, cap) for rep in range(spec.replications))
    )


def eager_estimate_arl(threshold, references, config, source, spec):
    """``calibrate.estimate_arl`` with every run simulated to the cap."""
    traces = _eager_traces(references, config, source, spec)
    return _eager_estimate(traces, threshold, spec.run_length_cap)


def eager_find_threshold(references, config, source, spec):
    """``calibrate.find_threshold`` with every run simulated to the cap.

    Every probe gets an exact estimate from the full traces. The bracket,
    expansion limit and bracket floor are read from ``calibrate``.
    """
    cap = spec.run_length_cap
    if cap <= spec.target_arl0:
        raise BracketError(
            f"run length cap {cap} cannot resolve a target ARL of {spec.target_arl0}"
        )
    traces = _eager_traces(references, config, source, spec)
    evaluations = 0

    def arl_at(h):
        nonlocal evaluations
        evaluations += 1
        return _eager_estimate(traces, h, cap)

    low, high = calibrate._H_BRACKET
    est_high = arl_at(high)
    expansions = 0
    while est_high.mean_run_length <= spec.target_arl0:
        high *= 2.0
        expansions += 1
        if expansions > calibrate._MAX_EXPANSIONS:
            raise BracketError(
                f"ARL stays at {est_high.mean_run_length:.1f} below target "
                f"{spec.target_arl0} even at H={high / 2.0}"
            )
        est_high = arl_at(high)
    est_low = arl_at(low)
    expansions = 0
    while est_low.mean_run_length >= spec.target_arl0:
        low /= 2.0
        expansions += 1
        if expansions > calibrate._MAX_EXPANSIONS:
            raise BracketError(
                f"ARL is already {est_low.mean_run_length:.1f} above target "
                f"{spec.target_arl0} at H={low * 2.0}"
            )
        est_low = arl_at(low)

    best_h, best_est = high, est_high
    while high - low >= calibrate._MIN_BRACKET_WIDTH:
        mid = 0.5 * (low + high)
        est = arl_at(mid)
        if abs(est.mean_run_length / spec.target_arl0 - 1.0) <= spec.tolerance:
            best_h, best_est = mid, est
            break
        if est.mean_run_length < spec.target_arl0:
            low = mid
        else:
            high, best_h, best_est = mid, mid, est

    return calibrate.CalibrationResult(
        threshold=float(best_h),
        achieved_arl=best_est.mean_run_length,
        standard_error=best_est.standard_error,
        censored_fraction=best_est.censored_fraction,
        target_arl0=spec.target_arl0,
        replications=spec.replications,
        evaluations=evaluations,
    )
