"""RBF-kernel support vector classification trained from scratch.

Binary models solve the standard soft-margin dual

    min_a  0.5 a' Q a - sum(a)   s.t.  0 <= a_i <= C,  y' a = 0,

with Q_ij = y_i y_j K(x_i, x_j), by sequential minimal optimization with
maximal-violating-pair working-set selection (Platt 1998). The loop keeps
``-y * grad`` and both working sets incrementally on buffers allocated once
per fit, so an iteration costs a fixed handful of numpy calls; it reads
kernel columns, not rows, because the expanded-distance kernel is not
bitwise symmetric. Multiclass wraps one-vs-one voting over all label
pairs. Features are z-scored once before any kernel is evaluated so a
single gamma suits all coordinates.

Every fit goes through ``_smo_lockstep``, which solves a batch of duals
side by side: each round makes one SMO iteration in every row still
running, and a row leaves when it stops; the last row finishes in the
scalar loop ``_smo_scalar``, with the same floating-point operations.
``train_binary`` solves a batch of one. The grid search solves one batch
per gamma, one row per (C, fold, pair) fit, and builds a pair's kernel
once per gamma and fold for the rows of every C. Each row's duals, bias
and iterations equal ``train_binary``'s bit for bit, and a batch takes as
many rounds as its longest fit has iterations, not the sum of them all.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    NoConvergenceError,
    NonFiniteValueError,
    SingleClassError,
    TooFewPerClassError,
)

__all__ = [
    "rbf_kernel_matrix",
    "dual_objective",
    "BinaryModel",
    "train_binary",
    "MulticlassModel",
    "train_multiclass",
    "GridSearchResult",
    "grid_search",
    "default_grids",
]

logger = logging.getLogger(__name__)

# Duals smaller than this are treated as zero when extracting support
# vectors and detecting bound status.
_ALPHA_TOL = 1e-8
# Floor for the pair curvature K_ii + K_jj - 2 K_ij.
_CURVATURE_FLOOR = 1e-12
# SMO gives up after this many iterations per training row. Near-singular
# kernels at a large C converge slowly. Of 14,760 fits of n <= 24 random
# rows at C = 1e4, 72 needed more than 10,000 n iterations and 4, all of
# points on a line, more than 100,000 n (the most 2.8 million n): this cap
# lets all but those 4 converge.
_SMO_CAP_PER_ROW = 100_000


def _check_hyperparameter(name: str, value) -> None:
    # Written so that NaN fails it too.
    if not 0.0 < value < np.inf:
        raise DomainError(f"{name} must be finite and positive, got {value}")


def rbf_kernel_matrix(a, b, gamma: float) -> np.ndarray:
    """Gaussian kernel between row sets: shape ``(len(a), len(b))``."""
    _check_hyperparameter("gamma", gamma)
    left = np.atleast_2d(np.asarray(a, dtype=float))
    right = np.atleast_2d(np.asarray(b, dtype=float))
    if left.shape[1] != right.shape[1]:
        raise DimensionMismatchError(
            f"feature widths differ: {left.shape[1]} vs {right.shape[1]}"
        )
    sq = (
        (left * left).sum(axis=1)[:, np.newaxis]
        - 2.0 * (left @ right.T)
        + (right * right).sum(axis=1)[np.newaxis, :]
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def dual_objective(kernel: np.ndarray, labels: np.ndarray, alphas: np.ndarray) -> float:
    """Value of the dual objective ``sum(a) - 0.5 a' Q a`` (to maximize)."""
    ya = labels * alphas
    return float(alphas.sum() - 0.5 * (ya @ kernel @ ya))


@dataclass
class BinaryModel:
    """Trained binary SVM.

    ``dual_coefs`` stores ``alpha_i * y_i`` for the support vectors only.
    ``alphas`` keeps the full training-set duals for diagnostics; it is
    not needed for prediction and is dropped on serialization.
    """

    support_vectors: np.ndarray
    dual_coefs: np.ndarray
    bias: float
    gamma: float
    c_penalty: float
    iterations: int = 0
    alphas: np.ndarray | None = field(default=None, repr=False)

    def decision_function(self, x) -> np.ndarray:
        """Signed decision values for rows of ``x`` (or one vector)."""
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        kernel = rbf_kernel_matrix(arr, self.support_vectors, self.gamma)
        values = kernel @ self.dual_coefs + self.bias
        return values[0] if single else values

    def predict(self, x):
        """Labels in {-1, +1}; zero decision values map to -1."""
        values = self.decision_function(x)
        return np.where(np.asarray(values) > 0.0, 1, -1)[()]


def _check_training_inputs(features, labels):
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    if x.ndim != 2:
        raise DimensionMismatchError(f"features must be 2-D, got ndim={x.ndim}")
    if y.shape != (x.shape[0],):
        raise DimensionMismatchError(
            f"labels shape {y.shape} does not match {x.shape[0]} rows"
        )
    if x.shape[0] == 0:
        raise EmptyInputError("no training rows")
    if not np.isfinite(x).all():
        raise NonFiniteValueError("features contain NaN or infinity")
    return x, y


def _working_sets(y: np.ndarray, alphas: np.ndarray, c_penalty: float):
    """Masks of the duals that may move up (``I_up``) and down (``I_low``)."""
    below_c = alphas < c_penalty - _ALPHA_TOL
    above_0 = alphas > _ALPHA_TOL
    up_mask = ((y > 0) & below_c) | ((y < 0) & above_0)
    low_mask = ((y < 0) & below_c) | ((y > 0) & above_0)
    return up_mask, low_mask


def train_binary(
    features,
    labels,
    c_penalty: float,
    gamma: float,
    *,
    tol: float = 1e-3,
) -> BinaryModel:
    """Train a binary RBF-SVM by SMO.

    Each iteration picks the maximal violating pair (the most violated
    KKT condition on each side of the equality constraint), solves the
    two-variable subproblem exactly with clipping, and updates the
    gradient. Terminates when the KKT violation gap falls to ``tol``.

    The loop keeps ``-y * grad`` rather than the gradient, and the two
    working sets as 0/-inf penalty vectors of which only the two moved
    duals' entries change; the scalar step and clipping run on Python
    floats. The gradient update reads kernel columns because the kernel is
    not bitwise symmetric. Ties go to the lowest index. The fit is a
    one-problem :func:`_smo_lockstep` batch.

    Args:
        features: ``(n, d)`` matrix, already scaled.
        labels: n values in {-1, +1}.
        c_penalty: Box constraint C, finite and positive.
        gamma: RBF width, finite and positive.
        tol: KKT gap at which to stop.

    Raises:
        SingleClassError: Only one label present.
        DomainError: A label is not -1 or +1, or C or gamma is not finite
            and positive.
        NoConvergenceError: ``_SMO_CAP_PER_ROW * n`` iterations ran with the
            gap still above ``tol``.
    """
    x, y_raw = _check_training_inputs(features, labels)
    y = np.asarray(y_raw, dtype=float)
    if not np.isin(y, (-1.0, 1.0)).all():
        raise DomainError("binary labels must be -1 or +1")
    if np.unique(y).size < 2:
        raise SingleClassError("training data contains a single class")
    _check_hyperparameter("c_penalty", c_penalty)
    [result], _ = _smo_lockstep(
        rbf_kernel_matrix(x, x, gamma).T[np.newaxis], [0], y[np.newaxis], [c_penalty], tol
    )
    if isinstance(result, NoConvergenceError):
        raise result
    alphas, score, iterations = result
    return _binary_model(x, y, alphas, score, c_penalty, gamma, iterations)


def _smo_scalar(columns, y, c_penalty, tol, cap, alphas, score, up_penalty,
                low_penalty, iterations):
    """Run one problem's SMO loop from the given state to its end.

    Args:
        columns: The kernel by columns, ``columns[k, r]`` = K[r, k], n x n.
        y: The n labels, +-1.
        alphas, iterations: The duals and the iterations made so far.
        score: ``-y * grad`` at ``alphas``, updated in place.
        up_penalty, low_penalty: The working sets at ``alphas`` as 0/-inf
            penalties, updated in place.

    Returns:
        ``(alphas, score, iterations)`` at the stop.

    Raises:
        NoConvergenceError: ``cap`` iterations ran with the gap above ``tol``.
    """
    n = y.size
    signs = y.tolist()
    alphas = alphas.tolist()
    upper = c_penalty - _ALPHA_TOL
    buffer = np.empty(n)
    diff = np.empty(n)
    while True:
        # argmax/argmin take the first extremum, as over the masked scores;
        # a working set is empty when its extremum is infinite.
        np.add(score, up_penalty, out=buffer)
        i = int(buffer.argmax())
        if buffer[i] == -np.inf:
            break
        np.subtract(score, low_penalty, out=buffer)
        j = int(buffer.argmin())
        if buffer[j] == np.inf:
            break
        gap = score.item(i) - score.item(j)
        if gap <= tol:
            break
        if iterations >= cap:
            raise _cap_error(cap, gap)
        curvature = columns.item(i, i) + columns.item(j, j) - 2.0 * columns.item(j, i)
        step = gap / max(curvature, _CURVATURE_FLOOR)
        # The step moves alpha_i by +y_i * step and alpha_j by -y_j * step;
        # clip it so both duals stay inside the box.
        y_i, y_j = signs[i], signs[j]
        if y_i > 0:
            step = min(step, c_penalty - alphas[i])
        else:
            step = min(step, alphas[i])
        if y_j > 0:
            step = min(step, alphas[j])
        else:
            step = min(step, c_penalty - alphas[j])
        alphas[i] += y_i * step
        alphas[j] -= y_j * step
        # y is +-1 and rounding is symmetric under negation, so this is
        # the update grad += y * step * (K[:, i] - K[:, j]) bit for bit,
        # except at zero: where y = +1, x - x gives +0.0 but -(x - x) gives
        # -0.0. ``_binary_model`` restores that sign.
        np.subtract(columns[i], columns[j], out=diff)
        diff *= step
        score -= diff
        for k, y_k in ((i, y_i), (j, y_j)):
            below_c = alphas[k] < upper
            above_0 = alphas[k] > _ALPHA_TOL
            up, low = (below_c, above_0) if y_k > 0 else (above_0, below_c)
            up_penalty[k] = 0.0 if up else -np.inf
            low_penalty[k] = 0.0 if low else -np.inf
        iterations += 1
    return np.array(alphas), score, iterations


def _cap_error(cap: int, gap: float) -> NoConvergenceError:
    return NoConvergenceError(
        f"SMO hit the iteration cap {cap} with KKT gap {gap:.3e}",
        residual=float(gap),
    )


def _binary_model(x, y, alphas, score, c_penalty, gamma, iterations) -> BinaryModel:
    """The model of a solved dual: its support vectors and its bias.

    The bias is the mean of ``score = -y * grad`` over the free duals, or
    the midpoint of the two working sets' extremes when no dual is free.
    The solvers keep ``score`` by subtraction, so its zeros are all +0.0,
    while ``-y * grad`` is -0.0 there for y = +1, ``grad`` being zero only
    as +0.0; zero scores get the sign of ``-y * (+0.0)``.
    """
    score = np.where(score == 0.0, -y * 0.0, score)
    free = (alphas > _ALPHA_TOL) & (alphas < c_penalty - _ALPHA_TOL)
    if free.any():
        bias = float(score[free].mean())
    else:
        up_mask, low_mask = _working_sets(y, alphas, c_penalty)
        hi = score[up_mask].max() if up_mask.any() else score.min()
        lo = score[low_mask].min() if low_mask.any() else score.max()
        bias = float(0.5 * (hi + lo))

    support = alphas > _ALPHA_TOL
    return BinaryModel(
        support_vectors=x[support].copy(),
        dual_coefs=(alphas * y)[support],
        bias=bias,
        gamma=gamma,
        c_penalty=c_penalty,
        iterations=iterations,
        alphas=alphas,
    )


def _smo_lockstep(columns, kernel_index, labels, c_penalties, tol: float = 1e-3):
    """Solve a batch of binary duals side by side, each as if alone.

    Problem b has the n_b labels ``labels[b, :n_b]`` (+-1, zero-padded to a
    common width m), the box ``c_penalties[b]`` and the kernel
    ``columns[kernel_index[b]]``, stored by columns: ``columns[k, c, r]`` is
    K[r, c] for r, c < n_b and zero elsewhere. Problems may share a kernel.

    Each round makes one iteration of the scalar loop (:func:`_smo_scalar`)
    in every problem still running, with the same floating-point
    operations: the first maximal violating pair, the floored curvature,
    the clipped step, the column update of ``-y * grad`` and the two moved
    duals' working-set penalties. A problem leaves the batch on the round
    it stops, so its duals, ``score`` and iteration count are bitwise those
    of solving it alone. Padding carries -inf penalties and zero columns
    and is never selected. The last problem left, or a lone one, continues
    in the scalar loop itself, at a fraction of a round's cost.

    Returns:
        One result per problem and the number of lockstep rounds run. A
        result is ``(alphas, score, iterations)``, each array of the
        problem's own length n_b, or the ``NoConvergenceError`` raised once
        ``_SMO_CAP_PER_ROW * n_b`` iterations leave the gap above ``tol``.
        Once a problem has failed, the problems after it in batch order are
        dropped with result ``None``: solving the batch one problem at a
        time would stop at that error before reaching them.
    """
    y = np.asarray(labels, dtype=float)
    count, width = y.shape
    # Row k * m + c is column c of kernel k.
    column_rows = columns.reshape(-1, width)
    problem = np.arange(count)
    sizes = np.count_nonzero(y, axis=1)
    caps = _SMO_CAP_PER_ROW * sizes
    c = np.asarray(c_penalties, dtype=float)
    first_column = np.asarray(kernel_index) * width
    alphas = np.zeros((count, width))
    # score = -y * grad for the gradient grad = Q a - 1 of the minimized
    # form; its spread over the working sets measures KKT violation.
    score = y.copy()
    up_mask, low_mask = _working_sets(y, alphas, c[:, np.newaxis])
    up_penalty = np.where(up_mask, 0.0, -np.inf)
    low_penalty = np.where(low_mask, 0.0, -np.inf)
    up_score = np.empty((count, width))
    low_score = np.empty((count, width))
    results = [None] * count
    first_failure = count

    rounds = 0
    resized = True
    while True:
        if resized and problem.size == 1:
            # A round costs ~45 numpy calls, several times an iteration of
            # the scalar loop, so a lone problem finishes there.
            n, at = sizes[0], first_column[0]
            try:
                results[problem[0]] = _smo_scalar(
                    column_rows[at : at + n, :n], y[0, :n], float(c[0]), tol, int(caps[0]),
                    alphas[0, :n], score[0, :n].copy(), up_penalty[0, :n].copy(),
                    low_penalty[0, :n].copy(), rounds,
                )
            except NoConvergenceError as error:
                results[problem[0]] = error
            break
        if resized:
            live = problem.size
            row_start = np.arange(0, live * width, width)
            # The i entries of the moved duals come first, then the j entries.
            c_moved = np.concatenate((c, c))
            upper_moved = c_moved - _ALPHA_TOL
            is_i = np.repeat([True, False], live)
            min_cap = caps.min()
            resized = False
        np.add(score, up_penalty, out=up_score)
        np.subtract(score, low_penalty, out=low_score)
        i = up_score.argmax(axis=1)
        j = low_score.argmin(axis=1)
        at_i = row_start + i
        at_j = row_start + j
        # score + 0 and score - 0 are score (a zero's sign aside, which no
        # gap above tol shows), and an empty working set makes the gap -inf.
        gap = up_score.take(at_i) - low_score.take(at_j)
        running = gap > tol
        if rounds >= min_cap or not running.all():
            # Every running problem has made `rounds` iterations.
            capped = running & (rounds >= caps)
            for row in np.flatnonzero(capped).tolist():
                results[problem[row]] = _cap_error(int(caps[row]), float(gap[row]))
                first_failure = min(first_failure, problem[row])
            for row in np.flatnonzero(~running).tolist():
                n = sizes[row]
                results[problem[row]] = (
                    alphas[row, :n].copy(), score[row, :n].copy(), rounds
                )
            keep = running & ~capped & (problem < first_failure)
            if not keep.all():
                problem, sizes, caps, c = problem[keep], sizes[keep], caps[keep], c[keep]
                first_column, y, alphas = first_column[keep], y[keep], alphas[keep]
                score, up_penalty, low_penalty = score[keep], up_penalty[keep], low_penalty[keep]
                up_score, low_score = up_score[: problem.size], low_score[: problem.size]
                if not problem.size:
                    break
                # Select again on the smaller batch: the same pairs.
                resized = True
                continue
        column_i = column_rows.take(first_column + i, axis=0)
        column_j = column_rows.take(first_column + j, axis=0)
        curvature = column_i.take(at_i) + column_j.take(at_j) - 2.0 * column_j.take(at_i)
        step = gap / np.maximum(curvature, _CURVATURE_FLOOR)
        moved = np.concatenate((at_i, at_j))
        sign = y.take(moved)
        alpha = alphas.take(moved)
        positive = sign > 0
        # The step moves alpha_i by +y_i * step and alpha_j by -y_j * step,
        # so the room before the box clips it is C - alpha for a dual that
        # rises and alpha for one that falls. The step is positive
        # (gap > tol >= 0), so np.minimum picks what min() picks.
        room = np.where(positive == is_i, c_moved - alpha, alpha)
        step = np.minimum(np.minimum(step, room[:live]), room[live:])
        alpha[:live] += sign[:live] * step
        alpha[live:] -= sign[live:] * step
        alphas.put(moved, alpha)
        np.subtract(column_i, column_j, out=column_i)
        column_i *= step[:, np.newaxis]
        score -= column_i
        below_c = alpha < upper_moved
        above_0 = alpha > _ALPHA_TOL
        up_penalty.put(moved, np.where(np.where(positive, below_c, above_0), 0.0, -np.inf))
        low_penalty.put(moved, np.where(np.where(positive, above_0, below_c), 0.0, -np.inf))
        rounds += 1
    return results, rounds


@dataclass
class MulticlassModel:
    """One-vs-one ensemble over integer class labels.

    ``pairs`` holds ``(label_a, label_b, model)`` with ``label_a <
    label_b``; a positive decision value votes for ``label_a``. Features
    are z-scored with the stored statistics before any kernel evaluation
    (fitted stddevs of zero are replaced by one).
    """

    class_labels: np.ndarray
    pairs: list[tuple[int, int, BinaryModel]]
    feature_means: np.ndarray
    feature_stds: np.ndarray

    def _scale(self, x) -> np.ndarray:
        arr = np.atleast_2d(np.asarray(x, dtype=float))
        if arr.shape[1] != self.feature_means.size:
            raise DimensionMismatchError(
                f"expected {self.feature_means.size} features, got {arr.shape[1]}"
            )
        return (arr - self.feature_means) / self.feature_stds

    def predict(self, x) -> np.ndarray:
        """Predicted labels for rows of ``x`` (or one vector).

        Each pair votes with its decision sign; the label with the most
        votes wins. Vote ties go to the tied label with the largest sum of
        absolute decision values over its pairs, then to the smallest
        label.
        """
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        scaled = self._scale(arr)
        n = scaled.shape[0]
        n_classes = self.class_labels.size
        votes = np.zeros((n, n_classes), dtype=int)
        margin = np.zeros((n, n_classes))
        index = {int(label): idx for idx, label in enumerate(self.class_labels)}
        for label_a, label_b, model in self.pairs:
            values = model.decision_function(scaled)
            a_wins = values > 0.0
            ia, ib = index[label_a], index[label_b]
            votes[a_wins, ia] += 1
            votes[~a_wins, ib] += 1
            magnitude = np.abs(values)
            margin[:, ia] += magnitude
            margin[:, ib] += magnitude
        most_voted = votes == votes.max(axis=1, keepdims=True)
        # argmax takes the first, i.e. smallest, label among equal margins.
        best = np.where(most_voted, margin, -np.inf).argmax(axis=1)
        out = self.class_labels[best].astype(int)
        return out[0] if single else out


def train_multiclass(
    features,
    labels,
    c_penalty: float,
    gamma: float,
) -> MulticlassModel:
    """Train a one-vs-one multiclass SVM.

    Scaling statistics come from the full training set, not per pair, so
    every binary problem sees the same geometry.

    Raises:
        SingleClassError: Fewer than two distinct labels.
    """
    class_labels, means, stds, scaled, problems = _one_vs_one(features, labels)
    pairs = [
        (label_a, label_b, train_binary(scaled[mask], pair_y, c_penalty, gamma))
        for label_a, label_b, mask, pair_y in problems
    ]
    return MulticlassModel(
        class_labels=class_labels,
        pairs=pairs,
        feature_means=means,
        feature_stds=stds,
    )


def _one_vs_one(features, labels):
    """A training set z-scored, and its one-vs-one binary problems.

    Returns the class labels, the scaling means and stddevs (zeros replaced
    by one), the scaled rows and, per label pair ``a < b``,
    ``(a, b, mask, pair_labels)``: the pair's rows as a mask and their
    labels, +1 for ``a`` and -1 for ``b``.
    """
    x, y = _check_training_inputs(features, labels)
    y = y.astype(int)
    class_labels = np.unique(y)
    if class_labels.size < 2:
        raise SingleClassError("need at least two classes")
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    stds = np.where(stds == 0.0, 1.0, stds)
    scaled = (x - means) / stds
    problems = []
    for label_a, label_b in itertools.combinations(class_labels.tolist(), 2):
        mask = (y == label_a) | (y == label_b)
        pair_y = np.where(y[mask] == label_a, 1.0, -1.0)
        problems.append((int(label_a), int(label_b), mask, pair_y))
    return class_labels, means, stds, scaled, problems


@dataclass(frozen=True)
class GridSearchResult:
    """Chosen hyper-parameters and the full CV table."""

    c_penalty: float
    gamma: float
    cv_accuracy: float
    table: tuple[tuple[float, float, float], ...]


def default_grids(n_features: int):
    """Default hyper-parameter grids: C and gamma scaled by 1/d."""
    if n_features < 1:
        raise EmptyInputError("n_features must be positive")
    c_grid = (0.1, 1.0, 10.0, 100.0)
    gamma_grid = tuple(s / n_features for s in (0.1, 1.0, 10.0))
    return c_grid, gamma_grid


def stratified_folds(labels, folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified fold assignment.

    Indices of each class are shuffled with a seeded generator and dealt
    round-robin to folds, so every fold sees every class.

    Raises:
        TooFewPerClassError: Some class has fewer members than ``folds``.
    """
    y = np.asarray(labels)
    if folds < 2:
        raise DomainError(f"need at least 2 folds, got {folds}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    assignment = np.empty(y.size, dtype=int)
    for label in np.unique(y):
        members = np.flatnonzero(y == label)
        if members.size < folds:
            raise TooFewPerClassError(
                f"class {label} has {members.size} members for {folds} folds"
            )
        members = rng.permutation(members)
        assignment[members] = np.arange(members.size) % folds
    return [np.flatnonzero(assignment == f) for f in range(folds)]


def grid_search(
    features,
    labels,
    c_grid=None,
    gamma_grid=None,
    *,
    folds: int = 5,
    seed: int = 0,
) -> GridSearchResult:
    """Pick (C, gamma) by stratified k-fold cross-validated accuracy.

    Accuracy ties are broken toward the smaller C, then the smaller gamma
    (the least complex model).

    Each fold is scaled once and each (gamma, fold, pair) kernel is built
    once, for all C. The fits of one gamma, every C, fold and pair, are then
    solved as one ``_smo_lockstep`` batch, and each fold's model is
    assembled from its pairs' solutions. The table equals that of fitting
    every model with ``train_multiclass`` in grid order bit for bit.

    Raises:
        EmptyInputError: A grid is empty.
        DomainError: A grid value is not finite and positive.
        SingleClassError: Fewer than two distinct labels.
        NoConvergenceError: A fit hit its SMO iteration cap; the error is
            that of the first such fit in grid order.
    """
    x, y = _check_training_inputs(features, labels)
    y = y.astype(int)
    if c_grid is None or gamma_grid is None:
        default_c, default_gamma = default_grids(x.shape[1])
        c_grid = default_c if c_grid is None else c_grid
        gamma_grid = default_gamma if gamma_grid is None else gamma_grid
    c_grid, gamma_grid = sorted(c_grid), sorted(gamma_grid)
    for name, grid in (("c_penalty", c_grid), ("gamma", gamma_grid)):
        if not grid:
            raise EmptyInputError(f"the {name} grid is empty")
        for value in grid:
            _check_hyperparameter(name, value)
    fold_indices = stratified_folds(y, folds, seed)
    fits = []
    for fold in fold_indices:
        train_mask = np.ones(y.size, dtype=bool)
        train_mask[fold] = False
        fits.append(_one_vs_one(x[train_mask], y[train_mask]))

    pair_rows = [
        (scaled, mask, pair_y)
        for *_, scaled, problems in fits
        for _, _, mask, pair_y in problems
    ]
    kernels = len(pair_rows)
    width = max(pair_y.size for _, _, pair_y in pair_rows)
    padded = np.zeros((kernels, width))
    for k, (_, _, pair_y) in enumerate(pair_rows):
        padded[k, : pair_y.size] = pair_y
    # A gamma's batch holds its problems in (C, fold, pair) order; problem
    # (C, fold, pair) reads kernel (fold, pair).
    batch = (
        np.tile(np.arange(kernels), len(c_grid)),
        np.tile(padded, (len(c_grid), 1)),
        np.repeat(np.asarray(c_grid, dtype=float), kernels),
    )
    # One batch per gamma keeps one gamma's kernels alive at a time. Each is
    # built once, written by columns into the stack and shared by every C.
    columns = np.zeros((kernels, width, width))
    batches = []
    rounds = 0
    for gamma in gamma_grid:
        for k, (scaled, mask, pair_y) in enumerate(pair_rows):
            rows = scaled[mask]
            columns[k, : pair_y.size, : pair_y.size] = rbf_kernel_matrix(
                rows, rows, gamma
            ).T
        results, batch_rounds = _smo_lockstep(columns, *batch)
        batches.append(results)
        rounds += batch_rounds
    iterations = [r[2] for results in batches for r in results if isinstance(r, tuple)]
    logger.debug(
        "grid search: %d SMO problems solved in %d lockstep rounds, %d iterations, "
        "at most %d in one problem",
        len(iterations), rounds, sum(iterations), max(iterations, default=0),
    )

    table = []
    best = None
    for index, c_penalty in enumerate(c_grid):
        for gamma, results in zip(gamma_grid, batches):
            solutions = iter(results[index * kernels : (index + 1) * kernels])
            correct = 0
            for fold, (class_labels, means, stds, scaled, problems) in zip(
                fold_indices, fits
            ):
                pairs = []
                for label_a, label_b, mask, pair_y in problems:
                    solution = next(solutions)
                    # The first failure in grid order, as fitting one by one
                    # would raise it; a dropped problem (None) only follows one.
                    if isinstance(solution, NoConvergenceError):
                        raise solution
                    alphas, score, count = solution
                    binary = _binary_model(
                        scaled[mask], pair_y, alphas, score, c_penalty, gamma, count
                    )
                    pairs.append((label_a, label_b, binary))
                model = MulticlassModel(class_labels, pairs, means, stds)
                correct += int(np.sum(model.predict(x[fold]) == y[fold]))
            accuracy = correct / y.size
            table.append((float(c_penalty), float(gamma), accuracy))
            if best is None or accuracy > best[2]:
                best = (float(c_penalty), float(gamma), accuracy)
    return GridSearchResult(
        c_penalty=best[0],
        gamma=best[1],
        cv_accuracy=best[2],
        table=tuple(table),
    )
