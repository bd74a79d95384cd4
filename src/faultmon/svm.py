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
"""

from __future__ import annotations

import itertools
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

# Duals smaller than this are treated as zero when extracting support
# vectors and detecting bound status.
_ALPHA_TOL = 1e-8
# Floor for the pair curvature K_ii + K_jj - 2 K_ij.
_CURVATURE_FLOOR = 1e-12


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
    not bitwise symmetric. Ties go to the lowest index.

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
        NoConvergenceError: ``100_000 * n`` iterations ran with the gap still
            above ``tol``.
    """
    x, y_raw = _check_training_inputs(features, labels)
    y = np.asarray(y_raw, dtype=float)
    if not np.isin(y, (-1.0, 1.0)).all():
        raise DomainError("binary labels must be -1 or +1")
    if np.unique(y).size < 2:
        raise SingleClassError("training data contains a single class")
    _check_hyperparameter("c_penalty", c_penalty)
    n = x.shape[0]
    # Near-singular kernels at a large C converge slowly. Of 14,760 fits of
    # n <= 24 random rows at C = 1e4, 72 needed more than 10,000 n
    # iterations and 4, all of points on a line, more than 100,000 n (the
    # most 2.8 million n): this cap lets all but those 4 converge.
    cap = 100_000 * n

    kernel = rbf_kernel_matrix(x, x, gamma)
    # columns[k] is kernel[:, k]. The expanded-distance kernel is not
    # bitwise symmetric, so its rows would not reproduce the same sums.
    columns = np.ascontiguousarray(kernel.T)
    signs = y.tolist()
    alphas = [0.0] * n
    upper = c_penalty - _ALPHA_TOL
    # score = -y * grad for the gradient grad = Q a - 1 of the minimized
    # form; its spread over the working sets measures KKT violation.
    score = y.copy()
    # The working sets as additive penalties: 0 inside, -inf outside.
    up_mask, low_mask = _working_sets(y, np.zeros(n), c_penalty)
    up_penalty = np.where(up_mask, 0.0, -np.inf)
    low_penalty = np.where(low_mask, 0.0, -np.inf)
    buffer = np.empty(n)
    diff = np.empty(n)

    iterations = 0
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
            raise NoConvergenceError(
                f"SMO hit the iteration cap {cap} with KKT gap {gap:.3e}",
                residual=float(gap),
            )
        curvature = kernel.item(i, i) + kernel.item(j, j) - 2.0 * kernel.item(i, j)
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
        # bitwise the update grad += y * step * (K[:, i] - K[:, j]).
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

    alphas = np.array(alphas)
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
    x, y = _check_training_inputs(features, labels)
    y = y.astype(int)
    class_labels = np.unique(y)
    if class_labels.size < 2:
        raise SingleClassError("need at least two classes")
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    stds = np.where(stds == 0.0, 1.0, stds)
    scaled = (x - means) / stds
    pairs = []
    for label_a, label_b in itertools.combinations(class_labels.tolist(), 2):
        mask = (y == label_a) | (y == label_b)
        pair_y = np.where(y[mask] == label_a, 1.0, -1.0)
        model = train_binary(scaled[mask], pair_y, c_penalty, gamma)
        pairs.append((int(label_a), int(label_b), model))
    return MulticlassModel(
        class_labels=class_labels,
        pairs=pairs,
        feature_means=means,
        feature_stds=stds,
    )


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

    Raises:
        EmptyInputError: A grid is empty.
        DomainError: A grid value is not finite and positive.
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
    table = []
    best = None
    for c_penalty in c_grid:
        for gamma in gamma_grid:
            correct = 0
            for fold in fold_indices:
                train_mask = np.ones(y.size, dtype=bool)
                train_mask[fold] = False
                model = train_multiclass(x[train_mask], y[train_mask], c_penalty, gamma)
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
