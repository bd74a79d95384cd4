"""Geometry of symmetric positive-definite matrices.

Covariance matrices of detection windows live on the SPD cone, which is
not a vector space: averaging or differencing them entrywise leaves the
cone and distorts distances. The affine-invariant metric fixes this. With
``B^(1/2)`` the symmetric square root of a base point B, the maps

    Log_B(X) = B^(1/2) logm(B^(-1/2) X B^(-1/2)) B^(1/2)
    Exp_B(S) = B^(1/2) expm(B^(-1/2) S B^(-1/2)) B^(1/2)

carry points to/from the tangent space at B, where ordinary Euclidean
tools (and the classifier) apply. The geometric (Karcher) mean is the
point whose tangent-space average of the data is zero.

A log-Euclidean variant is provided for ablations: it flattens the whole
cone once through ``logm`` instead of linearizing around a base point.

All decompositions use symmetric eigensolvers; matrix functions are
applied to eigenvalues.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    EigenFailureError,
    EmptyInputError,
    NoConvergenceError,
    NonFiniteValueError,
    NotSpdError,
    NotSymmetricError,
    WindowTooShortError,
)

__all__ = [
    "METRIC_AFFINE",
    "METRIC_LOG_EUCLIDEAN",
    "covariance",
    "check_spd",
    "spd_log",
    "spd_exp",
    "spd_distance",
    "karcher_mean",
    "tangent_vectorize",
]

logger = logging.getLogger(__name__)

METRIC_AFFINE = "affine-invariant"
METRIC_LOG_EUCLIDEAN = "log-euclidean"
_METRICS = (METRIC_AFFINE, METRIC_LOG_EUCLIDEAN)

# Relative floor for covariance eigenvalues; windows this close to
# singular get a small ridge so the matrix logarithm stays usable.
_EIG_FLOOR = 1e-10
_RIDGE = 1e-6
_SYM_TOL = 1e-8
# The Karcher iteration stops once the mean tangent's Frobenius norm falls
# below _KARCHER_TOL * p, or fails after _KARCHER_MAX_ITER iterations.
_KARCHER_TOL = 1e-6
_KARCHER_MAX_ITER = 100


def _check_metric(metric: str) -> str:
    if metric not in _METRICS:
        raise DomainError(f"metric must be one of {_METRICS}, got {metric!r}")
    return metric


def _as_square(mat, name: str) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteValueError(f"{name} contains NaN or infinity")
    return arr


def _check_symmetric(mat, name: str) -> np.ndarray:
    arr = _as_square(mat, name)
    scale = max(1.0, float(np.abs(arr).max()))
    if np.abs(arr - arr.T).max() > _SYM_TOL * scale:
        raise NotSymmetricError(f"{name} is not symmetric")
    return 0.5 * (arr + arr.T)


def _eigh(mat: np.ndarray, name: str, *, positive: bool = False):
    """Ascending eigenpairs of a symmetric matrix, or of each matrix of a
    stack ``(N, p, p)``; ``positive`` demands that every one be SPD."""
    try:
        eigvals, eigvecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigendecomposition of {name} failed: {exc}") from exc
    if positive:
        lowest = eigvals[..., 0].min()
        if lowest <= 0.0:
            raise NotSpdError(f"{name} has non-positive eigenvalue {lowest:.3e}")
    return eigvals, eigvecs


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    """``(M + M^T) / 2`` of a matrix or of each matrix of a stack."""
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def _checked_spd(mat, name: str):
    """Symmetrize and check ``mat``; return it with its eigenpairs."""
    sym = _check_symmetric(mat, name)
    return (sym, *_eigh(sym, name, positive=True))


def check_spd(mat, name: str = "matrix") -> np.ndarray:
    """Validate symmetry and positive definiteness; return the symmetrized copy."""
    return _checked_spd(mat, name)[0]


def _eig_map(eigvals: np.ndarray, eigvecs: np.ndarray, func) -> np.ndarray:
    """Apply a scalar function to a symmetric matrix, or to each matrix of a
    stack, through its eigenpairs."""
    scaled = eigvecs * func(eigvals)[..., np.newaxis, :]
    return _symmetrize(scaled @ eigvecs.swapaxes(-1, -2))


def _roots(eigvals: np.ndarray, eigvecs: np.ndarray):
    """``B^(1/2)`` and ``B^(-1/2)`` of a base point B from its eigenpairs."""
    root = np.sqrt(eigvals)
    return (eigvecs * root) @ eigvecs.T, (eigvecs * (1.0 / root)) @ eigvecs.T


def _affine_map(roots, mats, func, name: str, *, positive: bool = False) -> np.ndarray:
    """``B^(1/2) func(B^(-1/2) M B^(-1/2)) B^(1/2)`` for each M of a stack
    ``(N, p, p)``: Log_B with log, Exp_B with exp.

    Each product, decomposition and reconstruction runs once over the
    stack; numpy applies it to each matrix as to that matrix alone, so
    every map equals the one of a stack of one bit for bit.
    """
    half, inv_half = roots
    inner = _symmetrize(inv_half @ mats @ inv_half)
    mapped = _eig_map(*_eigh(inner, name, positive=positive), func)
    return _symmetrize(half @ mapped @ half)


def covariance(window) -> np.ndarray:
    """Sample covariance (ddof=1) of a window, conditioned for the manifold.

    Near-singular results are ridged by ``1e-6 * trace/p`` on the diagonal
    so downstream matrix logarithms are defined. A window in which every
    stream is constant carries no covariance information at all; it maps
    to a tiny multiple of the identity, with a warning.

    Args:
        window: Matrix of shape ``(n, p)``, ``n >= 2``.

    Returns:
        SPD matrix of shape ``(p, p)``.
    """
    arr = np.asarray(window, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise DimensionMismatchError(f"window must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 2:
        raise WindowTooShortError(
            f"covariance needs at least 2 rows, got {arr.shape[0]}"
        )
    if not np.isfinite(arr).all():
        raise NonFiniteValueError("window contains NaN or infinity")
    centered = arr - arr.mean(axis=0)
    cov = centered.T @ centered / (arr.shape[0] - 1)
    cov = 0.5 * (cov + cov.T)
    p = cov.shape[0]
    scale = float(np.trace(cov)) / p
    if scale <= 0.0:
        logger.warning(
            "all-constant window of %d rows; substituting %.0e * identity",
            arr.shape[0],
            _RIDGE,
        )
        return _RIDGE * np.eye(p)
    eigvals = _eigh(cov, "window covariance")[0]
    if eigvals[0] < _EIG_FLOOR * scale:
        cov = cov + (_RIDGE * scale) * np.eye(p)
    return cov


class _Base:
    """A base point of ``spd_log``, checked and decomposed once.

    ``spd_log`` takes one in place of the base matrix, so that a caller
    mapping many points at one base pays for the base's check, ``eigh``
    and roots or log once; the maps are bitwise those of the matrix. The
    check runs at the first map, so a bad base fails there, as the matrix
    itself would.
    """

    def __init__(self, base):
        self._base = base

    @functools.cached_property
    def checked(self):
        """The symmetrized base with its eigenpairs."""
        return _checked_spd(self._base, "base")

    @functools.cached_property
    def roots(self):
        return _roots(*self.checked[1:])

    @functools.cached_property
    def log(self):
        return _eig_map(*self.checked[1:], np.log)


def spd_log(base, point, metric: str = METRIC_AFFINE) -> np.ndarray:
    """Map an SPD point into the tangent space at ``base``.

    Returns a symmetric matrix; in general it is not positive definite.
    """
    _check_metric(metric)
    b = base if isinstance(base, _Base) else _Base(base)
    b_shape = b.checked[0].shape
    x, x_vals, x_vecs = _checked_spd(point, "point")
    if b_shape != x.shape:
        raise DimensionMismatchError(
            f"base has shape {b_shape} but point has {x.shape}"
        )
    if metric == METRIC_LOG_EUCLIDEAN:
        return _eig_map(x_vals, x_vecs, np.log) - b.log
    return _affine_map(b.roots, x[np.newaxis], np.log, "whitened point", positive=True)[0]


def spd_exp(base, tangent, metric: str = METRIC_AFFINE) -> np.ndarray:
    """Map a tangent vector at ``base`` back onto the manifold."""
    _check_metric(metric)
    b, b_vals, b_vecs = _checked_spd(base, "base")
    s = _check_symmetric(tangent, "tangent")
    if b.shape != s.shape:
        raise DimensionMismatchError(
            f"base has shape {b.shape} but tangent has {s.shape}"
        )
    if metric == METRIC_LOG_EUCLIDEAN:
        log_sum = _eig_map(b_vals, b_vecs, np.log) + s
        return _eig_map(*_eigh(log_sum, "log sum"), np.exp)
    return _affine_map(_roots(b_vals, b_vecs), s[np.newaxis], np.exp, "whitened tangent")[0]


def spd_distance(a, b, metric: str = METRIC_AFFINE) -> float:
    """Geodesic distance between two SPD matrices.

    Affine-invariant: Frobenius norm of ``logm(A^(-1/2) B A^(-1/2))``,
    equivalently the root sum of squared log generalized eigenvalues.
    Log-Euclidean: Frobenius norm of ``logm(A) - logm(B)``.
    """
    _check_metric(metric)
    ma, a_vals, a_vecs = _checked_spd(a, "a")
    mb, b_vals, b_vecs = _checked_spd(b, "b")
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"shapes differ: {ma.shape} vs {mb.shape}")
    if metric == METRIC_LOG_EUCLIDEAN:
        diff = _eig_map(a_vals, a_vecs, np.log) - _eig_map(b_vals, b_vecs, np.log)
        return float(np.linalg.norm(diff, "fro"))
    inv_half = _roots(a_vals, a_vecs)[1]
    inner = inv_half @ mb @ inv_half
    inner = 0.5 * (inner + inner.T)
    inner_vals = _eigh(inner, "whitened b")[0]
    if inner_vals[0] <= 0.0:
        raise NotSpdError("b is not positive definite relative to a")
    return float(np.sqrt(np.sum(np.log(inner_vals) ** 2)))


def karcher_mean(matrices, metric: str = METRIC_AFFINE) -> np.ndarray:
    """Frechet mean of SPD matrices under the chosen metric.

    Affine-invariant: fixed-point iteration. Starting from the arithmetic
    mean, repeatedly average the data in the tangent space at the current
    estimate and move along that mean tangent; stop when the mean tangent
    has Frobenius norm below ``1e-6 * p``. The move starts as the whole
    tangent (the unit step) and halves whenever the norm fails to drop
    from one iterate to the next, which damps the overshoot of unit steps
    on widely dispersed sets (Bini & Iannazzo 2013, LAA 438).

    Log-Euclidean: closed form, ``expm`` of the mean of ``logm``.

    Raises:
        NoConvergenceError: Iteration cap reached (affine metric only).
    """
    _check_metric(metric)
    checked = [_checked_spd(m, f"matrices[{i}]") for i, m in enumerate(matrices)]
    if not checked:
        raise EmptyInputError("need at least one matrix")
    mats = [sym for sym, _, _ in checked]
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise DimensionMismatchError(
                f"matrices[{i}] has shape {m.shape}, expected {shape}"
            )
    p = shape[0]
    if metric == METRIC_LOG_EUCLIDEAN:
        logs = [_eig_map(vals, vecs, np.log) for _, vals, vecs in checked]
        return _eig_map(*_eigh(np.mean(logs, axis=0), "mean log"), np.exp)

    stack = np.array(mats)
    mean = _symmetrize(np.mean(stack, axis=0))
    residual = np.inf
    step = 1.0
    for iteration in range(1, _KARCHER_MAX_ITER + 1):
        roots = _roots(*_checked_spd(mean, "base")[1:])
        logs = _affine_map(roots, stack, np.log, "whitened point", positive=True)
        tangent = np.mean(logs, axis=0)
        previous, residual = residual, float(np.linalg.norm(tangent, "fro"))
        if residual < _KARCHER_TOL * p:
            logger.debug("Karcher mean: %d iterations, residual %.3e, step %g",
                         iteration, residual, step)
            return mean
        if not residual < previous:
            step *= 0.5
            logger.debug("Karcher mean: iteration %d, residual %.3e did not "
                         "drop; step halved to %g", iteration, residual, step)
        # 1.0 * tangent is tangent bit for bit, so unit steps are exact.
        mean = spd_exp(mean, step * tangent)
    raise NoConvergenceError(
        f"Karcher mean did not converge in {_KARCHER_MAX_ITER} iterations "
        f"(residual {residual:.3e})",
        residual=residual,
    )


def tangent_vectorize(tangent) -> np.ndarray:
    """Flatten a symmetric matrix to ``p (p + 1) / 2`` coordinates.

    The upper triangle is read row-major; off-diagonal entries are scaled
    by sqrt(2) so the Euclidean norm of the vector equals the Frobenius
    norm of the matrix.
    """
    sym = _check_symmetric(tangent, "tangent")
    p = sym.shape[0]
    rows, cols = np.triu_indices(p)
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    return sym[rows, cols] * weights

