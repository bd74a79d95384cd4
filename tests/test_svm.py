"""SVM tests.

The dual oracle is an accelerated projected-gradient solver, vectorized
across instances: maximize sum(a) - 0.5 (ay)' K (ay) subject to the box
and the equality constraint, with the exact projection found by a
breakpoint search on the constraint multiplier. It shares no code with
the SMO path. The bitwise test compares ``train_binary`` (a lockstep
batch of one, solved by the scalar loop) and the grid search's lockstep
solver with ``oracles.max_violating_pair_smo``,
which makes the same arithmetic one recomputed mask at a time.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faultmon import svm
from faultmon.errors import (
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    NoConvergenceError,
    SingleClassError,
    TooFewPerClassError,
)
from tests.oracles import (
    max_violating_pair_smo,
    one_vs_one_vote,
    rbf_kernel,
    sequential_grid_search,
)


def _project(v, y, caps):
    """Batched projection onto {0 <= a <= caps, sum(y*a) = 0}.

    The projection is clip(v - lam * y, 0, caps) at the root lam of
    h(lam) = sum(y * clip(v - lam * y, 0, caps)), the continuous quadratic
    knapsack. Entry i moves h linearly, with slope -1, between two
    breakpoints s_i and s_i + caps_i, so h = P - g with
    g(lam) = sum(clip(lam - s, 0, caps)) and P the caps of the +1 labels.
    Sorting the 2n breakpoints and summing the slope changes gives g at
    each one; the root lies on the first segment where g reaches P, by
    linear interpolation (breakpoint search, Kiwiel 2008). A tie sorts a
    start before an end, so no slope is negative. Padding (label and cap
    zero) adds nothing.
    """
    u = y * v
    start = np.where(y > 0, u - caps, u)
    points = np.concatenate([start, start + caps], axis=1)
    changes = np.concatenate([np.ones_like(v), -np.ones_like(v)], axis=1)
    order = np.argsort(points, axis=1, kind="stable")
    points = np.take_along_axis(points, order, axis=1)
    slopes = np.take_along_axis(changes, order, axis=1).cumsum(axis=1)
    g = np.zeros_like(points)
    np.cumsum(slopes[:, :-1] * np.diff(points, axis=1), axis=1, out=g[:, 1:])
    target = np.where(y > 0, caps, 0.0).sum(axis=1)
    last = (g < target[:, None]).sum(axis=1) - 1
    rows = np.arange(v.shape[0])
    lam = points[rows, last] + (target - g[rows, last]) / slopes[rows, last]
    return np.clip(v - lam[:, None] * y, 0.0, caps)


def _pg_oracle(kernels, labels, caps, iters=6000):
    """Best dual objective per instance by FISTA with projection."""
    m, n, _ = kernels.shape
    q = kernels * labels[:, :, None] * labels[:, None, :]
    step = 1.0 / n
    alpha = np.zeros((m, n))
    beta = alpha.copy()
    t_k = 1.0
    for _ in range(iters):
        grad = 1.0 - np.einsum("mij,mj->mi", q, beta)
        grad = np.where(caps > 0, grad, 0.0)
        new = _project(beta + step * grad, labels, caps)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        beta = new + ((t_k - 1.0) / t_next) * (new - alpha)
        beta = _project(beta, labels, caps)
        alpha, t_k = new, t_next
    qa = np.einsum("mij,mj->mi", q, alpha)
    return alpha.sum(axis=1) - 0.5 * np.sum(alpha * qa, axis=1)


def _random_instances(count, seed):
    rng = np.random.default_rng(seed)
    max_n = 20
    kernels = np.zeros((count, max_n, max_n))
    labels = np.zeros((count, max_n))
    caps = np.zeros((count, max_n))
    raw = []
    for m in range(count):
        n = int(rng.integers(4, max_n + 1))
        d = int(rng.integers(2, 6))
        x = rng.normal(size=(n, d))
        y = rng.choice([-1.0, 1.0], size=n)
        y[0], y[1] = 1.0, -1.0  # both classes present
        c = float(rng.uniform(0.5, 2.0))
        gamma = float(rng.uniform(0.3, 3.0))
        kernels[m, :n, :n] = svm.rbf_kernel_matrix(x, x, gamma)
        labels[m, :n] = y
        caps[m, :n] = c
        raw.append((x, y, c, gamma, n))
    return kernels, labels, caps, raw


def test_rbf_kernel_values():
    x = np.array([1.0, 0.0])
    assert svm.rbf_kernel_matrix(x, x, 2.0)[0, 0] == 1.0
    y = np.array([0.0, 0.0])
    assert svm.rbf_kernel_matrix(x, y, 1.0)[0, 0] == pytest.approx(np.exp(-1.0))
    # Swapping the row sets transposes the kernel; the expanded squared
    # distance sums its terms in another order, so equality is to rounding.
    rng = np.random.default_rng(40)
    a, b = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
    np.testing.assert_allclose(
        svm.rbf_kernel_matrix(a, b, 0.7), svm.rbf_kernel_matrix(b, a, 0.7).T, rtol=1e-12
    )


def test_kernel_matrix_matches_pairwise():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(6, 3))
    z = rng.normal(size=(4, 3))
    mat = svm.rbf_kernel_matrix(x, z, 0.5)
    for i in range(6):
        for j in range(4):
            assert mat[i, j] == pytest.approx(rbf_kernel(x[i], z[j], 0.5))


def test_smo_matches_projected_gradient_oracle():
    count = 60
    kernels, labels, caps, raw = _random_instances(count, seed=42)
    oracle = _pg_oracle(kernels, labels, caps)
    for m, (x, y, c, gamma, n) in enumerate(raw):
        model = svm.train_binary(x, y, c, gamma, tol=1e-6)
        kernel = kernels[m, :n, :n]
        got = svm.dual_objective(kernel, y, model.alphas)
        assert got == pytest.approx(oracle[m], abs=1e-4)


def test_smo_solution_is_feasible():
    kernels, labels, caps, raw = _random_instances(20, seed=43)
    for x, y, c, gamma, n in raw:
        model = svm.train_binary(x, y, c, gamma)
        alphas = model.alphas
        assert (alphas >= -1e-12).all()
        assert (alphas <= c + 1e-12).all()
        assert abs(np.dot(alphas, y)) <= 1e-6


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


# Explicit cases: duplicated rows (argmax ties), C so small that every dual
# ends at a bound (bias from the working sets), a large C, one minority
# label, n = 2, both tolerances, points on a line at C = 1e4, which take
# 206,909 SMO iterations (about 11,500 n), and duplicated rows whose batch
# problem at C = 0.5 ends with a zero score on a y = +1 dual, the bias
# -0.0.
@given(
    n=st.integers(2, 24),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    duplicates=st.booleans(),
    minority=st.booleans(),
    c_penalty=st.sampled_from([1e-4, 0.3, 2.0, 1e4]),
    gamma=st.sampled_from([0.05, 0.7, 4.0]),
    tol=st.sampled_from([1e-3, 1e-6]),
)
@example(n=12, d=2, seed=1, duplicates=True, minority=False, c_penalty=2.0,
         gamma=0.7, tol=1e-3)
@example(n=12, d=3, seed=2, duplicates=False, minority=False, c_penalty=1e-4,
         gamma=0.7, tol=1e-6)
@example(n=16, d=3, seed=3, duplicates=True, minority=False, c_penalty=1e4,
         gamma=4.0, tol=1e-6)
@example(n=10, d=2, seed=4, duplicates=False, minority=True, c_penalty=2.0,
         gamma=0.7, tol=1e-3)
@example(n=2, d=1, seed=5, duplicates=False, minority=False, c_penalty=0.3,
         gamma=0.05, tol=1e-6)
@example(n=18, d=1, seed=124, duplicates=False, minority=False, c_penalty=1e4,
         gamma=0.7, tol=1e-3)
@example(n=12, d=5, seed=1012, duplicates=True, minority=False, c_penalty=1e-4,
         gamma=4.0, tol=1e-3)
@settings(max_examples=150, deadline=None)
def test_smo_matches_mask_oracle_bitwise(n, d, seed, duplicates, minority,
                                         c_penalty, gamma, tol):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
    if duplicates:
        x[rng.integers(0, n, size=n // 2)] = x[rng.integers(0, n)]
    if minority:
        y = -np.ones(n)
        y[rng.integers(0, n)] = 1.0
    else:
        y = rng.choice([-1.0, 1.0], size=n)
        y[rng.permutation(n)[:2]] = (1.0, -1.0)
    oracle = _mask_oracle(x, y, c_penalty, gamma, tol)
    _assert_bitwise(svm.train_binary(x, y, c_penalty, gamma, tol=tol), x, y, oracle)
    # The same case inside one lockstep batch, between problems of other n
    # and C, one of them on its own kernel.
    rows = [rng.normal(size=(n + 3, d)), x, rng.normal(size=(max(2, n // 2), d))]
    labels = [rng.choice([-1.0, 1.0], size=len(r)) for r in rows]
    for extra in (labels[0], labels[2]):
        extra[:2] = (1.0, -1.0)
    labels[1] = y
    batch = [(0, 5.0), (1, c_penalty), (1, 0.5), (2, 0.5)]
    models = _lockstep_models(rows, labels, batch, gamma, tol)
    for b, ((k, c), model) in enumerate(zip(batch, models)):
        expected = oracle if b == 1 else _mask_oracle(rows[k], labels[k], c, gamma, tol)
        _assert_bitwise(model, rows[k], labels[k], expected)


def _lockstep_models(rows, labels, batch, gamma, tol):
    """Models of ``(k, C)`` problems on ``rows[k]``, solved as one lockstep batch."""
    width = max(len(x) for x in rows)
    columns = np.zeros((len(rows), width, width))
    for k, x in enumerate(rows):
        columns[k, : len(x), : len(x)] = svm.rbf_kernel_matrix(x, x, gamma).T
    padded = np.zeros((len(batch), width))
    for b, (k, _) in enumerate(batch):
        padded[b, : len(rows[k])] = labels[k]
    results, _ = svm._smo_lockstep(
        columns, [k for k, _ in batch], padded, [c for _, c in batch], tol
    )
    return [
        svm._binary_model(rows[k], labels[k], alphas, score, c, gamma, iterations)
        for (k, c), (alphas, score, iterations) in zip(batch, results)
    ]


def _mask_oracle(x, y, c_penalty, gamma, tol):
    kernel = svm.rbf_kernel_matrix(x, x, gamma)
    return max_violating_pair_smo(kernel, y, c_penalty, tol)


def _assert_bitwise(model, x, y, oracle):
    alphas, bias, iterations = oracle
    np.testing.assert_array_equal(_bits(model.alphas), _bits(alphas))
    assert _bits(model.bias) == _bits(bias)
    assert model.iterations == iterations
    support = alphas > 1e-8
    np.testing.assert_array_equal(_bits(model.support_vectors), _bits(x[support]))
    np.testing.assert_array_equal(_bits(model.dual_coefs), _bits((alphas * y)[support]))


def _two_class_rows():
    x = np.random.default_rng(60).normal(size=(20, 3))
    y = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
    return x, y


def test_train_binary_rejects_nan_c_penalty():
    x, y = _two_class_rows()
    with pytest.raises(DomainError):
        svm.train_binary(x, y, np.nan, 1.0)


@pytest.mark.parametrize("gamma", [np.nan, np.inf])
def test_train_binary_rejects_non_finite_gamma(gamma):
    x, y = _two_class_rows()
    with pytest.raises(DomainError):
        svm.train_binary(x, y, 1.0, gamma)
    with pytest.raises(DomainError):
        svm.rbf_kernel_matrix(x, x, gamma)


def test_grid_search_rejects_nan_gamma():
    rng = np.random.default_rng(61)
    x, y = _blobs(rng, [(1, (0, 0)), (2, (4, 4))], per_class=8)
    with pytest.raises(DomainError):
        svm.grid_search(x, y, c_grid=[1.0], gamma_grid=(np.nan,), folds=2)


def test_grid_search_rejects_empty_c_grid():
    rng = np.random.default_rng(62)
    x, y = _blobs(rng, [(1, (0, 0)), (2, (4, 4))], per_class=8)
    with pytest.raises(EmptyInputError):
        svm.grid_search(x, y, c_grid=(), gamma_grid=[0.5], folds=2)


def test_kkt_residuals_small():
    kernels, labels, caps, raw = _random_instances(20, seed=44)
    for x, y, c, gamma, n in raw:
        model = svm.train_binary(x, y, c, gamma)
        margins = y * model.decision_function(x)
        resid = 0.0
        for i in range(n):
            if model.alphas[i] <= 1e-8:
                resid = max(resid, 1.0 - margins[i])
            elif model.alphas[i] >= c - 1e-8:
                resid = max(resid, margins[i] - 1.0)
            else:
                resid = max(resid, abs(margins[i] - 1.0))
        assert resid <= 1e-3


def test_xor():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = svm.train_binary(x, y, 10.0, 1.0)
    np.testing.assert_array_equal(model.predict(x), y)


def _blobs(rng, centers, per_class=15, spread=0.25):
    xs, ys = [], []
    for label, center in centers:
        xs.append(rng.normal(scale=spread, size=(per_class, 2)) + center)
        ys.extend([label] * per_class)
    return np.vstack(xs), np.array(ys)


def test_three_blob_multiclass():
    rng = np.random.default_rng(45)
    x, y = _blobs(rng, [(1, (0, 0)), (2, (4, 0)), (3, (0, 4))])
    model = svm.train_multiclass(x, y, 10.0, 1.0)
    assert (model.predict(x) == y).all()


def test_two_label_multiclass_reduces_to_binary():
    rng = np.random.default_rng(46)
    x, y = _blobs(rng, [(1, (0, 0)), (2, (3, 3))])
    multi = svm.train_multiclass(x, y, 5.0, 0.8)
    assert len(multi.pairs) == 1
    label_a, label_b, binary = multi.pairs[0]
    assert (label_a, label_b) == (1, 2)
    values = binary.decision_function(multi._scale(x))
    expected = np.where(values > 0, label_a, label_b)
    np.testing.assert_array_equal(multi.predict(x), expected)


def test_label_permutation_invariance():
    rng = np.random.default_rng(47)
    x, y = _blobs(rng, [(1, (0, 0)), (2, (4, 0)), (3, (0, 4))])
    swap = {1: 3, 2: 1, 3: 2}
    swapped = np.array([swap[v] for v in y])
    base = svm.train_multiclass(x, y, 10.0, 1.0).predict(x)
    permuted = svm.train_multiclass(x, swapped, 10.0, 1.0).predict(x)
    np.testing.assert_array_equal(np.array([swap[v] for v in base]), permuted)


def test_vote_tie_breaks_on_aggregate_margin():
    # Three far-apart singleton classes force a 1-1-1 vote cycle for a
    # query near the shared centroid; the label with the largest summed
    # |decision| must win, then the smallest label on exact ties.
    x = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])
    y = np.array([1, 2, 3])
    model = svm.train_multiclass(x, y, 10.0, 0.5)
    query = x.mean(axis=0)
    votes = {}
    margins = dict.fromkeys(y.tolist(), 0.0)
    scaled = model._scale(query[np.newaxis, :])
    for label_a, label_b, binary in model.pairs:
        value = float(binary.decision_function(scaled)[0])
        winner = label_a if value > 0 else label_b
        votes[winner] = votes.get(winner, 0) + 1
        margins[label_a] += abs(value)
        margins[label_b] += abs(value)
    if len(set(votes.values())) == 1 and len(votes) == 3:
        top = max(votes, key=lambda lab: (margins[lab], -lab))
        assert model.predict(query) == top


def test_predict_matches_row_by_row_vote():
    # Four overlapping classes give many split votes across the grid.
    rng = np.random.default_rng(49)
    x, y = _blobs(rng, [(1, (0, 0)), (2, (2, 0)), (3, (0, 2)), (4, (2, 2))],
                  spread=0.8)
    model = svm.train_multiclass(x, y, 2.0, 0.5)
    grid = np.stack(np.meshgrid(np.linspace(-2, 4, 25), np.linspace(-2, 4, 25)),
                    axis=-1).reshape(-1, 2)
    np.testing.assert_array_equal(model.predict(grid), one_vs_one_vote(model, grid))
    assert model.predict(grid[7]) == one_vs_one_vote(model, grid[7])[0]


def test_predict_dimension_mismatch():
    rng = np.random.default_rng(48)
    x, y = _blobs(rng, [(1, (0, 0)), (2, (3, 3))])
    model = svm.train_multiclass(x, y, 5.0, 0.8)
    with pytest.raises(DimensionMismatchError):
        model.predict(np.ones(5))


def test_single_class_rejected():
    x = np.ones((4, 2))
    with pytest.raises(SingleClassError):
        svm.train_multiclass(x, np.array([1, 1, 1, 1]), 1.0, 1.0)
    with pytest.raises(EmptyInputError):
        svm.train_binary(np.empty((0, 2)), np.empty(0), 1.0, 1.0)


def test_dual_objective_hand_value():
    kernel = np.eye(2)
    labels = np.array([1.0, -1.0])
    alphas = np.array([0.5, 0.5])
    # sum(a) - 0.5 * (ya)'K(ya) = 1 - 0.5 * 0.5 = 0.75
    assert svm.dual_objective(kernel, labels, alphas) == pytest.approx(0.75)


def test_grid_search_single_point():
    rng = np.random.default_rng(49)
    x, y = _blobs(rng, [(1, (0, 0)), (2, (4, 4))], per_class=8)
    result = svm.grid_search(x, y, c_grid=[2.0], gamma_grid=[0.5], folds=2)
    assert result.c_penalty == 2.0
    assert result.gamma == 0.5
    assert 0.0 <= result.cv_accuracy <= 1.0
    assert len(result.table) == 1


def test_grid_search_detects_overfit_gamma():
    rng = np.random.default_rng(50)
    x, y = _blobs(rng, [(1, (0, 0)), (2, (2.5, 0))], per_class=20, spread=0.6)
    result = svm.grid_search(x, y, c_grid=[5.0], gamma_grid=[0.5, 1e6], folds=5)
    table = {gamma: acc for _, gamma, acc in result.table}
    assert table[0.5] > table[1e6]
    assert result.gamma == 0.5


def test_grid_search_deterministic_and_tie_breaks_small():
    rng = np.random.default_rng(51)
    x, y = _blobs(rng, [(1, (0, 0)), (2, (6, 6))], per_class=10)
    # Trivially separable: every grid point scores 1.0, so the smallest
    # C then smallest gamma must win.
    result = svm.grid_search(x, y, c_grid=[10.0, 1.0], gamma_grid=[2.0, 0.5], folds=2)
    again = svm.grid_search(x, y, c_grid=[10.0, 1.0], gamma_grid=[2.0, 0.5], folds=2)
    assert result.cv_accuracy == 1.0
    assert (result.c_penalty, result.gamma) == (1.0, 0.5)
    assert (again.c_penalty, again.gamma) == (result.c_penalty, result.gamma)


def _uneven_classes(seed, dims=3):
    """Four overlapping classes of 7 to 16 rows, with one constant feature."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(7, 17, size=4)
    y = np.repeat(np.arange(1, 5), sizes)
    x = rng.normal(scale=0.9, size=(y.size, dims)) + 0.6 * y[:, None]
    return np.column_stack([x, np.full(y.size, 2.5)]), y


@pytest.mark.parametrize("x, y, c_grid, gamma_grid, folds, seed", [
    (*_uneven_classes(70), [10.0, 0.1, 1.0], [2.0, 0.05, 0.5], 2, 0),
    (*_uneven_classes(71), [100.0, 3.0], [0.3, 1.5, 0.02], 3, 4),
    (*_uneven_classes(72, dims=6), None, None, 4, 1),
    (*_uneven_classes(73), [0.5, 50.0], [1.0], 5, 2),
    # Every grid point scores 1.0: the tie-break case.
    (*_blobs(np.random.default_rng(51), [(1, (0, 0)), (2, (6, 6))], per_class=10),
     [10.0, 1.0], [2.0, 0.5], 2, 0),
])
def test_grid_search_matches_sequential_oracle_bitwise(x, y, c_grid, gamma_grid, folds,
                                                       seed):
    got = svm.grid_search(x, y, c_grid, gamma_grid, folds=folds, seed=seed)
    want = sequential_grid_search(x, y, c_grid, gamma_grid, folds=folds, seed=seed)
    np.testing.assert_array_equal(_bits(got.table), _bits(want.table))
    assert got == want


def test_grid_search_raises_the_first_cap_error_in_grid_order(monkeypatch):
    # Points on a line at C = 1e4 need thousands of iterations per row. With
    # a cap of 40 n, fits of several sizes fail on different rounds, and the
    # first fit in grid order to fail is not the first to reach its cap.
    monkeypatch.setattr(svm, "_SMO_CAP_PER_ROW", 40)
    rng = np.random.default_rng(63)
    y = np.repeat([1, 2, 3], [14, 5, 9])
    x = rng.normal(size=(y.size, 1))
    args = (x, y, [1e4, 1.0], [0.7])
    with pytest.raises(NoConvergenceError) as want:
        sequential_grid_search(*args, folds=2, seed=3)
    with pytest.raises(NoConvergenceError) as got:
        svm.grid_search(*args, folds=2, seed=3)
    assert str(got.value) == str(want.value)
    assert _bits(got.value.residual) == _bits(want.value.residual)


def test_stratified_folds_balanced():
    labels = np.array([1] * 9 + [2] * 6)
    folds = svm.stratified_folds(labels, 3, seed=0)
    assert sorted(np.concatenate(folds).tolist()) == list(range(15))
    for fold in folds:
        fold_labels = labels[fold]
        assert np.sum(fold_labels == 1) == 3
        assert np.sum(fold_labels == 2) == 2


def test_stratified_folds_too_few():
    labels = np.array([1, 1, 1, 2])
    with pytest.raises(TooFewPerClassError):
        svm.stratified_folds(labels, 2, seed=0)


def test_default_grids_scale_with_dimension():
    c_grid, gamma_grid = svm.default_grids(10)
    assert all(c > 0 for c in c_grid)
    assert gamma_grid == pytest.approx((0.01, 0.1, 1.0))
