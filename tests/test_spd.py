import logging

import numpy as np
import pytest
from scipy.linalg import expm, logm, sqrtm

from faultmon import spd
from faultmon.errors import (
    DomainError,
    NotSpdError,
    NotSymmetricError,
    WindowTooShortError,
)
from tests.oracles import tangent_unvectorize


def random_spd(rng, p, max_condition=1e4):
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    eigs = rng.uniform(1.0, max_condition ** 0.5, size=p)
    eigs[0] = 1.0
    return (q * eigs) @ q.T


def test_covariance_hand_case():
    window = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    np.testing.assert_allclose(
        spd.covariance(window), np.diag([2.0 / 3.0, 2.0 / 3.0]), atol=1e-15
    )


def test_covariance_p1():
    out = spd.covariance(np.array([[1.0], [2.0], [3.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(1.0)


def test_covariance_matches_numpy():
    rng = np.random.default_rng(12)
    window = rng.normal(size=(60, 5))
    np.testing.assert_allclose(
        spd.covariance(window), np.cov(window, rowvar=False), rtol=1e-12
    )


def test_covariance_ridge_restores_spd():
    rng = np.random.default_rng(13)
    window = rng.normal(size=(30, 4))
    window[:, 3] = window[:, 0]  # exact collinearity, eigenvalue zero
    cov = spd.covariance(window)
    spd.check_spd(cov)
    assert np.linalg.eigvalsh(cov)[0] > 0


def test_covariance_all_constant_window(caplog):
    window = np.ones((10, 3))
    with caplog.at_level(logging.WARNING, logger="faultmon.spd"):
        cov = spd.covariance(window)
    np.testing.assert_allclose(cov, 1e-6 * np.eye(3))
    assert any("constant" in rec.message for rec in caplog.records)


def test_covariance_window_too_short():
    with pytest.raises(WindowTooShortError):
        spd.covariance(np.ones((1, 3)))


def test_check_spd_errors():
    with pytest.raises(NotSymmetricError):
        spd.check_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotSpdError):
        spd.check_spd(np.array([[1.0, 0.0], [0.0, -2.0]]))


def test_log_hand_cases():
    base = np.eye(2)
    point = np.diag([np.e, np.e ** 2])
    np.testing.assert_allclose(
        spd.spd_log(base, point), np.diag([1.0, 2.0]), atol=1e-12
    )
    # Commuting pair: closed form B^(1/2) logm(B^(-1)X) B^(1/2) reduces to
    # B logm(B^(-1)X) elementwise on the diagonal.
    base = np.diag([4.0, 1.0])
    point = np.diag([1.0, 4.0])
    expected = np.diag([4.0 * np.log(0.25), np.log(4.0)])
    np.testing.assert_allclose(spd.spd_log(base, point), expected, atol=1e-12)


def test_log_of_base_is_zero():
    rng = np.random.default_rng(14)
    for _ in range(20):
        base = random_spd(rng, 5)
        assert np.abs(spd.spd_log(base, base)).max() < 1e-12


@pytest.mark.parametrize("metric", [spd.METRIC_AFFINE, spd.METRIC_LOG_EUCLIDEAN])
def test_log_at_decomposed_base_matches_matrix_bitwise(metric, monkeypatch):
    rng = np.random.default_rng(14)
    base = random_spd(rng, 6)
    points = [random_spd(rng, 6) for _ in range(4)]
    expected = [spd.spd_log(base, point, metric) for point in points]
    checked = []
    checked_spd = spd._checked_spd

    def counting_checked_spd(mat, name):
        checked.append(name)
        return checked_spd(mat, name)

    monkeypatch.setattr(spd, "_checked_spd", counting_checked_spd)
    decomposed = spd._Base(base)
    for point, want in zip(points, expected):
        np.testing.assert_array_equal(spd.spd_log(decomposed, point, metric), want)
    assert checked == ["base"] + ["point"] * len(points)


def test_decomposed_base_fails_at_first_map():
    decomposed = spd._Base(np.diag([1.0, -1.0]))
    with pytest.raises(NotSpdError):
        spd.spd_log(decomposed, np.eye(2))


def test_exp_hand_cases():
    rng = np.random.default_rng(15)
    base = random_spd(rng, 3)
    np.testing.assert_allclose(spd.spd_exp(base, np.zeros((3, 3))), base, atol=1e-12)
    np.testing.assert_allclose(
        spd.spd_exp(np.eye(2), np.diag([1.0, 2.0])),
        np.diag([np.e, np.e ** 2]),
        atol=1e-12,
    )


@pytest.mark.parametrize("metric", [spd.METRIC_AFFINE, spd.METRIC_LOG_EUCLIDEAN])
def test_log_exp_round_trip(metric):
    rng = np.random.default_rng(16)
    for _ in range(50):
        p = int(rng.integers(2, 11))
        base = random_spd(rng, p)
        point = random_spd(rng, p)
        back = spd.spd_exp(base, spd.spd_log(base, point, metric), metric)
        assert np.abs(back - point).max() < 1e-8


def test_affine_log_matches_scipy():
    rng = np.random.default_rng(17)
    base = random_spd(rng, 4)
    point = random_spd(rng, 4)
    half = sqrtm(base)
    inv_half = np.linalg.inv(half)
    expected = half @ logm(inv_half @ point @ inv_half) @ half
    np.testing.assert_allclose(spd.spd_log(base, point), expected, atol=1e-9)


def test_log_euclidean_log_matches_scipy():
    rng = np.random.default_rng(18)
    base = random_spd(rng, 4)
    point = random_spd(rng, 4)
    expected = logm(point) - logm(base)
    np.testing.assert_allclose(
        spd.spd_log(base, point, spd.METRIC_LOG_EUCLIDEAN), expected, atol=1e-9
    )


def test_distance_congruence_invariance():
    rng = np.random.default_rng(19)
    a = random_spd(rng, 4)
    b = random_spd(rng, 4)
    g = rng.normal(size=(4, 4))
    while abs(np.linalg.det(g)) < 1e-3:
        g = rng.normal(size=(4, 4))
    d1 = spd.spd_distance(a, b)
    d2 = spd.spd_distance(g @ a @ g.T, g @ b @ g.T)
    assert d1 == pytest.approx(d2, abs=1e-6)


def test_distance_symmetry_and_identity():
    rng = np.random.default_rng(20)
    a = random_spd(rng, 3)
    b = random_spd(rng, 3)
    assert spd.spd_distance(a, a) < 1e-9
    assert spd.spd_distance(a, b) == pytest.approx(spd.spd_distance(b, a), rel=1e-10)


def test_karcher_single_matrix():
    rng = np.random.default_rng(21)
    a = random_spd(rng, 4)
    np.testing.assert_allclose(spd.karcher_mean([a]), a, atol=1e-10)


def test_karcher_commuting_pair():
    mean = spd.karcher_mean([np.diag([1.0, 4.0]), np.diag([4.0, 1.0])])
    np.testing.assert_allclose(mean, np.diag([2.0, 2.0]), atol=1e-8)


def test_karcher_two_matrix_geodesic_midpoint():
    rng = np.random.default_rng(22)
    a = random_spd(rng, 5)
    b = random_spd(rng, 5)
    half = sqrtm(a)
    inv_half = np.linalg.inv(half)
    midpoint = half @ sqrtm(inv_half @ b @ inv_half) @ half
    np.testing.assert_allclose(spd.karcher_mean([a, b]), midpoint, atol=1e-6)


def test_karcher_log_euclidean_closed_form():
    rng = np.random.default_rng(23)
    mats = [random_spd(rng, 4) for _ in range(5)]
    expected = expm(np.mean([logm(m) for m in mats], axis=0))
    got = spd.karcher_mean(mats, spd.METRIC_LOG_EUCLIDEAN)
    np.testing.assert_allclose(got, expected, atol=1e-9)


def reference_karcher_mean(matrices, tol_scale=1e-6, max_iter=100):
    """The fixed-point iteration written with the public maps alone."""
    mats = [spd.check_spd(m) for m in matrices]
    mean = 0.5 * (np.mean(mats, axis=0) + np.mean(mats, axis=0).T)
    for _ in range(max_iter):
        tangent = np.mean([spd.spd_log(mean, m) for m in mats], axis=0)
        if np.linalg.norm(tangent, "fro") < tol_scale * mean.shape[0]:
            return mean
        mean = spd.spd_exp(mean, tangent)
    raise AssertionError("oracle did not converge")


@pytest.mark.parametrize("p, count", [(p, 6) for p in range(2, 11)] + [(20, 50)])
def test_karcher_matches_public_map_iteration(p, count):
    # The shared whitening inside karcher_mean must reproduce the
    # spd_log / spd_exp iteration bit for bit.
    rng = np.random.default_rng(100 + p)
    mats = [random_spd(rng, p) for _ in range(count)]
    assert np.array_equal(spd.karcher_mean(mats), reference_karcher_mean(mats))


def test_karcher_logs_iterations_and_residual(caplog):
    with caplog.at_level(logging.DEBUG, logger="faultmon.spd"):
        spd.karcher_mean([np.diag([1.0, 4.0]), np.diag([4.0, 1.0])])
    (record,) = [r for r in caplog.records if "Karcher" in r.message]
    assert record.levelno == logging.DEBUG
    assert "iterations" in record.message and "residual" in record.message


def test_karcher_mean_minimizes_gradient():
    # At the Karcher mean the tangent vectors to the inputs sum to ~zero.
    rng = np.random.default_rng(24)
    mats = [random_spd(rng, 3) for _ in range(6)]
    mean = spd.karcher_mean(mats)
    total = sum(spd.spd_log(mean, m) for m in mats)
    assert np.abs(total).max() < 1e-5


def test_karcher_mean_converges_on_dispersed_set(caplog):
    # Eigenvalues spread over seven decades in random bases. Unit steps
    # overshoot: the residual rises after the third iteration and is still
    # about 0.15 at the iteration cap.
    rng = np.random.default_rng(3)
    mats = []
    for _ in range(10):
        basis, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        mats.append((basis * 10.0 ** rng.uniform(-7.0, 0.0, size=5)) @ basis.T)
    assert max(np.linalg.cond(m) for m in mats) > 1e6
    with caplog.at_level(logging.DEBUG, logger="faultmon.spd"):
        mean = spd.karcher_mean(mats)
    assert any("step halved" in r.message for r in caplog.records)
    tangent = np.mean([spd.spd_log(mean, m) for m in mats], axis=0)
    assert np.linalg.norm(tangent, "fro") < 1e-6 * 5


def test_vectorize_hand_case():
    s = np.array([[1.0, 2.0], [2.0, 3.0]])
    flat = spd.tangent_vectorize(s)
    np.testing.assert_allclose(flat, [1.0, 2.0 * np.sqrt(2.0), 3.0])
    np.testing.assert_allclose(spd.tangent_vectorize(np.zeros((3, 3))), np.zeros(6))


def test_vectorize_isometry():
    s = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.linalg.norm(spd.tangent_vectorize(s)) == pytest.approx(
        np.sqrt(18.0), abs=1e-12
    )
    rng = np.random.default_rng(25)
    for _ in range(20):
        p = int(rng.integers(1, 8))
        sym = rng.normal(size=(p, p))
        sym = (sym + sym.T) / 2.0
        assert np.linalg.norm(spd.tangent_vectorize(sym)) == pytest.approx(
            np.linalg.norm(sym, "fro"), abs=1e-12
        )


def test_vectorize_round_trip():
    rng = np.random.default_rng(26)
    sym = rng.normal(size=(6, 6))
    sym = (sym + sym.T) / 2.0
    back = tangent_unvectorize(spd.tangent_vectorize(sym))
    np.testing.assert_allclose(back, sym, atol=1e-12)


def test_unknown_metric_rejected():
    with pytest.raises(DomainError):
        spd.spd_log(np.eye(2), np.eye(2), "euclidean")
