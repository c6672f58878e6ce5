"""Linear-algebra kernels against closed forms and series oracles."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from deepo.errors import NoConvergence, NotStable, NotSymmetric
from deepo.numerics import (
    numerical_rank,
    riccati_gain,
    solve_dlyap,
    spectral_radius,
)


def stable_matrix(rng, n, rho):
    a = rng.standard_normal((n, n))
    return a * rho / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-12)


def dlyap_series(a, w, terms=20_000):
    # Independent oracle: X = sum_k A^k W (A^T)^k, summed term by term.
    x = np.zeros_like(w)
    term = w.copy()
    for _ in range(terms):
        x = x + term
        term = a @ term @ a.T
        if np.linalg.norm(term) < 1e-16 * max(np.linalg.norm(x), 1.0):
            break
    return x


def test_dlyap_scalar_closed_form():
    # a = 0.5, w = 1: x = 1 / (1 - a^2) = 4/3.
    x = solve_dlyap(np.array([[0.5]]), np.array([[1.0]]))
    npt.assert_allclose(x, [[4.0 / 3.0]], rtol=1e-12)


def test_dlyap_matches_series_oracle(rng):
    for _ in range(5):
        a = stable_matrix(rng, 4, 0.85)
        w = rng.standard_normal((4, 4))
        w = w @ w.T + np.eye(4)
        x = solve_dlyap(a, w)
        npt.assert_allclose(x, dlyap_series(a, w), rtol=1e-10, atol=1e-12)


def dlyap_kron(a, w):
    # Independent oracle: the vectorized n^2 x n^2 linear system.
    n = a.shape[0]
    return np.linalg.solve(np.eye(n * n) - np.kron(a, a), w.reshape(-1)).reshape(n, n)


def test_dlyap_non_normal_near_unit_radius(rng):
    # A Jordan-like block at spectral radius 0.999: powers of A grow before
    # they decay, and the solution is large and dominated by the slow mode.
    a = 0.999 * np.eye(4) + 0.1 * np.eye(4, k=1)
    w = rng.standard_normal((4, 4))
    w = w @ w.T + np.eye(4)
    x = solve_dlyap(a, w)
    residual = np.linalg.norm(x - w - a @ x @ a.T)
    assert residual <= 1e-10 * np.linalg.norm(x)
    npt.assert_allclose(x, dlyap_series(a, w), rtol=1e-10, atol=1e-12)
    npt.assert_allclose(x, dlyap_kron(a, w), rtol=1e-10, atol=1e-12)


def test_dlyap_large_doubling_path(rng):
    # n = 40: check both the fixed-point residual and the independent series
    # sum at a size where the Kronecker system would be 1600 x 1600.
    a = stable_matrix(rng, 40, 0.9)
    w = rng.standard_normal((40, 40))
    w = w @ w.T + np.eye(40)
    x = solve_dlyap(a, w)
    residual = np.linalg.norm(x - w - a @ x @ a.T)
    assert residual <= 1e-10 * np.linalg.norm(x)
    npt.assert_allclose(x, dlyap_series(a, w), rtol=1e-9)


def test_dlyap_rejects_unstable(rng):
    a = stable_matrix(rng, 3, 1.0)
    with pytest.raises(NotStable):
        solve_dlyap(a, np.eye(3))


def test_dlyap_rejects_asymmetric_rhs():
    w = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        solve_dlyap(0.5 * np.eye(2), w)


def test_dlyap_shape_guards():
    with pytest.raises(ValueError):
        solve_dlyap(np.zeros((2, 3)), np.eye(2))
    with pytest.raises(ValueError):
        solve_dlyap(0.5 * np.eye(2), np.eye(3))


def test_spectral_radius_known_values():
    assert spectral_radius(np.diag([0.3, -0.9])) == pytest.approx(0.9)
    # Rotation scaled by 0.7 has both eigenvalues on the 0.7 circle.
    theta = 0.4
    rot = 0.7 * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert spectral_radius(rot) == pytest.approx(0.7, rel=1e-12)


def test_numerical_rank_thresholding(rng):
    left = rng.standard_normal((5, 2))
    right = rng.standard_normal((2, 7))
    product = left @ right
    assert numerical_rank(product) == 2
    noisy = product + 1e-12 * rng.standard_normal(product.shape)
    assert numerical_rank(noisy, tol=1e-8) == 2
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_riccati_scalar_closed_form():
    # a = 0.5, b = q = r = 1: the fixed point solves p^2 - p/4 - 1 = 0,
    # so p = (1/4 + sqrt(1/16 + 4)) / 2 and k = -p a / (1 + p).
    p = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0
    k_expected = -p * 0.5 / (1.0 + p)
    k = riccati_gain(np.array([[0.5]]), np.array([[1.0]]), np.eye(1), np.eye(1))
    npt.assert_allclose(k, [[k_expected]], rtol=1e-10)


def test_riccati_zero_dynamics_gives_zero_gain():
    k = riccati_gain(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
    npt.assert_allclose(k, np.zeros((2, 2)), atol=1e-12)


def test_riccati_optimality_identity(rng):
    # The returned gain must satisfy K = -(R + B'PB)^{-1} B'PA with P the
    # closed-loop cost-to-go, and beat random nearby gains on that cost.
    a = stable_matrix(rng, 3, 0.95)
    b = rng.standard_normal((3, 2))
    q, r = np.eye(3), np.eye(2)
    k = riccati_gain(a, b, q, r)
    a_cl = a + b @ k
    assert spectral_radius(a_cl) < 1.0
    # P solves P = Q + K'RK + A_cl' P A_cl (series oracle).
    p = dlyap_series(a_cl.T, q + k.T @ r @ k)
    npt.assert_allclose(k, -np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a), atol=1e-8)

    def cost(gain):
        cl = a + b @ gain
        if spectral_radius(cl) >= 1.0:
            return np.inf
        sigma = dlyap_series(cl, np.eye(3))
        return np.trace((q + gain.T @ r @ gain) @ sigma)

    base = cost(k)
    for _ in range(10):
        assert base <= cost(k + 0.05 * rng.standard_normal(k.shape)) + 1e-9


def test_riccati_unstabilizable_pair_raises():
    # The 1.5 mode is unreachable from the single input.
    a = np.diag([1.5, 0.5])
    b = np.array([[0.0], [1.0]])
    with pytest.raises(NoConvergence):
        riccati_gain(a, b, np.eye(2), np.eye(1), max_iter=500)


def test_riccati_divergence_is_reported_without_warnings():
    # The unreachable 1.5 mode makes ||P|| overflow within 500 sweeps; the
    # iteration must say so instead of reading inf <= inf as convergence.
    a = np.diag([1.5, 0.5])
    b = np.array([[0.0], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NoConvergence, match="diverged"):
            riccati_gain(a, b, np.eye(2), np.eye(1), max_iter=500)
