"""Linear-algebra kernels against closed forms and series oracles."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from conftest import random_pair
from deepo import harness
from deepo.engine import DeepoState, offline_init, run_online
from deepo.errors import NoConvergence, NotStable, NotSymmetric, Unstabilizable
from deepo.lqr_core import DataCovariances, LqrWeights, initial_policy
from deepo.numerics import (
    numerical_rank,
    riccati_gain,
    solve_dlyap,
    spectral_radius,
)
from deepo.plant import model_lqr_gain


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
    # Each pair has an unreachable unstable mode, so ||P|| overflows; the
    # iteration must say so before an overflow warns, instead of reading
    # inf <= inf as convergence.
    t = np.array([[1.0, 1.0], [0.0, 1e-3]])
    cases = [
        (np.diag([1.5, 0.5]), np.array([[0.0], [1.0]]), np.eye(2), np.eye(1)),
        # Mode 2 behind T with cheap control: at the ninth step the H
        # update is about 1e308, where symmetrizing it would overflow.
        (
            t @ np.array([[0.3, 1.0], [0.0, 2.0]]) @ np.linalg.inv(t),
            t @ np.array([[1.0, 1.0], [0.0, 0.0]]),
            np.eye(2),
            1e-6 * np.eye(2),
        ),
        # Mode 1.41: the product that forms the H update overflows at the
        # tenth step.
        (
            np.array([[-0.09949974913028137, 1.3456298650362983], [0.0, 1.4146865369430786]]),
            np.array([[0.1531721445789296, 0.11235629143420875], [0.0, 0.0]]),
            0.5640544337694617 * np.eye(2),
            0.0017090815599573482 * np.eye(2),
        ),
    ]
    for a, b, q, r in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NoConvergence, match="diverged"):
                riccati_gain(a, b, q, r)


def test_riccati_doubling_matches_value_iteration_oracle(rng):
    # The value-iteration oracle behind model_lqr_gain reaches the same
    # fixed point sweep by sweep.  Open-loop modes up to |lambda| = 1.2, and
    # weakly actuated pairs whose optimal closed loop stays slow.
    slowest = 0.0
    for trial in range(40):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 3))
        if trial < 30:
            a, b = random_pair(rng, n, m, rho=rng.uniform(0.5, 1.2))
        else:
            a, b = random_pair(rng, n, m, rho=0.985)
            b = 0.02 * b
        q, r = np.eye(n), np.eye(m)
        k = riccati_gain(a, b, q, r)
        k_oracle = model_lqr_gain(a, b, q, r)
        assert np.linalg.norm(k - k_oracle) <= 1e-9 * np.linalg.norm(k_oracle)
        if trial >= 30:
            slowest = max(slowest, spectral_radius(a + b @ k))
    assert 0.975 <= slowest < 0.985


def _converter_certainty_equivalence_problem():
    # The pair and weights that activation hands to riccati_gain on the
    # bundled converter scenario (seed 7).
    config = harness.load_scenario("converter")
    splant = harness._build_plant(config)
    state = DeepoState.fresh(config.deepo, splant.plant.m, harness._engine_seed(config))
    # Stop just before activation, then fit the excitation window as it would.
    run_online(
        state,
        splant,
        steps=config.activation_step,
        activation_step=config.activation_step,
        excitation_start=config.excitation_start,
    )
    window = state.history.window(config.excitation_start, config.activation_step)
    fitted = offline_init(window, config.deepo)
    cov = fitted.cov
    ba = np.linalg.solve(cov.phi, cov.z1_bar.T).T
    return ba[:, cov.m :], ba[:, : cov.m], fitted.weights, fitted.initial_gain


def test_riccati_doubling_step_budget():
    # Value iteration needs over 500 sweeps on the converter's estimated
    # closed loop (spectral radius about 0.977); doubling needs 11 steps.
    a, b, weights, initial_gain = _converter_certainty_equivalence_problem()
    k = riccati_gain(a, b, weights.q, weights.r, max_iter=20)
    npt.assert_array_equal(k, initial_gain)
    assert 0.97 < spectral_radius(a + b @ k) < 0.98
    # The unreachable 1.5 mode is reported as divergence within the same
    # budget, and without an overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NoConvergence, match="diverged"):
            riccati_gain(np.diag([1.5, 0.5]), np.array([[0.0], [1.0]]), np.eye(2), np.eye(1), max_iter=20)


def test_riccati_cheap_control_limit_is_no_convergence():
    # B R^-1 B' Q = 1e16 [[1, 1], [1, 1]]: I + GH rounds to a singular
    # matrix, which doubling reports as NoConvergence, not a numpy error.
    b = np.array([[1e8], [1e8]])
    with pytest.raises(NoConvergence, match="singular"):
        riccati_gain(np.diag([0.5, 0.3]), b, np.eye(2), np.eye(1))


def test_riccati_singular_final_gain_solve_is_no_convergence():
    # An unreachable unstable mode (lambda = 1.257) behind a similarity
    # transform with condition number 9.9e5, Q = 5.4e3 I and R = 3.1e-5 I:
    # the H update falls below tolerance, but R + B'HB rounds to a singular
    # matrix.  The last
    # solve reports that as NoConvergence, and initial_policy as
    # Unstabilizable, not as a numpy LinAlgError.
    a = np.array([[9514.506437175556, -761.9848920882168], [118790.3064054756, -9513.51704282744]])
    b = np.array([[-8848.439606024986, 6105.292377173933], [-110488.94272244105, 76235.73531608979]])
    weights = LqrWeights(5404.25273815987 * np.eye(2), 3.06256550465209e-05 * np.eye(2))
    with pytest.raises(NoConvergence, match="R \\+ B'PB is numerically singular"):
        riccati_gain(a, b, weights.q, weights.r)
    cov = DataCovariances(phi=np.eye(4), phi_inv=np.eye(4), z1_bar=np.hstack([b, a]), count=10)
    with pytest.raises(Unstabilizable):
        initial_policy(cov, weights)
