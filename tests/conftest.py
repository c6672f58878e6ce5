"""Shared helpers: random minimal systems, data collection, and the
decision-matrix form of the update that the gain-coordinate engine is
checked against."""

import numpy as np
import pytest

from deepo.errors import DegenerateData
from deepo.lqr_core import FEASIBILITY_MARGIN
from deepo.numerics import numerical_rank, solve_dlyap, spectral_radius
from deepo.plant import PlantModel


def random_minimal(rng, n, m, p, rho=0.9):
    """Random minimal (A, B, C) with spectral radius rescaled to rho."""
    for _ in range(50):
        a = rng.standard_normal((n, n))
        a *= rho / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-12)
        b = rng.standard_normal((n, m))
        c = rng.standard_normal((p, n))
        try:
            return PlantModel(a, b, c)
        except ValueError:
            continue
    raise RuntimeError("could not draw a minimal system")


def random_pair(rng, r, m, rho=0.8):
    """Random controllable (A, B) pair for direct-state problems."""
    for _ in range(50):
        a = rng.standard_normal((r, r))
        a *= rho / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-12)
        b = rng.standard_normal((r, m))
        blocks = [np.linalg.matrix_power(a, k) @ b for k in range(r)]
        if np.linalg.matrix_rank(np.hstack(blocks)) == r:
            return a, b
    raise RuntimeError("could not draw a controllable pair")


def direct_data(rng, a, b, steps, amplitude=1.0, noise_std=0.0):
    """Open-loop (u, z, z+) samples as columns from z+ = A z + B u + w."""
    r, m = a.shape[0], b.shape[1]
    u = rng.uniform(-amplitude, amplitude, size=(m, steps))
    z = np.zeros((r, steps + 1))
    z[:, 0] = rng.standard_normal(r) * 0.1
    for t in range(steps):
        w = rng.standard_normal(r) * noise_std
        z[:, t + 1] = a @ z[:, t] + b @ u[:, t] + w
    return u, z[:, :-1], z[:, 1:]


def fit_linear_dynamics(u_data, z_data, z_next):
    """Least-squares estimate of (A_z, B_z) from (u, z, z+) samples.

    Solves ``z+ = [B A] [u; z]`` in the least-squares sense and returns
    (a_z, b_z).  Raises DegenerateData when [u; z] is not full row rank.
    """
    u_data = np.atleast_2d(np.asarray(u_data, dtype=float))
    z_data = np.atleast_2d(np.asarray(z_data, dtype=float))
    z_next = np.atleast_2d(np.asarray(z_next, dtype=float))
    m = u_data.shape[0]
    d0 = np.vstack([u_data, z_data])
    if numerical_rank(d0) < d0.shape[0]:
        raise DegenerateData("regressor matrix [u; z] is not full row rank")
    ba = z_next @ np.linalg.pinv(d0)
    return ba[:, m:], ba[:, :m]


# The paper's update on the decision matrix V, with Zbar0 V = I, K = Ubar V
# and closed loop Zbar1 V: an LU solve for V, the V gradient, the projector
# from a pseudo-inverse and the feasibility test from eigenvalues.


def parameterize(cov, k):
    """Decision matrix of the gain ``k``: the LU solve of Phi V = [K; I]."""
    return np.linalg.solve(cov.phi, np.vstack([k, np.eye(cov.r)]))


def recover_gain(cov, v):
    """Gain encoded by a decision matrix, K = Ubar V."""
    return cov.phi[: cov.m] @ v


def projector(cov):
    """Orthogonal projector onto the nullspace of Zbar0, I - pinv(Zbar0) Zbar0."""
    return np.eye(cov.m + cov.r) - np.linalg.pinv(cov.phi[cov.m :]) @ cov.phi[cov.m :]


def v_closed_loop(cov, v, weights):
    """``(q_k, sigma)`` of V, or None when Zbar1 V has spectral radius at or
    above ``1 - FEASIBILITY_MARGIN``."""
    a_cl = cov.z1_bar @ v
    if spectral_radius(a_cl) >= 1.0 - FEASIBILITY_MARGIN:
        return None
    k = recover_gain(cov, v)
    return weights.q + k.T @ weights.r @ k, solve_dlyap(a_cl, np.eye(cov.r))


def v_cost(cov, v, weights):
    """LQR cost ``trace((Q + K'RK) Sigma)`` of V, ``inf`` when infeasible."""
    cl = v_closed_loop(cov, v, weights)
    return np.inf if cl is None else float(np.trace(cl[0] @ cl[1]))


def v_gradient(cov, v, weights):
    """Gradient in V, ``2 (Ubar' R Ubar + Zbar1' P Zbar1) V Sigma``."""
    q_k, sigma = v_closed_loop(cov, v, weights)
    p = solve_dlyap((cov.z1_bar @ v).T, q_k)
    return 2.0 * (cov.phi[: cov.m].T @ weights.r @ cov.phi[: cov.m] + cov.z1_bar.T @ p @ cov.z1_bar) @ v @ sigma


def oracle_update(cov, k, weights, eta0, steps):
    """One engine update of the feasible gain ``k``, taken on V.

    ``steps`` projected steps ``V <- V - eta Pi grad_V J`` from
    ``eta = eta0 / ||Ubar Pi Ubar'||_2``, halved up to ten times while the
    trial is infeasible.  Returns ``(gain, cost, eta,
    grad_norm)`` as the engine records them: the first step's accepted eta
    and projected gradient norm.
    """
    v = parameterize(cov, k)
    pi = projector(cov)
    eta_base = eta0 / np.linalg.norm(cov.phi[: cov.m] @ pi @ cov.phi[: cov.m].T, ord=2)
    eta_used = grad_norm = None
    for _ in range(steps):
        pg = pi @ v_gradient(cov, v, weights)
        if grad_norm is None:
            grad_norm = np.linalg.norm(pg)
        eta = eta_base
        for _ in range(11):
            if v_closed_loop(cov, v - eta * pg, weights) is not None:
                v = v - eta * pg
                break
            eta *= 0.5
        else:
            break
        if eta_used is None:
            eta_used = eta
    return recover_gain(cov, v), v_cost(cov, v, weights), eta_used, grad_norm


def drive(model, inputs):
    """Apply an input sequence and return the measured outputs, shape (T, p)."""
    return np.array([model.step(u) for u in inputs])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
