"""Shared helpers: random minimal systems and data collection."""

import numpy as np
import pytest

from deepo.errors import DegenerateData
from deepo.numerics import numerical_rank
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


def drive(model, inputs):
    """Apply an input sequence and return the measured outputs, shape (T, p)."""
    return np.array([model.step(u) for u in inputs])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
