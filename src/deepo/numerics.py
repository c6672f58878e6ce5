"""Dense linear-algebra kernels shared by every module.

Discrete Lyapunov solves, spectral radius, numerical rank, and a
fixed-point Riccati solver for undiscounted infinite-horizon LQR gains.
Everything here is a pure function of plain 2-D float arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import IllConditioned, NoConvergence, NotStable, NotSymmetric

# Margin below one at which a spectral radius is treated as unstable.
STABILITY_MARGIN = 1e-12


def _as_square(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    m = _as_square(m)
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def solve_dlyap(a_cl: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve the discrete Lyapunov equation X = W + A X A^T.

    Args:
        a_cl: square Schur-stable matrix A.
        w: symmetric right-hand side of the same shape.

    Returns:
        The unique symmetric solution X, with residual
        ``||X - W - A X A^T||_F <= 1e-10 ||X||_F``.

    Raises:
        NotStable: if the spectral radius of ``a_cl`` is >= 1 - 1e-12.
        NotSymmetric: if ``w`` is not symmetric to 1e-10 relative tolerance.
        NoConvergence: if the doubling iteration has not converged after
            200 squarings.
        IllConditioned: if the solution misses the residual bound.
    """
    a = _as_square(a_cl, "a_cl")
    w = _as_square(w, "w")
    if a.shape != w.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {w.shape}")
    w_norm = np.linalg.norm(w)
    if np.linalg.norm(w - w.T) > 1e-10 * max(w_norm, 1e-300):
        raise NotSymmetric("right-hand side of Lyapunov equation is not symmetric")
    rho = spectral_radius(a)
    if rho >= 1.0 - STABILITY_MARGIN:
        raise NotStable(f"spectral radius {rho:.12g} is not below one")
    return _dlyap_doubling(a, w)


def _dlyap_doubling(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared-Smith doubling solve of X = W + A X A^T, without input checks.

    For callers that have already checked that ``a`` is Schur stable and
    ``w`` is a symmetric matrix of the same shape; :func:`solve_dlyap`
    documents the contract.  X <- X + A_k X A_k^T with A_k = A^(2^k) sums
    the series in O(log) matrix products.
    """
    # Squared Frobenius norms via vdot: the same tests as comparing norms,
    # at a fraction of np.linalg.norm's call overhead on small matrices.
    w = 0.5 * (w + w.T)
    x = w
    a_k = a
    for _ in range(200):
        delta = a_k @ x @ a_k.T
        x = x + delta
        if np.vdot(delta, delta) <= 1e-30 * np.vdot(x, x):
            break
        a_k = a_k @ a_k
    else:
        raise NoConvergence("doubling iteration for Lyapunov solve stalled")
    x = 0.5 * (x + x.T)
    residual = x - w - a @ x @ a.T
    if np.vdot(residual, residual) > 1e-20 * np.vdot(x, x):
        raise IllConditioned(
            f"Lyapunov residual {np.linalg.norm(residual):.3g} exceeds tolerance; "
            "problem is too ill-conditioned"
        )
    return x


def numerical_rank(m: np.ndarray, tol: float = 1e-8) -> int:
    """Number of singular values above ``tol`` times the largest one."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def riccati_gain(
    a: np.ndarray,
    b: np.ndarray,
    q: np.ndarray,
    r: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> np.ndarray:
    """Optimal state-feedback gain for u = K x by Riccati value iteration.

    Iterates ``P <- Q + A^T P A - A^T P B (R + B^T P B)^{-1} B^T P A`` from
    P = Q until the fixed-point residual drops below ``tol`` (relative), then
    returns ``K = -(R + B^T P B)^{-1} B^T P A``.

    Raises:
        NoConvergence: if the residual does not reach ``tol`` within
            ``max_iter`` sweeps, or the resulting closed loop is not stable.
    """
    a = _as_square(a, "a")
    b = np.asarray(b, dtype=float)
    q = _as_square(q, "q")
    r = _as_square(r, "r")
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"b has {b.shape[0]} rows, expected {n}")
    p = 0.5 * (q + q.T)
    for _ in range(max_iter):
        bpb = r + b.T @ p @ b
        bpa = b.T @ p @ a
        k = -np.linalg.solve(bpb, bpa)
        p_next = q + a.T @ p @ a + a.T @ p @ b @ k
        p_next = 0.5 * (p_next + p_next.T)
        if np.linalg.norm(p_next - p) <= tol * max(1.0, np.linalg.norm(p_next)):
            p = p_next
            k = -np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
            if spectral_radius(a + b @ k) >= 1.0:
                raise NoConvergence("Riccati iteration converged to a non-stabilizing gain")
            return k
        p = p_next
    raise NoConvergence(f"Riccati iteration did not converge in {max_iter} sweeps")
