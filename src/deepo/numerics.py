"""Dense linear-algebra kernels shared by every module.

Discrete Lyapunov solves by squared-Smith doubling, spectral radius,
numerical rank, and a structure-preserving doubling (SDA) Riccati solver
for undiscounted infinite-horizon LQR gains.
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


def _dlyap_doubling(a: np.ndarray, w: np.ndarray, bound: float | None = None) -> np.ndarray:
    """Squared-Smith doubling solve of X = W + A X A^T, without input checks.

    For callers that have already checked that ``w`` is a symmetric matrix
    of the same shape as ``a`` and that ``a`` is Schur stable, or that pass
    ``bound``; :func:`solve_dlyap` documents the contract.
    X <- X + A_k X A_k^T with A_k = A^(2^k) sums the series in O(log)
    matrix products.

    With ``bound`` the solve is its own stability test for ``w = I``: the
    partial sums grow monotonically towards X, so NotStable is raised as
    soon as ``||X||_F`` reaches ``bound`` or an iterate is not finite.
    ``||A||_F^2 >= n bound`` already forces ``||I + A A^T||_F >= bound`` and
    is rejected before the first product, which therefore cannot overflow;
    every later product is bounded by the accepted iterate.
    """
    # Squared Frobenius norms via vdot: the same tests as comparing norms,
    # at a fraction of np.linalg.norm's call overhead on small matrices, and
    # an overflowing sum reads inf instead of warning.
    if bound is not None and not np.vdot(a, a) < len(a) * bound:
        raise NotStable("closed-loop matrix too large for a solution within the bound")
    w = 0.5 * (w + w.T)
    x = w
    a_k = a
    for _ in range(200):
        delta = a_k.dot(x).dot(a_k.T)
        x = x + delta
        xx = np.vdot(x, x)
        if bound is not None and not xx < bound * bound:
            raise NotStable("Lyapunov iterates reached the bound or are not finite")
        if np.vdot(delta, delta) <= 1e-30 * xx:
            break
        a_k = a_k.dot(a_k)
    else:
        raise NoConvergence("doubling iteration for Lyapunov solve stalled")
    x = 0.5 * (x + x.T)
    residual = x - w - a.dot(x).dot(a.T)
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
    max_iter: int = 100,
) -> np.ndarray:
    """Optimal state-feedback gain for u = K x by structure-preserving doubling.

    Solves ``P = Q + A^T P A - A^T P B (R + B^T P B)^{-1} B^T P A`` with the
    structure-preserving doubling algorithm (SDA: Chu, Fan, Lin & Wang,
    Int. J. Control 77(8), 2004; Anderson, Int. J. Control 28(2), 1978).
    From ``A_0 = A``, ``G_0 = B R^{-1} B^T`` and ``H_0 = Q`` each step sets
    ``W = I + G H`` and, with every right-hand side from the previous step::

        A <- A W^{-1} A,  G <- G + A W^{-1} G A^T,  H <- H + A^T H W^{-1} A

    H increases monotonically to the stabilizing solution P, quadratically:
    after k steps it equals the value-iteration iterate after 2^k - 1 sweeps
    from P = Q, so a closed loop at spectral radius rho needs about
    log2(log(tol) / (2 log(rho))) + 1 steps: 11 at rho = 0.977, where value
    iteration takes over 500 sweeps.  The iteration stops once the update of
    H is below ``tol`` relative (Frobenius norm), then returns
    ``K = -(R + B^T P B)^{-1} B^T P A``.  ``max_iter`` counts doubling steps.

    G and H stay symmetric positive semidefinite, so W is nonsingular, but
    its condition number grows with the largest eigenvalue of
    ``B R^{-1} B^T Q``, and so does the rounding error of the gain: on
    random pairs, about 1e-10 relative when that eigenvalue is 1e6 and 1e-5
    when it is 1e10.  Where it reaches 1 / eps (cheap control) W is singular
    in floating point.  The certainty-equivalence problems of the bundled
    scenarios sit at 1 to 5.  :func:`deepo.plant.model_lqr_gain` is the
    value-iteration oracle this solver is tested against.

    Raises:
        NoConvergence: if H has not converged within ``max_iter`` doubling
            steps, the iterates diverge, W or ``R + B^T P B`` is singular
            in floating point, or the resulting closed loop is not stable.
    """
    a = _as_square(a, "a")
    b = np.asarray(b, dtype=float)
    q = _as_square(q, "q")
    r = _as_square(r, "r")
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"b has {b.shape[0]} rows, expected {n}")
    eye = np.eye(n)
    a_k = a
    g = b @ np.linalg.solve(r, b.T)
    g = 0.5 * (g + g.T)
    h = 0.5 * (q + q.T)
    # Products of diverging iterates may overflow: they read inf or nan and
    # are reported by the finiteness tests below instead of warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, max_iter + 1):
            try:
                w_ag = np.linalg.solve(eye + g @ h, np.hstack([a_k, g]))
            except np.linalg.LinAlgError:
                raise NoConvergence(
                    f"I + GH is numerically singular at doubling step {step}"
                ) from None
            w_a, w_g = w_ag[:, :n], w_ag[:, n:]
            d = a_k.T @ h @ w_a
            dg = a_k @ w_g @ a_k.T
            # Frobenius norms as sqrt(vdot), the bits np.linalg.norm computes:
            # an overflowing sum reads inf instead of warning.  Finite squared
            # norms of the updates and of H keep every entry below sqrt(max
            # float), so the sums below cannot overflow.
            if not (np.vdot(d, d) < np.inf and np.vdot(dg, dg) < np.inf):
                raise NoConvergence(f"Riccati iterates diverged after {step} doubling steps")
            d = 0.5 * (d + d.T)
            h = h + d
            g = g + dg
            g = 0.5 * (g + g.T)
            a_k = a_k @ w_a
            size = np.sqrt(np.vdot(h, h))
            if not np.isfinite(size):
                raise NoConvergence(f"Riccati iterates diverged after {step} doubling steps")
            if np.sqrt(np.vdot(d, d)) <= tol * max(1.0, size):
                break
        else:
            raise NoConvergence(f"Riccati iteration did not converge in {max_iter} doubling steps")
    try:
        k = -np.linalg.solve(r + b.T @ h @ b, b.T @ h @ a)
    except np.linalg.LinAlgError:
        raise NoConvergence("R + B'PB is numerically singular at the converged P") from None
    if spectral_radius(a + b @ k) >= 1.0:
        raise NoConvergence("Riccati iteration converged to a non-stabilizing gain")
    return k
