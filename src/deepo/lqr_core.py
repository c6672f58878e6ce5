"""Covariance-parameterized data-driven LQR.

Sample covariances of (input, reduced state, shifted reduced state) data
parameterize the set of feedback gains directly: any decision matrix V with
Zbar0 V = I yields the gain K = Ubar V and closed-loop matrix Zbar1 V.  The
routines here maintain those covariances recursively, evaluate the LQR cost
and its exact gradient in V, and take projected gradient steps that stay on
the constraint set.  :func:`closed_loop` is the one place a V is tested for
feasibility, and the test is the Lyapunov solve for the closed-loop state
covariance itself: the solve rejects V once that covariance grows past the
bound that keeps the spectral radius below ``1 - FEASIBILITY_MARGIN``.  The
:class:`ClosedLoop` it returns carries the covariance that both the cost and
the gradient are read from.  The Sherman-Morrison inverse ``phi_inv``
serves the rest: the decision matrix of a gain K is ``phi_inv [K; I]``
(:func:`parameterize` is the LU-solve reference for it), and the projector
and the stepsize come from its first m columns N and the m x m Gram matrix
N'N (:class:`Nullspace`), so the per-sample routines here need no general
eigenvalues, pseudo-inverse or SVD; the one spectral quantity left is the
smallest eigenvalue of N'N.

The per-sample products here, in the engine and in the doubling solve are
written ``a.dot(b)`` rather than ``a @ b``: at these sizes call overhead,
not arithmetic, sets the latency, and numpy's ``@`` dispatches through the
matmul gufunc machinery at about twice the cost of ``ndarray.dot``, which
gives the same bits for these shapes and operand layouts.  The exception is
``N'N`` in :meth:`Nullspace.of`, which keeps ``@``: for the column slice N
with 16 or more rows the two round differently.  Frobenius norms are
``sqrt(vdot(x, x))``, which is how ``np.linalg.norm`` computes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotStable,
    RankDeficient,
    Unstabilizable,
    Unstable,
)
from .numerics import _dlyap_doubling, riccati_gain

# Every feasible closed loop has spectral radius below 1 - FEASIBILITY_MARGIN.
# It is enforced through the state covariance Sigma = I + A Sigma A': for a
# unit left eigenvector w of A with eigenvalue lam, 1 - |lam|^2 = 1 / (w' Sigma w)
# >= 1 / ||Sigma||_F, so ||Sigma||_F < _SIGMA_BOUND keeps |lam| < 1 - FEASIBILITY_MARGIN.
FEASIBILITY_MARGIN = 1e-9
_SIGMA_BOUND = 1.0 / (1.0 - (1.0 - FEASIBILITY_MARGIN) ** 2)

_COND_LIMIT = 1e12


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    """The n x n identity, built once per size and read-only, since every
    caller shares it."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True)
class LqrWeights:
    """Positive-definite penalty pair (Q on the reduced state, R on inputs)."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        for name, mat in (("q", self.q), ("r", self.r)):
            mat = np.asarray(mat, dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square")
            if np.linalg.norm(mat - mat.T) > 1e-10 * max(np.linalg.norm(mat), 1e-300):
                raise ValueError(f"{name} must be symmetric")
            try:
                np.linalg.cholesky(mat)
            except np.linalg.LinAlgError:
                raise ValueError(f"{name} must be positive definite") from None
            object.__setattr__(self, name, 0.5 * (mat + mat.T))


def identity_weights(r_dim: int, m: int) -> LqrWeights:
    """Identity penalties, the default weighting."""
    return LqrWeights(q=np.eye(r_dim), r=np.eye(m))


@dataclass(frozen=True)
class DataCovariances:
    """Sample covariances of the data seen so far.

    ``phi`` is the covariance of the stacked sample (u; z) and ``z1_bar``
    the cross-covariance of the shifted state z+ with (u; z); ``u_bar`` and
    ``z0_bar`` are the top m and bottom r block rows of ``phi``.  ``count``
    is the number of samples averaged.  Values are immutable; updates return
    a new instance.
    """

    phi: np.ndarray
    phi_inv: np.ndarray
    z1_bar: np.ndarray
    count: int
    ill_conditioned: bool = False

    @property
    def m(self) -> int:
        return len(self.phi) - len(self.z1_bar)

    @property
    def r(self) -> int:
        return len(self.z1_bar)

    @property
    def u_bar(self) -> np.ndarray:
        return self.phi[: self.m]

    @property
    def z0_bar(self) -> np.ndarray:
        return self.phi[self.m :]


def cov_init(u_data, z_data, z_next) -> DataCovariances:
    """Build covariances from batch data (columns are samples).

    Requires at least m + r samples; raises RankDeficient when the sample
    covariance of (u; z) is singular or has condition number above 1e12.
    """
    u_data = np.atleast_2d(np.asarray(u_data, dtype=float))
    z_data = np.atleast_2d(np.asarray(z_data, dtype=float))
    z_next = np.atleast_2d(np.asarray(z_next, dtype=float))
    if not u_data.shape[1] == z_data.shape[1] == z_next.shape[1]:
        raise DimensionMismatch("u, z, and z+ must have the same sample count")
    if z_next.shape[0] != z_data.shape[0]:
        raise DimensionMismatch("z and z+ must have the same dimension")
    m, r = u_data.shape[0], z_data.shape[0]
    t = u_data.shape[1]
    if t < m + r:
        raise RankDeficient(f"need at least {m + r} samples, got {t}")
    d0 = np.vstack([u_data, z_data])
    phi = (d0 @ d0.T) / t
    phi = 0.5 * (phi + phi.T)
    cond = np.linalg.cond(phi)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise RankDeficient(
            f"sample covariance condition number {cond:.3g} exceeds {_COND_LIMIT:.0e}"
        )
    phi_inv = np.linalg.inv(phi)
    phi_inv = 0.5 * (phi_inv + phi_inv.T)
    return DataCovariances(phi=phi, phi_inv=phi_inv, z1_bar=(z_next @ d0.T) / t, count=t)


def cov_update(cov: DataCovariances, u_t, z_t, z_next) -> DataCovariances:
    """Fold one new sample into the covariances in O((m + r)^2).

    The running means are reweighted by t / (t + 1) and the inverse is kept
    current through a rank-one (Sherman-Morrison) correction.
    """
    u_t = np.asarray(u_t, dtype=float).reshape(-1)
    z_t = np.asarray(z_t, dtype=float).reshape(-1)
    z_next = np.asarray(z_next, dtype=float).reshape(-1)
    if u_t.shape[0] != cov.m or z_t.shape[0] != cov.r or z_next.shape[0] != cov.r:
        raise DimensionMismatch("sample dimensions do not match the covariances")
    t = cov.count
    phi_vec = np.concatenate([u_t, z_t])
    scale = t / (t + 1.0)
    phi = scale * cov.phi + phi_vec[:, None] * phi_vec / (t + 1.0)
    phi = 0.5 * (phi + phi.T)
    z1_bar = scale * cov.z1_bar + z_next[:, None] * phi_vec / (t + 1.0)
    # Sherman-Morrison on (t Phi + phi phi') / (t + 1).
    w = cov.phi_inv.dot(phi_vec)
    denom = t + phi_vec.dot(w)
    phi_inv = ((t + 1.0) / t) * (cov.phi_inv - w[:, None] * w / denom)
    phi_inv = 0.5 * (phi_inv + phi_inv.T)
    # Frobenius-norm product is a cheap upper proxy for the condition number.
    cond_proxy = np.sqrt(np.vdot(phi, phi)) * np.sqrt(np.vdot(phi_inv, phi_inv))
    return DataCovariances(
        phi=phi,
        phi_inv=phi_inv,
        z1_bar=z1_bar,
        count=t + 1,
        ill_conditioned=bool(cond_proxy > _COND_LIMIT),
    )


def parameterize(cov: DataCovariances, k) -> np.ndarray:
    """Decision matrix reproducing the gain ``k``: solves Phi V = [K; I].

    The result satisfies Zbar0 V = I and Ubar V = K up to solver accuracy.
    An LU solve of Phi itself, independent of the recursive ``phi_inv`` the
    engine reads V from, so it serves as the reference for that product.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (cov.m, cov.r):
        raise DimensionMismatch(f"gain must have shape ({cov.m}, {cov.r})")
    rhs = np.vstack([k, np.eye(cov.r)])
    try:
        v = np.linalg.solve(cov.phi, rhs)
    except np.linalg.LinAlgError:
        raise RankDeficient("sample covariance is singular") from None
    return v


def recover_gain(cov: DataCovariances, v) -> np.ndarray:
    """Gain encoded by a decision matrix: K = Ubar V."""
    v = np.asarray(v, dtype=float)
    if v.shape != (cov.m + cov.r, cov.r):
        raise DimensionMismatch(f"v must have shape ({cov.m + cov.r}, {cov.r})")
    return cov.u_bar.dot(v)


@dataclass
class ClosedLoop:
    """One feasible decision matrix evaluated under the data-driven dynamics.

    Built only by :func:`closed_loop`, so holding one means ``a_cl`` passed
    the feasibility test.  ``a_cl = Zbar1 V``; ``q_k = Q + K' R K`` with
    ``K = Ubar V``; ``sigma`` is the closed-loop state covariance for unit
    process noise.  A plain dataclass because the update builds one per
    trial step.
    """

    v: np.ndarray
    a_cl: np.ndarray
    q_k: np.ndarray
    sigma: np.ndarray

    @property
    def cost(self) -> float:
        """LQR cost ``trace(q_k sigma)``, computed on access: gradient steps
        that pass through a point never need its cost."""
        return float(np.trace(self.q_k.dot(self.sigma)))


def closed_loop(cov: DataCovariances, v, weights: LqrWeights) -> ClosedLoop:
    """Test ``v`` for feasibility and evaluate its closed loop.

    Solves Sigma = I + A Sigma A' for A = Zbar1 V by doubling and raises
    Unstable when an iterate reaches ``||Sigma||_F >= 1 / (1 - (1 -
    FEASIBILITY_MARGIN)^2)`` or is not finite.  Since
    ``1 - |lam|^2 >= 1 / ||Sigma||_F`` for every eigenvalue lam of A, an
    accepted V has spectral radius below ``1 - FEASIBILITY_MARGIN``; a
    strongly non-normal A can be rejected below that radius.
    """
    v = np.asarray(v, dtype=float)
    a_cl = cov.z1_bar.dot(v)
    try:
        sigma = _dlyap_doubling(a_cl, _eye(cov.r), _SIGMA_BOUND)
    except NotStable:
        raise Unstable("closed loop of the policy is not Schur stable") from None
    k = cov.u_bar.dot(v)
    q_k = weights.q + k.T.dot(weights.r).dot(k)
    return ClosedLoop(v=v, a_cl=a_cl, q_k=q_k, sigma=sigma)


def data_cost(cov: DataCovariances, v, weights: LqrWeights) -> float:
    """LQR cost of a decision matrix under the data-driven dynamics.

    Returns ``trace((Q + K' R K) Sigma)`` with Sigma the closed-loop state
    covariance for unit process noise, or ``inf`` when :func:`closed_loop`
    rejects V as infeasible (infeasible policies are a value, not a crash,
    so line searches can compare them).
    """
    try:
        return closed_loop(cov, v, weights).cost
    except Unstable:
        return float("inf")


def gradient(cov: DataCovariances, cl: ClosedLoop, weights: LqrWeights) -> np.ndarray:
    """Exact gradient of the data-driven cost with respect to V at ``cl.v``.

    Solves the cost-to-go Lyapunov equation for P on the evaluated closed
    loop and returns ``2 (Ubar' R Ubar + Zbar1' P Zbar1) V Sigma``.
    """
    p = _dlyap_doubling(cl.a_cl.T, cl.q_k)
    ru = weights.r.dot(cov.u_bar)
    return 2.0 * (cov.u_bar.T.dot(ru) + cov.z1_bar.T.dot(p).dot(cov.z1_bar)).dot(cl.v).dot(cl.sigma)


@dataclass(frozen=True)
class Nullspace:
    """Basis ``N = Phi^{-1}[:, :m]`` of the nullspace of Zbar0, its Gram
    matrix ``N'N`` and its pseudo-inverse ``N+ = (N'N)^{-1} N'``.

    Phi N = [I; 0], so Ubar N = I and the m columns of N span the nullspace
    of Zbar0.  The projector and the stepsize both read ``N'N``, so an
    update builds one of these per sample and shares it.
    """

    n: np.ndarray
    gram: np.ndarray
    n_plus: np.ndarray

    @classmethod
    def of(cls, cov: DataCovariances) -> "Nullspace":
        n = cov.phi_inv[:, : cov.m]
        gram = n.T @ n  # not .dot: see the module docstring
        return cls(n=n, gram=gram, n_plus=np.linalg.solve(gram, n.T))

    def project(self, g: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``g`` onto the nullspace of Zbar0.

        Applies ``Pi = N N+`` in factored form, ``N (N+ g)``: two thin
        products, without forming the (m + r) x (m + r) projector.  Gradient
        steps projected this way preserve the constraint Zbar0 V = I.
        """
        return self.n.dot(self.n_plus.dot(g))

    def stepsize(self, eta0: float):
        """Stepsize scaled by the excitation level of the data.

        Returns ``(eta0 / ||Ubar Pi Ubar'||, capped)`` where the norm is
        spectral and Pi is the projector :meth:`project` applies.  The
        denominator measures the input energy not explained
        by the state — effectively the probing power — so steps grow when
        probing is faint.  With Ubar N = I it equals ``||(N'N)^{-1}|| =
        1 / lambda_min(N'N)``, read from one m x m ``eigvalsh``.  A
        denominator below 1e-12 is capped (``capped = True``).
        """
        lam_min = np.linalg.eigvalsh(self.gram)[0]
        if not lam_min < 1e12:
            return eta0 / 1e-12, True
        return eta0 * lam_min, False


def initial_policy(cov: DataCovariances, weights: LqrWeights) -> np.ndarray:
    """Certainty-equivalence initial gain from the data covariances.

    Reads the least-squares dynamics estimate ``[B A] = Zbar1 Phi^{-1}`` off
    the covariances and solves the corresponding Riccati problem.  With
    noise-free data the estimate is exact, so the gain matches the true
    optimum.

    Raises Unstabilizable when the Riccati iteration cannot converge for
    the estimated pair.
    """
    ba = np.linalg.solve(cov.phi, cov.z1_bar.T).T
    b_hat = ba[:, : cov.m]
    a_hat = ba[:, cov.m :]
    try:
        return riccati_gain(a_hat, b_hat, weights.q, weights.r)
    except NoConvergence as exc:
        raise Unstabilizable(
            "no stabilizing gain found for the estimated dynamics"
        ) from exc
