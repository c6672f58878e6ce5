"""Ground-truth LTI simulator and model-based oracle constructions.

The :class:`PlantModel` simulates the hidden discrete-time truth
``x+ = A x + B u + d``, ``y = C x + v`` with seeded Gaussian noise.  The
remaining functions build the structured matrices (observability /
controllability / impulse-response stacks, the companion realization of the
input-output window, exact LQR gains by value iteration, and costs) that
tests and acceptance checks compare the data-driven path against.  The
online controller never receives any of these matrices — it only sees
inputs and outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LagTooSmall, NoConvergence, NonFinite
from .numerics import numerical_rank, solve_dlyap, spectral_radius

SURROGATE_SAMPLING_HZ = 200.0

# Sweep cap of the value-iteration oracle in :func:`model_lqr_gain`.
_ORACLE_MAX_SWEEPS = 100_000


def _as_matrix(m, name):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{name} contains non-finite entries")
    return m


def _obs_stack(a, c, depth):
    # Rows ordered C A^(depth-1) at the top down to C at the bottom.
    blocks = []
    power = np.eye(a.shape[0])
    for _ in range(depth):
        blocks.append(c @ power)
        power = a @ power
    return np.vstack(blocks[::-1])


def _ctrb_stack(a, b, depth):
    blocks = []
    power = np.eye(a.shape[0])
    for _ in range(depth):
        blocks.append(power @ b)
        power = a @ power
    return np.hstack(blocks)


class PlantModel:
    """Discrete-time LTI truth model with seeded Gaussian noise.

    State updates follow ``x+ = A x + B u + d`` with ``d ~ N(0, sigma_d^2 I)``
    and measurements ``y = C x + v`` with ``v ~ N(0, sigma_v^2 I)``.  The pair
    (A, B) must be controllable and (A, C) observable; both are checked at
    construction.  Two instances built with the same seed produce identical
    trajectories for identical inputs.
    """

    def __init__(
        self,
        a,
        b,
        c,
        process_noise_std: float = 0.0,
        measurement_noise_std: float = 0.0,
        x0=None,
        rng_seed: int = 0,
    ):
        a = _as_matrix(a, "a")
        b = _as_matrix(b, "b")
        c = _as_matrix(c, "c")
        self.check_system(a, b, c)
        if process_noise_std < 0 or measurement_noise_std < 0:
            raise ValueError("noise standard deviations must be nonnegative")
        n = a.shape[0]
        self.a = a
        self.b = b
        self.c = c
        self.process_noise_std = float(process_noise_std)
        self.measurement_noise_std = float(measurement_noise_std)
        self.state = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
        if self.state.shape != (n,):
            raise ValueError(f"x0 must have shape ({n},)")
        self._rng = np.random.default_rng(rng_seed)

    @staticmethod
    def check_system(a, b, c):
        """Raise ValueError unless the 2-D arrays (a, b, c) conform and are minimal."""
        n = a.shape[0]
        if a.shape[1] != n:
            raise ValueError(f"a must be square, got shape {a.shape}")
        if b.shape[0] != n:
            raise ValueError(f"b has {b.shape[0]} rows, expected {n}")
        if c.shape[1] != n:
            raise ValueError(f"c has {c.shape[1]} columns, expected {n}")
        if numerical_rank(_ctrb_stack(a, b, n)) < n:
            raise ValueError("(a, b) is not controllable")
        if numerical_rank(_obs_stack(a, c, n)) < n:
            raise ValueError("(a, c) is not observable")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.c.shape[0]

    def step(self, u) -> np.ndarray:
        """Measure y from the current state, then advance the state by u.

        Raises NonFinite if the input or the updated state is non-finite.
        """
        u = np.asarray(u, dtype=float).reshape(-1)
        if u.shape != (self.m,):
            raise ValueError(f"u must have shape ({self.m},), got {u.shape}")
        if not np.all(np.isfinite(u)):
            raise NonFinite("control input contains non-finite entries")
        v = self._rng.standard_normal(self.p) * self.measurement_noise_std
        d = self._rng.standard_normal(self.n) * self.process_noise_std
        y = self.c @ self.state + v
        self.state = self.a @ self.state + self.b @ u + d
        if not np.all(np.isfinite(self.state)):
            raise NonFinite("plant state diverged to non-finite values")
        return y

    def kick(self, delta):
        """Add an impulsive disturbance to the state."""
        delta = np.asarray(delta, dtype=float).reshape(-1)
        if delta.shape != (self.n,):
            raise ValueError(f"delta must have shape ({self.n},)")
        self.state = self.state + delta

    def set_dynamics(self, a, b, c):
        """Swap in new system matrices, keeping the state (dimension fixed)."""
        a = _as_matrix(a, "a")
        b = _as_matrix(b, "b")
        c = _as_matrix(c, "c")
        if a.shape != self.a.shape or b.shape != self.b.shape or c.shape != self.c.shape:
            raise ValueError("switched dynamics must preserve all dimensions")
        self.check_system(a, b, c)
        self.a, self.b, self.c = a, b, c


@dataclass(frozen=True)
class SwitchEvent:
    """A scheduled replacement of the plant matrices at a given step."""

    step: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


@dataclass
class SwitchSchedule:
    """Ordered dynamics switches applied as simulation time passes."""

    events: list[SwitchEvent] = field(default_factory=list)

    def __post_init__(self):
        steps = [e.step for e in self.events]
        if any(s < 0 for s in steps):
            raise ValueError("switch steps must be nonnegative")
        if sorted(steps) != steps or len(set(steps)) != len(steps):
            raise ValueError("switch steps must be strictly increasing")


class SwitchingPlant:
    """Wraps a plant with scheduled switches and impulsive state kicks.

    Exposes only ``step(u) -> y``; the controller side cannot reach the
    underlying matrices through this interface.
    """

    def __init__(self, plant: PlantModel, schedule: SwitchSchedule | None = None, kicks=None):
        self.plant = plant
        self.schedule = schedule if schedule is not None else SwitchSchedule()
        # kicks: iterable of (step, state_delta)
        self.kicks = [(int(s), np.asarray(d, dtype=float)) for s, d in (kicks or [])]
        self._t = 0

    @property
    def t(self) -> int:
        return self._t

    def step(self, u) -> np.ndarray:
        for event in self.schedule.events:
            if event.step == self._t:
                self.plant.set_dynamics(event.a, event.b, event.c)
        for step, delta in self.kicks:
            if step == self._t:
                self.plant.kick(delta)
        y = self.plant.step(u)
        self._t += 1
        return y


def simulate_lti(a, b, c, x0, inputs) -> np.ndarray:
    """Noiseless simulation returning the outputs y_t = C x_t, t = 0..T-1."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    x = np.asarray(x0, dtype=float).reshape(-1)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    outputs = np.empty((inputs.shape[0], c.shape[0]))
    for t, u in enumerate(inputs):
        outputs[t] = c @ x
        x = a @ x + b @ u
    return outputs


def build_observability(model: PlantModel, depth: int) -> np.ndarray:
    """Observability stack with row blocks C A^(depth-1), ..., C A, C."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return _obs_stack(model.a, model.c, depth)


def build_controllability(model: PlantModel, depth: int) -> np.ndarray:
    """Controllability stack [B, A B, ..., A^(depth-1) B]."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return _ctrb_stack(model.a, model.b, depth)


def build_toeplitz(model: PlantModel, depth: int) -> np.ndarray:
    """Block Toeplitz map from stacked past inputs to stacked past outputs.

    Block (i, j) is ``C A^(j-i-1) B`` for j > i and zero otherwise, so the
    first block row reads ``[0, CB, CAB, ..., C A^(depth-2) B]`` and the last
    block row is zero.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    a, b, c = model.a, model.b, model.c
    p, m = c.shape[0], b.shape[1]
    markov = [c @ np.linalg.matrix_power(a, k) @ b for k in range(depth)]
    t_mat = np.zeros((p * depth, m * depth))
    for i in range(depth):
        for j in range(i + 1, depth):
            t_mat[i * p : (i + 1) * p, j * m : (j + 1) * m] = markov[j - i - 1]
    return t_mat


@dataclass(frozen=True)
class OracleRealization:
    """Companion-form realization of the stacked input-output window.

    The window state is xi = (u past, y past), most recent first in each
    block.  ``a_xi, b_xi`` advance it, ``s_row`` reproduces the next output:
    y_t = s_row @ xi_t.
    """

    s_row: np.ndarray
    a_xi: np.ndarray
    b_xi: np.ndarray


def build_nonminimal_oracle(model: PlantModel, lag: int) -> OracleRealization:
    """Exact window realization of the plant for window length ``lag``.

    Raises LagTooSmall when the observability stack of depth ``lag`` does not
    have full column rank (the window is too short to pin down the state).
    """
    n, m, p = model.n, model.m, model.p
    obs = build_observability(model, lag)
    if numerical_rank(obs) < n:
        raise LagTooSmall(
            f"window length {lag} is below the observability index of the plant"
        )
    ctrb = build_controllability(model, lag)
    toep = build_toeplitz(model, lag)
    a_pow = np.linalg.matrix_power(model.a, lag)
    obs_pinv = np.linalg.pinv(obs)
    s_row = np.hstack(
        [model.c @ (ctrb - a_pow @ obs_pinv @ toep), model.c @ a_pow @ obs_pinv]
    )
    q = (m + p) * lag
    a_xi = np.zeros((q, q))
    for i in range(1, lag):
        a_xi[i * m : (i + 1) * m, (i - 1) * m : i * m] = np.eye(m)
    a_xi[lag * m : lag * m + p, :] = s_row
    for i in range(1, lag):
        r0 = lag * m + i * p
        c0 = lag * m + (i - 1) * p
        a_xi[r0 : r0 + p, c0 : c0 + p] = np.eye(p)
    b_xi = np.zeros((q, m))
    b_xi[:m, :] = np.eye(m)
    return OracleRealization(s_row=s_row, a_xi=a_xi, b_xi=b_xi)


def model_lqr_gain(a_z, b_z, q, r) -> np.ndarray:
    """Optimal gain for u = K z on known dynamics (z+ = A z + B u).

    The model-based oracle for :func:`deepo.numerics.riccati_gain`, computed
    by a different method: Riccati value iteration
    ``P <- Q + A^T P A - A^T P B (R + B^T P B)^{-1} B^T P A`` from P = Q,
    one sweep at a time, until successive iterates agree to 1e-12 relative
    (Frobenius norm); then ``K = -(R + B^T P B)^{-1} B^T P A``.  Slow near
    the unit circle (a closed loop at spectral radius rho needs about
    log(1e-12) / log(rho^2) sweeps), which an oracle can afford.

    Raises:
        NoConvergence: if the iterates have not converged after 100 000
            sweeps, diverge, or give a closed loop that is not stable.
    """
    a = np.asarray(a_z, dtype=float)
    b = np.asarray(b_z, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    p = 0.5 * (q + q.T)
    for sweep in range(1, _ORACLE_MAX_SWEEPS + 1):
        k = -np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
        p_next = q + a.T @ p @ a + a.T @ p @ b @ k
        p_next = 0.5 * (p_next + p_next.T)
        # Frobenius norms as sqrt(vdot), the bits np.linalg.norm computes:
        # an overflowing sum reads inf instead of warning.
        d = p_next - p
        size = np.sqrt(np.vdot(p_next, p_next))
        if not np.isfinite(size):
            raise NoConvergence(f"Riccati iterates diverged after {sweep} sweeps")
        p = p_next
        if np.sqrt(np.vdot(d, d)) <= 1e-12 * max(1.0, size):
            k = -np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
            if spectral_radius(a + b @ k) >= 1.0:
                raise NoConvergence("Riccati iteration converged to a non-stabilizing gain")
            return k
    raise NoConvergence(f"Riccati iteration did not converge in {_ORACLE_MAX_SWEEPS} sweeps")


def lqr_cost(a_z, b_z, k, q, r) -> float:
    """Steady-state LQR cost of the gain ``k`` on known dynamics.

    Uses unit-covariance process noise: the cost is
    ``trace((Q + K' R K) Sigma)`` with Sigma solving the closed-loop
    Lyapunov equation ``Sigma = I + (A + B K) Sigma (A + B K)'``.
    """
    a_z = np.asarray(a_z, dtype=float)
    b_z = np.asarray(b_z, dtype=float)
    k = np.asarray(k, dtype=float)
    a_cl = a_z + b_z @ k
    sigma = solve_dlyap(a_cl, np.eye(a_z.shape[0]))
    return float(np.trace((q + k.T @ r @ k) @ sigma))


def _rotation_block(modulus: float, freq_hz: float, sampling_hz: float) -> np.ndarray:
    theta = 2.0 * np.pi * freq_hz / sampling_hz
    return modulus * np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )


def _block_diag(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4))
    out[:2, :2] = upper
    out[2:, 2:] = lower
    return out


# Input and output couplings for the surrogate converter.  Both mode pairs
# are comparably driven and read, so white-noise excitation lights up every
# state direction of the stacked window at a similar scale.
_SURROGATE_B = np.array(
    [[1.0, 0.4], [-0.2, 0.8], [0.9, -0.5], [0.4, 0.9]]
)
_SURROGATE_C = np.array(
    [[1.0, 0.1, 0.6, 0.3], [0.2, -0.6, 0.4, 0.8]]
)


def surrogate_nominal_dynamics() -> np.ndarray:
    """Well-damped pre-switch state matrix of the surrogate converter."""
    return _block_diag(
        _rotation_block(0.90, 8.0, SURROGATE_SAMPLING_HZ),
        _rotation_block(0.85, 25.0, SURROGATE_SAMPLING_HZ),
    )


def surrogate_oscillatory_dynamics() -> np.ndarray:
    """Post-switch state matrix with a lightly damped pair near 10 Hz."""
    return _block_diag(
        _rotation_block(0.9995, 10.0, SURROGATE_SAMPLING_HZ),
        _rotation_block(0.88, 25.0, SURROGATE_SAMPLING_HZ),
    )


def surrogate_perturbed_dynamics() -> np.ndarray:
    """Drifted post-switch matrix: the light pair moves to 13 Hz, less damped."""
    return _block_diag(
        _rotation_block(0.9997, 13.0, SURROGATE_SAMPLING_HZ),
        _rotation_block(0.88, 25.0, SURROGATE_SAMPLING_HZ),
    )


def surrogate_io_matrices():
    """Input and output couplings shared by all surrogate operating modes."""
    return _SURROGATE_B.copy(), _SURROGATE_C.copy()


def make_surrogate_converter(
    process_noise_std: float = 2e-4,
    measurement_noise_std: float = 0.0,
    rng_seed: int = 0,
    switch_step: int = 100,
):
    """Four-state, two-input, two-output stand-in for a grid-side converter.

    Returns a plant starting in the well-damped nominal mode and a schedule
    that switches it at ``switch_step`` to a mode whose dominant complex pair
    sits near 10 Hz with very light damping (modulus 0.9995 at 200 Hz), so an
    impulse there rings with under 10% envelope decay per half second.  The
    mode shapes are synthetic; only the oscillation signature matters.
    """
    b, c = surrogate_io_matrices()
    plant = PlantModel(
        surrogate_nominal_dynamics(),
        b,
        c,
        process_noise_std=process_noise_std,
        measurement_noise_std=measurement_noise_std,
        rng_seed=rng_seed,
    )
    schedule = SwitchSchedule(
        [SwitchEvent(step=switch_step, a=surrogate_oscillatory_dynamics(), b=b, c=c)]
    )
    return plant, schedule
