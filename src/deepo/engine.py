"""Online adaptive LQR engine.

Wires the pieces together into the per-sample loop: control with probing
noise, fold the new sample into the data covariances, read the current
gain's decision matrix off the updated inverse covariance, take projected
gradient steps with feasibility backtracking, and read off the next gain.
The engine sees the plant only through ``step(u) -> y``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import ConfigInvalid, InsufficientHistory, NonFinite, Unstable
from .lqr_core import (
    DataCovariances,
    LqrWeights,
    Nullspace,
    _eye,
    closed_loop,
    cov_init,
    cov_update,
    data_cost,
    gradient,
    identity_weights,
    initial_policy,
    recover_gain,
)
from .realization import (
    IoHistory,
    ReductionMap,
    build_xi_matrix,
    reduce_state,
    reduce_svd,
    stack_window,
)

_BACKTRACK_LIMIT = 10

# Re-invert Phi outright when the constraint residual of the decision matrix
# read off the Sherman-Morrison inverse drifts past this (times sqrt(r)).
_CONSTRAINT_REFRESH = 1e-7


@dataclass
class DeepoConfig:
    """Tuning knobs for the online engine.

    Attributes:
        lag: window length (past samples per channel).
        eta0: base stepsize before excitation scaling.
        probe_std: std of the Gaussian probing noise added to the control.
        excitation_amp: amplitude of the uniform pre-activation excitation.
        r_override: fix the reduced dimension instead of the gap rule.
        q_mode: "identity" penalizes the normalized reduced state; "window"
            penalizes the raw window energy instead (Q = diag of the kept
            squared singular values), which keeps strongly excited signal
            directions from being down-weighted by the normalization.
        gradient_steps_per_sample: projected gradient steps per new sample.
    """

    lag: int
    eta0: float = 1e-4
    probe_std: float = 0.01
    excitation_amp: float = 0.05
    r_override: int | None = None
    q_mode: str = "identity"
    gradient_steps_per_sample: int = 1

    def __post_init__(self):
        if self.lag < 1:
            raise ValueError("lag must be at least 1")
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.probe_std < 0:
            raise ValueError("probe_std must be nonnegative")
        if self.excitation_amp <= 0:
            raise ValueError("excitation_amp must be positive")
        if self.q_mode not in ("identity", "window"):
            raise ValueError("q_mode must be 'identity' or 'window'")
        if self.gradient_steps_per_sample < 1:
            raise ValueError("gradient_steps_per_sample must be at least 1")

    @classmethod
    def from_dict(cls, raw: dict, where: str) -> "DeepoConfig":
        """Config from a JSON object; ConfigInvalid names ``where`` on bad keys or values."""
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigInvalid(f"{where}: unknown keys {sorted(unknown)}")
        try:
            return cls(**raw)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"{where}: {exc}") from None


@dataclass
class StepRecord:
    """Everything logged about one sample period."""

    t: int
    mode: str  # idle | excite | deepo
    u: np.ndarray
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    cost: float | None = None
    eta: float | None = None
    grad_norm: float | None = None
    elapsed_us: float = 0.0


@dataclass
class DeepoState:
    """Mutable engine state: data covariances, reduction map, current policy.

    Created pending via :meth:`fresh` (before any data) or ready via
    :func:`offline_init` or :func:`offline_init_direct`.  ``t`` is the global
    sample index; it equals ``len(history)`` except in states from
    :func:`offline_init_direct`, which keep no history.
    """

    config: DeepoConfig
    m: int
    history: IoHistory = field(default_factory=IoHistory)
    map: ReductionMap | None = None
    cov: DataCovariances | None = None
    weights: LqrWeights | None = None
    gain: np.ndarray | None = None
    initial_gain: np.ndarray | None = None
    t: int = 0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    warnings: list[str] = field(default_factory=list)
    records: list[StepRecord] = field(default_factory=list)

    @classmethod
    def fresh(cls, config: DeepoConfig, m: int, rng_seed=0) -> "DeepoState":
        rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
        return cls(config=config, m=m, rng=rng)

    @property
    def initialized(self) -> bool:
        return self.cov is not None

    def warn(self, message: str):
        self.warnings.append(message)

    def to_json(self) -> str:
        """Snapshot of the persistent fields (records excluded)."""
        if not self.initialized:
            raise ValueError("cannot serialize an uninitialized state")
        payload = {
            "config": asdict(self.config),
            "m": self.m,
            "t": self.t,
            "map": None if self.map is None else json.loads(self.map.to_json()),
            "cov": {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(self.cov).items()},
            "weights": {"q": self.weights.q.tolist(), "r": self.weights.r.tolist()},
            "gain": self.gain.tolist(),
            "initial_gain": None if self.initial_gain is None else self.initial_gain.tolist(),
            "inputs": self.history.u.tolist(),
            "outputs": self.history.y.tolist(),
            "warnings": list(self.warnings),
            "rng_state": self.rng.bit_generator.state,
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "DeepoState":
        """State from a :meth:`to_json` snapshot.

        Raises ConfigInvalid, naming the missing key or the array whose
        shape does not fit the others where there is one, when the text is
        not such a snapshot.  Top-level keys it does not read, such as the
        ``v_prime`` and ``v_synced_count`` of older snapshots, are ignored.
        """
        try:
            payload = json.loads(text)
            config = DeepoConfig.from_dict(payload["config"], "config")
            cov = {k: np.array(v, dtype=float) if isinstance(v, list) else v for k, v in payload["cov"].items()}
            state = cls(
                config=config,
                m=int(payload["m"]),
                history=IoHistory(payload["inputs"], payload["outputs"]),
                map=None if payload["map"] is None else ReductionMap.from_json(json.dumps(payload["map"])),
                cov=DataCovariances(**cov),
                weights=LqrWeights(
                    q=np.array(payload["weights"]["q"], dtype=float),
                    r=np.array(payload["weights"]["r"], dtype=float),
                ),
                gain=np.array(payload["gain"], dtype=float),
                initial_gain=(
                    None
                    if payload.get("initial_gain") is None
                    else np.array(payload["initial_gain"], dtype=float)
                ),
                t=int(payload["t"]),
                warnings=list(payload["warnings"]),
            )
            state.rng = np.random.default_rng()
            state.rng.bit_generator.state = payload["rng_state"]
        except KeyError as exc:
            raise ConfigInvalid(f"checkpoint: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"checkpoint: malformed ({exc})") from None
        state._check_shapes()
        return state

    def _check_shapes(self):
        """Raise ConfigInvalid naming the first loaded array that does not fit
        m, r = ``len(cov.z1_bar)`` and, when there is a map, the history and lag."""
        m, r = self.m, len(self.cov.z1_bar)
        expected = [
            ("cov.phi", self.cov.phi, (m + r, m + r)),
            ("cov.phi_inv", self.cov.phi_inv, (m + r, m + r)),
            ("cov.z1_bar", self.cov.z1_bar, (r, m + r)),
            ("weights.q", self.weights.q, (r, r)),
            ("weights.r", self.weights.r, (m, m)),
            ("gain", self.gain, (m, r)),
            ("initial_gain", self.initial_gain, (m, r)),
        ]
        if self.map is not None:
            # States from offline_init_direct keep neither a map nor a history;
            # IoHistory has already checked that outputs has as many rows as inputs.
            lag = self.config.lag
            if self.map.input_rows != m * lag:
                raise ConfigInvalid(f"checkpoint: map.input_rows is {self.map.input_rows}, expected {m * lag}")
            expected += [
                ("inputs", self.history.u, (len(self.history), m)),
                ("map.t_matrix", self.map.t_matrix, (r, (m + self.history.p) * lag)),
            ]
        for name, value, shape in expected:
            if value is not None and value.shape != shape:
                raise ConfigInvalid(f"checkpoint: {name} has shape {value.shape}, expected {shape}")


def _install_policy(state: DeepoState, cov: DataCovariances, weights: LqrWeights):
    """Set the covariances, the weights and their certainty-equivalence gain."""
    gain = initial_policy(cov, weights)
    state.cov = cov
    state.weights = weights
    state.gain = gain
    state.initial_gain = gain.copy()


def offline_init(history: IoHistory, config: DeepoConfig, rng_seed=0) -> DeepoState:
    """Initialize the engine from a batch of excitation data.

    Builds the window matrix, fits the reduction map, forms the data
    covariances, and sets the certainty-equivalence initial gain.  The
    history must provide at least ``2 (m + p) lag`` windows.
    """
    lag = config.lag
    m, p = history.m, history.p
    t0 = len(history) - lag
    min_windows = 2 * (m + p) * lag
    if t0 < min_windows:
        raise InsufficientHistory(
            f"need at least {min_windows + lag} samples to initialize, "
            f"got {len(history)}"
        )
    xi = build_xi_matrix(history, t0, lag)
    rmap = reduce_svd(xi, input_rows=m * lag, r_override=config.r_override)
    z = rmap.t_matrix @ xi
    u_cols = history.u[lag : lag + t0].T
    cov = cov_init(u_cols[:, :-1], z[:, :-1], z[:, 1:])
    if config.q_mode == "window":
        # Window-energy penalty: z = diag(s)^-1 U' xi, so Q = diag(s)^2 prices
        # the raw window norm.  Both penalties are normalized by s_1^2, which
        # leaves the optimal gain unchanged but keeps gradients O(1).
        lam = rmap.singular_values[: rmap.reduced_dim]
        weights = LqrWeights(np.diag((lam / lam[0]) ** 2), np.eye(m) / lam[0] ** 2)
    else:
        weights = identity_weights(rmap.reduced_dim, m)
    state = DeepoState.fresh(config, m, rng_seed)
    state.history = history.copy()
    state.map = rmap
    _install_policy(state, cov, weights)
    state.t = len(history)
    if rmap.gap_warning:
        state.warn("no clear singular-value gap; reduced dimension from largest ratio")
    return state


def offline_init_direct(u_data, z_data, z_next, config: DeepoConfig, rng_seed=0) -> DeepoState:
    """Initialize from directly measured reduced-state data (no windowing).

    Convenience for plants whose state is available as-is; the reduction map
    is skipped and ``ingest_and_update`` is driven by the caller.
    """
    if config.q_mode == "window":
        raise ValueError("q_mode='window' needs the windowed pipeline (no singular values here)")
    cov = cov_init(u_data, z_data, z_next)
    state = DeepoState.fresh(config, cov.m, rng_seed)
    _install_policy(state, cov, identity_weights(cov.r, cov.m))
    state.t = cov.count
    return state


def control_step(state: DeepoState, z) -> np.ndarray:
    """Control for the reduced state ``z``: u = K z + probing noise."""
    if not state.initialized:
        raise ValueError("engine is not initialized")
    e = state.rng.standard_normal(state.m) * state.config.probe_std
    u = state.gain.dot(z) + e
    if not np.all(np.isfinite(u)):
        raise NonFinite("control input diverged", records=state.records)
    return u


def _decision_matrix(state: DeepoState) -> np.ndarray:
    """Decision matrix of the held gain under the current covariances.

    ``V = Phi^{-1} [K; I]``, read off the Sherman-Morrison inverse in one
    product, so Ubar V = K and Zbar0 V = I up to the inverse's accuracy.
    """
    phi_inv = state.cov.phi_inv
    return phi_inv[:, : state.m].dot(state.gain) + phi_inv[:, state.m :]


def _checked_decision_matrix(state: DeepoState) -> np.ndarray:
    """:func:`_decision_matrix`, repairing the inverse when the constraint drifts.

    Rounding accumulates in the recursive ``phi_inv``.  When ``Zbar0 V``
    strays from I past the refresh bound, ``phi_inv`` is replaced by a fresh
    inverse of ``phi`` (with a warning) and V is read again, so everything
    that reads the inverse afterwards reads the repaired one.
    """
    cov = state.cov
    v = _decision_matrix(state)
    residual = cov.z0_bar.dot(v) - _eye(cov.r)
    drift = np.sqrt(np.vdot(residual, residual))
    if drift <= _CONSTRAINT_REFRESH * np.sqrt(cov.r):
        return v
    state.warn(f"constraint drift {drift:.3g} at t={state.t}; re-solving")
    phi_inv = np.linalg.inv(cov.phi)
    state.cov = replace(cov, phi_inv=0.5 * (phi_inv + phi_inv.T))
    return _decision_matrix(state)


def _policy_step(state: DeepoState):
    """Advance the policy under the just-updated covariances.

    Reads the current gain's decision matrix, takes the configured number
    of projected gradient steps, and stores the new gain.  Returns
    ``(cost, eta, grad_norm)`` for the step record.
    """
    cfg = state.config
    if state.cov.ill_conditioned:
        state.warn(f"data covariance poorly conditioned at t={state.t}")
    v = _checked_decision_matrix(state)
    cov = state.cov
    nullspace = Nullspace.of(cov)
    eta_base, capped = nullspace.stepsize(cfg.eta0)
    if capped:
        state.warn(f"excitation level vanished at t={state.t}; stepsize capped")
    eta_used = grad_norm = None
    try:
        cl = closed_loop(cov, v, state.weights)
    except Unstable:
        state.warn(f"infeasible parameterization at t={state.t}; gain held")
        cost = float("inf")
    else:
        for _ in range(cfg.gradient_steps_per_sample):
            pg = nullspace.project(gradient(cov, cl, state.weights))
            if grad_norm is None:
                grad_norm = float(np.sqrt(np.vdot(pg, pg)))
            eta = eta_base
            for _ in range(_BACKTRACK_LIMIT + 1):
                try:
                    cl = closed_loop(cov, cl.v - eta * pg, state.weights)
                    break
                except Unstable:
                    eta *= 0.5
            else:
                state.warn(f"gradient step infeasible after backtracking at t={state.t}")
                break
            if eta_used is None:
                eta_used = eta
        v, cost = cl.v, cl.cost
    state.gain = recover_gain(cov, v)
    return cost, eta_used, grad_norm


def ingest_and_update(state: DeepoState, u_t, z_t, z_next, update: bool = True) -> StepRecord:
    """Fold one sample into the engine and, when ``update``, advance the policy.

    Updates the covariances and reads the current gain's decision matrix off
    the updated inverse (re-inverting Phi with a warning when the constraint
    Zbar0 V = I has drifted).  Then it either takes the configured number of
    projected gradient steps (halving the stepsize up to ten times if a step
    leaves the feasible set; the gain is held with a warning when even that
    fails) and reads off the next gain; or, with ``update=False``, holds the
    gain and records its data cost under the new covariances.  Appends and
    returns the step record.
    """
    if not state.initialized:
        raise ValueError("engine is not initialized")
    state.cov = cov_update(state.cov, u_t, z_t, z_next)
    if update:
        cost, eta, grad_norm = _policy_step(state)
    else:
        cost = data_cost(state.cov, _checked_decision_matrix(state), state.weights)
        eta = grad_norm = None
    record = StepRecord(
        t=state.t,
        mode="deepo",
        u=np.asarray(u_t, dtype=float).reshape(-1),
        z=np.asarray(z_t, dtype=float).reshape(-1),
        cost=cost,
        eta=eta,
        grad_norm=grad_norm,
    )
    state.records.append(record)
    state.t += 1
    return record


def _activate(state: DeepoState, excitation_start: int, activation_step: int):
    """Fit the running state to its excitation window through :func:`offline_init`.

    The state takes every field of the fitted one except its history, clock,
    records and warnings, which are the run's own (the fit's warnings are
    appended).
    """
    window = state.history.window(excitation_start, activation_step)
    fitted = offline_init(window, state.config, rng_seed=state.rng)
    state.warnings.extend(fitted.warnings)
    run = {"history": state.history, "t": state.t, "records": state.records, "warnings": state.warnings}
    vars(state).update(vars(fitted), **run)


def _resolve_step(plant):
    if hasattr(plant, "step"):
        return plant.step
    if callable(plant):
        return plant
    raise TypeError("plant must expose step(u) or be callable")


def run_online(
    state: DeepoState,
    plant,
    steps: int,
    activation_step: int,
    *,
    excitation_start: int = 0,
    policy_updates: bool = True,
    update_start: int | None = None,
) -> list[StepRecord]:
    """Drive the plant for ``steps`` samples and return their records.

    Before ``excitation_start`` the input is zero; from there to
    ``activation_step`` it is uniform white-noise excitation.  At the
    activation step the engine initializes itself from the excitation
    window, then runs closed loop.  ``policy_updates=False`` freezes the
    gain at its initial value (data is still ingested); ``update_start``
    delays gain updates to that step.  The plant is anything exposing
    ``step(u) -> y``.  A non-finite signal aborts with the records so far
    attached to the exception.
    """
    step_fn = _resolve_step(plant)
    cfg = state.config
    first = len(state.records)
    z_t = None  # reduced state of the current window, carried from the last step
    for _ in range(steps):
        t = state.t
        tic = time.perf_counter()
        if not state.initialized and t == activation_step:
            _activate(state, excitation_start, activation_step)
        if state.initialized:
            if z_t is None:
                z_t = reduce_state(state.map, stack_window(state.history, t, cfg.lag))
            u = control_step(state, z_t)
        elif t < excitation_start:
            u, mode = np.zeros(state.m), "idle"
        else:
            u, mode = state.rng.uniform(-cfg.excitation_amp, cfg.excitation_amp, state.m), "excite"
        try:
            y = step_fn(u)
            state.history.append(u, y)
        except NonFinite as exc:
            raise NonFinite(f"step {t}: {exc}", records=state.records) from exc
        if state.initialized:
            z_next = reduce_state(state.map, stack_window(state.history, t + 1, cfg.lag))
            update = policy_updates and (update_start is None or t >= update_start)
            record = ingest_and_update(state, u, z_t, z_next, update=update)
            record.y = y
            z_t = z_next
        else:
            record = StepRecord(t=t, mode=mode, u=u, y=y)
            state.records.append(record)
            state.t += 1
        record.elapsed_us = (time.perf_counter() - tic) * 1e6
    return state.records[first:]
