"""Acceptance battery: ten end-to-end checks of the package's core claims.

Run via ``deepo accept``.  Each criterion prints one PASS/FAIL line with the
measured quantity and its bound; the battery returns the full list of results
and can write them as machine-readable JSON.  Criteria 8 and 9 replay the
bundled scenarios with their calibrated seeds; the rest draw fresh random
problems from the given base seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import harness
from .engine import DeepoConfig, ingest_and_update, offline_init_direct
from .lqr_core import (
    Model,
    closed_loop,
    cov_init,
    data_cost,
    gradient,
    identity_weights,
    initial_policy,
)
from .numerics import numerical_rank, spectral_radius
from .plant import (
    PlantModel,
    build_nonminimal_oracle,
    lqr_cost,
    model_lqr_gain,
    simulate_lti,
)
from .realization import IoHistory, build_xi_matrix, reduce_svd


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed_s: float

    def to_dict(self) -> dict:
        return asdict(self)


def _rng_for(seed: int, number: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, number]))


def _random_minimal(rng, n, m, p, rho=0.9) -> PlantModel:
    """Random controllable+observable plant with spectral radius ``rho``."""
    for _ in range(100):
        a = rng.normal(size=(n, n))
        sr = spectral_radius(a)
        if sr > 1e-12:
            a = a * (rho / sr)
        b = rng.normal(size=(n, m))
        c = rng.normal(size=(p, n))
        try:
            return PlantModel(a, b, c)
        except ValueError:
            continue
    raise RuntimeError("failed to draw a minimal random system")


def _random_pair(rng, r, m, rho=0.85):
    a = rng.normal(size=(r, r))
    sr = spectral_radius(a)
    if sr > 1e-12:
        a = a * (rho / sr)
    b = rng.normal(size=(r, m))
    return a, b


def _direct_data(rng, a, b, steps, amplitude, noise_std):
    """Open-loop excitation triples (u, z, z+) with columns as samples."""
    r, m = b.shape
    u = rng.uniform(-amplitude, amplitude, size=(steps, m))
    zs = np.empty((steps, r))
    z_next = np.empty((steps, r))
    x = np.zeros(r)
    for t in range(steps):
        zs[t] = x
        x = a @ x + b @ u[t]
        if noise_std > 0:
            x = x + noise_std * rng.standard_normal(r)
        z_next[t] = x
    return u.T, zs.T, z_next.T


# --- criterion implementations -------------------------------------------


def _crit_realization(seed: int):
    """Window realization reproduces the plant output exactly."""
    rng = _rng_for(seed, 1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        model = _random_minimal(rng, n, m, p)
        lag = n
        oracle = build_nonminimal_oracle(model, lag)
        steps = 100
        u_seq = rng.normal(size=(steps, m))
        y_true = simulate_lti(model.a, model.b, model.c, np.zeros(n), u_seq)
        xi = np.zeros((m + p) * lag)
        for t in range(steps):
            err = float(np.max(np.abs(oracle.s_row @ xi - y_true[t])))
            if err > worst:
                worst = err
            xi = oracle.a_xi @ xi + oracle.b_xi @ u_seq[t]
    return worst <= 1e-9, f"max output mismatch {worst:.3e} (bound 1e-9, 100 systems x 100 steps)"


def _crit_rank_laws(seed: int):
    """Window-matrix and stacked-regressor ranks follow the counting laws."""
    rng = _rng_for(seed, 2)
    failures = 0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        model = _random_minimal(rng, n, m, p)
        lag = n + 1  # above the observability index, and p*lag > n
        t0 = 4 * (m + p) * lag + n + 10
        u_seq = rng.uniform(-1.0, 1.0, size=(t0 + lag, m))
        y_seq = simulate_lti(model.a, model.b, model.c, rng.normal(size=n), u_seq)
        hist = IoHistory(u_seq, y_seq)
        xi_mat = build_xi_matrix(hist, t0, lag)
        u_cols = u_seq[lag : lag + t0].T
        stacked = np.vstack([u_cols, xi_mat])
        ok = numerical_rank(xi_mat) == m * lag + n
        ok = ok and numerical_rank(stacked) == m * (lag + 1) + n
        ok = ok and m * (lag + 1) + n < stacked.shape[0]  # p*lag > n: never full
        failures += 0 if ok else 1
    return failures == 0, f"{50 - failures}/50 systems satisfied both rank laws (tol 1e-8)"


def _crit_gradient(seed: int):
    """Analytic cost gradient matches central finite differences."""
    rng = _rng_for(seed, 3)
    worst = 0.0
    points = 0
    for _ in range(5):
        m = int(rng.integers(1, 3))
        r = int(rng.integers(2, 4))
        a, b = _random_pair(rng, r, m, rho=0.7)
        u, z, z_next = _direct_data(rng, a, b, 12 * (m + r), amplitude=1.0, noise_std=1e-3)
        cov = cov_init(u, z, z_next)
        model = Model.of(cov)
        weights = identity_weights(r, m)
        k_base = initial_policy(cov, weights)
        made = 0
        while made < 4:
            k = k_base + 0.05 * rng.normal(size=k_base.shape)
            if spectral_radius(model.a + model.b @ k) > 0.9:
                continue
            made += 1
            points += 1
            g = gradient(model, closed_loop(model, k, weights), weights)
            fd = np.zeros_like(k)
            h = 1e-6
            for i in range(k.shape[0]):
                for j in range(k.shape[1]):
                    kp = k.copy()
                    kp[i, j] += h
                    km = k.copy()
                    km[i, j] -= h
                    fd[i, j] = (data_cost(model, kp, weights) - data_cost(model, km, weights)) / (2 * h)
            rel = float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12))
            if rel > worst:
                worst = rel
    return worst <= 1e-5, f"max relative gradient error {worst:.3e} (bound 1e-5, {points} points)"


def _crit_certainty_equivalence(seed: int):
    """Zero noise: data-driven initial gain and cost equal the model answers."""
    rng = _rng_for(seed, 4)
    worst_gain = 0.0
    worst_cost = 0.0
    for _ in range(10):
        m = int(rng.integers(1, 3))
        r = int(rng.integers(2, 6))
        a, b = _random_pair(rng, r, m, rho=0.85)
        u, z, z_next = _direct_data(rng, a, b, 20 * (m + r), amplitude=1.0, noise_std=0.0)
        cov = cov_init(u, z, z_next)
        weights = identity_weights(r, m)
        k_ce = initial_policy(cov, weights)
        k_star = model_lqr_gain(a, b, weights.q, weights.r)
        worst_gain = max(worst_gain, float(np.max(np.abs(k_ce - k_star))))
        cost_gap = abs(data_cost(Model.of(cov), k_ce, weights) - lqr_cost(a, b, k_ce, weights.q, weights.r))
        worst_cost = max(worst_cost, float(cost_gap))
    passed = worst_gain <= 1e-6 and worst_cost <= 1e-6
    return passed, f"max gain gap {worst_gain:.3e}, max cost gap {worst_cost:.3e} (bounds 1e-6)"


def _online_run(rng, a, b, config, init_steps, online_steps, process_std, amplitude):
    """Excite, initialize, then run the per-sample update loop directly on state data."""
    r, m = b.shape
    u0, z0, z1 = _direct_data(rng, a, b, init_steps, amplitude=amplitude, noise_std=process_std)
    state = offline_init_direct(u0, z0, z1, config, rng_seed=rng)
    x = z1[:, -1].copy()
    for _ in range(online_steps):
        u = state.gain @ x + config.probe_std * state.rng.standard_normal(m)
        x_next = a @ x + b @ u
        if process_std > 0:
            x_next = x_next + process_std * rng.standard_normal(r)
        ingest_and_update(state, u, x, x_next)
        x = x_next
    return state


def _crit_convergence(seed: int):
    """Online updates drive the model-evaluated cost near the optimum."""
    rng = _rng_for(seed, 5)
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(1, 3))
        r = int(rng.integers(2, 9))
        a, b = _random_pair(rng, r, m, rho=0.9)
        weights = identity_weights(r, m)
        config = DeepoConfig(lag=1, eta0=1e-4, probe_std=1e-2)
        state = _online_run(
            rng, a, b, config,
            init_steps=15 * (m + r),
            online_steps=2000,
            process_std=1e-3,
            amplitude=0.1,
        )
        j_star = lqr_cost(a, b, model_lqr_gain(a, b, weights.q, weights.r), weights.q, weights.r)
        j_final = lqr_cost(a, b, state.gain, weights.q, weights.r)
        excess = j_final / j_star - 1.0
        if excess > worst:
            worst = excess
    return worst <= 0.05, f"max cost excess {100 * worst:.3f}% after 2000 steps (bound 5%, 10 systems)"


def _crit_recursion(seed: int):
    """The recursive inverse and the decision matrix read off it track batch recomputation."""
    rng = _rng_for(seed, 6)
    m, r = 2, 6
    a, b = _random_pair(rng, r, m, rho=0.85)
    config = DeepoConfig(lag=1, eta0=1e-4, probe_std=1.0)
    t0 = 20 * (m + r)
    u0, z0, z1 = _direct_data(rng, a, b, t0, amplitude=1.0, noise_std=0.1)
    state = offline_init_direct(u0, z0, z1, config, rng_seed=rng)
    cols = [np.concatenate([u0[:, i], z0[:, i]]) for i in range(t0)]
    x = z1[:, -1].copy()
    worst_v = 0.0
    worst_inv = 0.0
    for _ in range(1000):
        u = state.gain @ x + config.probe_std * state.rng.standard_normal(m)
        x_next = a @ x + b @ u + 0.1 * rng.standard_normal(r)
        ingest_and_update(state, u, x, x_next)
        cols.append(np.concatenate([u, x]))
        d_mat = np.array(cols).T
        phi_batch = d_mat @ d_mat.T / d_mat.shape[1]
        inv_gap = float(np.max(np.abs(state.cov.phi_inv - np.linalg.inv(phi_batch))))
        gain_rows = np.vstack([state.gain, np.eye(r)])
        v_batch = np.linalg.solve(phi_batch, gain_rows)
        v_gap = float(np.max(np.abs(state.cov.phi_inv @ gain_rows - v_batch)))
        worst_inv = max(worst_inv, inv_gap)
        worst_v = max(worst_v, v_gap)
        x = x_next
    passed = worst_v <= 1e-9 and worst_inv <= 1e-9
    return passed, f"max drift: decision {worst_v:.3e}, inverse {worst_inv:.3e} (bounds 1e-9, 1000 steps)"


def _crit_order_selection(seed: int):
    """The gap rule picks dimension 6 from the reference singular-value list."""
    rng = _rng_for(seed, 7)
    svals = np.array([7.075, 2.596, 0.556, 0.496, 0.476, 0.460, 0.249, 0.186])
    q_left, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    q_right, _ = np.linalg.qr(rng.normal(size=(40, 8)))
    xi = q_left @ np.diag(svals) @ q_right.T
    rmap = reduce_svd(xi, input_rows=4)
    passed = rmap.reduced_dim == 6 and not rmap.gap_warning
    return passed, f"selected r = {rmap.reduced_dim} (expected 6), gap warning = {rmap.gap_warning}"


def _crit_converter(seed: int):
    """Surrogate converter: sustained oscillation, then damped once active."""
    config = harness.load_scenario("converter")
    summary = harness.run_scenario(config)
    env = summary.envelope_decay_ratio
    ratio = summary.post_rms_total / summary.pre_rms_total
    passed = env is not None and env >= 0.9 and ratio <= 0.2
    return passed, (
        f"open-loop envelope ratio {env:.3f} (bound >= 0.9), "
        f"post/pre output RMS {ratio:.3f} (bound <= 0.2)"
    )


def _crit_adaptation(seed: int):
    """Adaptive gain beats the frozen gain after a plant change."""
    config = harness.load_scenario("adaptation")
    summary = harness.run_adaptation_scenario(config)
    passed = summary.adaptive_post_rms < summary.frozen_post_rms
    return passed, (
        f"post-disturbance RMS adaptive {summary.adaptive_post_rms:.4f} "
        f"< frozen {summary.frozen_post_rms:.4f}"
    )


def _crit_latency(seed: int):
    """Per-sample update stays comfortably inside one sampling period."""
    rng = _rng_for(seed, 10)
    m, r = 2, 12
    a, b = _random_pair(rng, r, m, rho=0.9)
    config = DeepoConfig(lag=1, eta0=1e-4, probe_std=1.0)
    u0, z0, z1 = _direct_data(rng, a, b, 20 * (m + r), amplitude=1.0, noise_std=0.1)
    state = offline_init_direct(u0, z0, z1, config, rng_seed=rng)
    x = z1[:, -1].copy()
    times = []
    for step in range(320):
        u = state.gain @ x + config.probe_std * state.rng.standard_normal(m)
        x_next = a @ x + b @ u + 0.1 * rng.standard_normal(r)
        tic = time.perf_counter()
        ingest_and_update(state, u, x, x_next)
        toc = time.perf_counter()
        if step >= 20:  # discard warmup
            times.append(toc - tic)
        x = x_next
    mean_ms = 1e3 * float(np.mean(times))
    return mean_ms <= 2.0, f"mean update time {mean_ms:.3f} ms at r=12, m=2 (bound 2 ms, 300 samples)"


CRITERIA = [
    (1, "window-realization-equivalence", _crit_realization),
    (2, "data-rank-laws", _crit_rank_laws),
    (3, "gradient-consistency", _crit_gradient),
    (4, "certainty-equivalence-exactness", _crit_certainty_equivalence),
    (5, "online-convergence", _crit_convergence),
    (6, "recursive-update-fidelity", _crit_recursion),
    (7, "reduced-order-selection", _crit_order_selection),
    (8, "converter-damping", _crit_converter),
    (9, "adaptation-benefit", _crit_adaptation),
    (10, "update-latency", _crit_latency),
]


def run_criterion(number: int, seed: int = 0) -> CriterionResult:
    """Run a single criterion by number and return its result."""
    for num, name, fn in CRITERIA:
        if num == number:
            tic = time.perf_counter()
            passed, detail = fn(seed)
            return CriterionResult(
                number=num,
                name=name,
                passed=passed,
                detail=detail,
                elapsed_s=time.perf_counter() - tic,
            )
    raise ValueError(f"no criterion numbered {number}")


def run_acceptance(seed: int = 0, report_path=None, only=None) -> list[CriterionResult]:
    """Run the battery, print one line per criterion, optionally write JSON."""
    results = []
    for number, _, _ in CRITERIA:
        if only is not None and number not in only:
            continue
        result = run_criterion(number, seed)
        results.append(result)
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.number:2d} {result.name}: {result.detail} ({result.elapsed_s:.2f}s)")
    n_pass = sum(1 for res in results if res.passed)
    print(f"{n_pass}/{len(results)} criteria passed")
    if report_path is not None:
        payload = {
            "seed": seed,
            "passed": all(res.passed for res in results),
            "criteria": [res.to_dict() for res in results],
        }
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return results
