"""Online engine: initialization, the per-sample loop, and persistence."""

import dataclasses
import json
import re
import sys

import numpy as np
import numpy.testing as npt
import pytest

import deepo.engine
import deepo.lqr_core
from conftest import direct_data, fit_linear_dynamics, random_minimal, random_pair
from deepo.engine import (
    DeepoConfig,
    DeepoState,
    _decision_matrix,
    control_step,
    ingest_and_update,
    offline_init,
    offline_init_direct,
    run_online,
)
from deepo.errors import ConfigInvalid, InsufficientHistory, NonFinite
from deepo.lqr_core import (
    DataCovariances,
    Nullspace,
    closed_loop,
    cov_update,
    data_cost,
    identity_weights,
    parameterize,
)
from deepo.plant import (
    PlantModel,
    lqr_cost,
    model_lqr_gain,
    make_surrogate_converter,
    SwitchingPlant,
)
from deepo.realization import IoHistory


def test_config_validation():
    with pytest.raises(ValueError):
        DeepoConfig(lag=0)
    with pytest.raises(ValueError):
        DeepoConfig(lag=1, eta0=0.0)
    with pytest.raises(ValueError, match="probe_std"):
        DeepoConfig(lag=1, probe_std=-1.0)
    with pytest.raises(ValueError):
        DeepoConfig(lag=1, q_mode="other")
    with pytest.raises(ValueError):
        DeepoConfig(lag=1, gradient_steps_per_sample=0)
    with pytest.raises(ValueError, match="excitation_amp must be positive"):
        DeepoConfig(lag=1, excitation_amp=0.0)


def test_offline_init_requires_enough_history(rng):
    model = random_minimal(rng, 2, 1, 1)
    cfg = DeepoConfig(lag=2)
    h = IoHistory()
    for _ in range(5):
        u = rng.uniform(-1, 1, 1)
        h.append(u, model.step(u))
    with pytest.raises(InsufficientHistory):
        offline_init(h, cfg)


def test_offline_init_direct_rejects_window_weighting(rng):
    a, b = random_pair(rng, 2, 1)
    u, z, z_next = direct_data(rng, a, b, steps=40)
    with pytest.raises(ValueError):
        offline_init_direct(u, z, z_next, DeepoConfig(lag=1, q_mode="window"))


def test_initial_gain_is_certainty_equivalent(rng):
    # Noise-free init: the starting gain equals the model LQR gain computed
    # through an independent fit of the same data.
    a, b = random_pair(rng, 3, 2)
    u, z, z_next = direct_data(rng, a, b, steps=100)
    state = offline_init_direct(u, z, z_next, DeepoConfig(lag=1))
    a_fit, b_fit = fit_linear_dynamics(u, z, z_next)
    expected = model_lqr_gain(a_fit, b_fit, state.weights.q, state.weights.r)
    npt.assert_allclose(state.gain, expected, atol=1e-8)
    npt.assert_allclose(state.initial_gain, state.gain)


def test_already_optimal_gain_is_a_fixed_point(rng):
    # Zero probing, frozen noiseless plant, optimal gain: updates are no-ops.
    a, b = random_pair(rng, 3, 1)
    u, z, z_next = direct_data(rng, a, b, steps=40)
    state = offline_init_direct(u, z, z_next, DeepoConfig(lag=1, probe_std=0.0))
    k_star = model_lqr_gain(a, b, state.weights.q, state.weights.r)
    state.gain = k_star.copy()
    zc = z_next[:, -1].copy()
    for _ in range(100):
        uc = state.gain @ zc
        zn = a @ zc + b @ uc
        ingest_and_update(state, uc, zc, zn)
        zc = zn
    assert np.linalg.norm(state.gain - k_star) <= 1e-6


def test_online_cost_approaches_model_optimum(rng):
    # Full closed loop on a hidden plant: after enough adaptation the data
    # cost sits within a few percent of the model-based optimum.
    a, b = random_pair(rng, 3, 2)
    u0, z0, z0_next = direct_data(rng, a, b, steps=80, noise_std=1e-3)
    cfg = DeepoConfig(lag=1, eta0=1e-4, probe_std=1e-2)
    state = offline_init_direct(u0, z0, z0_next, cfg, rng_seed=4)
    zc = z0_next[:, -1].copy()
    plant_rng = np.random.default_rng(40)
    for _ in range(1500):
        uc = state.gain @ zc + state.rng.standard_normal(2) * cfg.probe_std
        zn = a @ zc + b @ uc + plant_rng.standard_normal(3) * 1e-3
        ingest_and_update(state, uc, zc, zn)
        zc = zn
    k_star = model_lqr_gain(a, b, state.weights.q, state.weights.r)
    j_star = lqr_cost(a, b, k_star, state.weights.q, state.weights.r)
    j_final = lqr_cost(a, b, state.gain, state.weights.q, state.weights.r)
    assert j_final <= 1.05 * j_star
    assert not state.warnings


def test_constraint_holds_every_step(rng):
    a, b = random_pair(rng, 2, 1)
    u0, z0, z0_next = direct_data(rng, a, b, steps=50, noise_std=1e-3)
    state = offline_init_direct(u0, z0, z0_next, DeepoConfig(lag=1), rng_seed=1)
    zc = z0_next[:, -1].copy()
    for _ in range(200):
        uc = state.gain @ zc + state.rng.standard_normal(1) * 0.01
        zn = a @ zc + b @ uc
        ingest_and_update(state, uc, zc, zn)
        residual = np.linalg.norm(state.cov.z0_bar @ _decision_matrix(state) - np.eye(state.cov.r))
        assert residual <= 1e-6
        zc = zn


def test_held_gain_step_prices_without_moving(rng):
    # update=False folds the sample into the covariances and records the
    # cost of the held gain, priced at the decision matrix the engine reads
    # off the updated inverse; the policy stays put.
    a, b = random_pair(rng, 3, 2)
    u0, z0, z0_next = direct_data(rng, a, b, steps=60, noise_std=1e-3)
    state = offline_init_direct(u0, z0, z0_next, DeepoConfig(lag=1), rng_seed=2)
    gain, count = state.gain.copy(), state.cov.count
    zc = z0_next[:, -1].copy()
    uc = state.gain @ zc + 0.01 * state.rng.standard_normal(2)
    zn = a @ zc + b @ uc
    record = ingest_and_update(state, uc, zc, zn, update=False)
    npt.assert_array_equal(state.gain, gain)
    assert state.cov.count == count + 1
    assert record.eta is None and record.grad_norm is None
    v = _decision_matrix(state)
    assert record.cost == data_cost(state.cov, v, state.weights)
    reference = parameterize(state.cov, state.gain)
    assert np.linalg.norm(v - reference) <= 1e-10 * np.linalg.norm(reference)
    assert state.records[-1] is record and state.t == count + 1


def test_constraint_drift_repairs_the_inverse(rng):
    # A perturbed phi_inv puts Zbar0 V off I; the first update warns once,
    # re-inverts Phi and reads V again, and the repaired inverse is what the
    # following updates build on.
    a, b = random_pair(rng, 3, 2)
    u0, z0, z0_next = direct_data(rng, a, b, steps=60, noise_std=1e-3)
    state = offline_init_direct(u0, z0, z0_next, DeepoConfig(lag=1), rng_seed=4)
    state.cov = dataclasses.replace(state.cov, phi_inv=state.cov.phi_inv * (1.0 + 1e-5))
    zc = z0_next[:, -1].copy()
    for _ in range(20):
        uc = state.gain @ zc + 0.01 * state.rng.standard_normal(2)
        zn = a @ zc + b @ uc
        ingest_and_update(state, uc, zc, zn)
        zc = zn
    assert len([w for w in state.warnings if "constraint drift" in w]) == 1
    exact = np.linalg.inv(state.cov.phi)
    assert np.max(np.abs(state.cov.phi_inv - exact)) <= 1e-12 * np.max(np.abs(exact))
    npt.assert_allclose(state.cov.z0_bar @ _decision_matrix(state), np.eye(3), rtol=0, atol=1e-9)


def test_update_evaluates_each_closed_loop_once(rng, monkeypatch):
    # Five accepted steps: one closed-loop evaluation for the starting point
    # and one per trial (6), and per step a P solve plus the trial's sigma
    # solve on top of the starting sigma (11).
    a, b = random_pair(rng, 3, 2)
    u0, z0, z0_next = direct_data(rng, a, b, steps=60, noise_std=1e-3)
    cfg = DeepoConfig(lag=1, gradient_steps_per_sample=5)
    state = offline_init_direct(u0, z0, z0_next, cfg, rng_seed=3)
    zc = z0_next[:, -1].copy()
    uc = state.gain @ zc + 0.01 * state.rng.standard_normal(2)
    zn = a @ zc + b @ uc
    calls = {"closed_loop": 0, "_dlyap_doubling": 0}
    for module, name in ((deepo.engine, "closed_loop"), (deepo.lqr_core, "_dlyap_doubling")):
        inner = getattr(module, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(module, name, counted)
    record = ingest_and_update(state, uc, zc, zn)
    eta_base, _ = Nullspace.of(state.cov).stepsize(cfg.eta0)
    assert not state.warnings
    assert record.eta == eta_base  # accepted at the first trial
    assert calls == {"closed_loop": 6, "_dlyap_doubling": 11}


def test_per_sample_path_needs_no_eigendecomposition_or_svd(rng, monkeypatch):
    # A 5-step update and a held-gain step run with eigvals, pinv and svd
    # unavailable, including to numpy's own callers such as norm(ord=2).
    a, b = random_pair(rng, 3, 2)
    u0, z0, z0_next = direct_data(rng, a, b, steps=60, noise_std=1e-3)
    state = offline_init_direct(u0, z0, z0_next, DeepoConfig(lag=1, gradient_steps_per_sample=5), rng_seed=3)

    def unavailable(*args, **kwargs):
        raise AssertionError("per-sample path called an eigendecomposition or an SVD")

    linalg_impl = sys.modules[np.linalg.norm.__wrapped__.__globals__["__name__"]]
    for module in (np.linalg, linalg_impl):
        for name in ("eigvals", "pinv", "svd"):
            monkeypatch.setattr(module, name, unavailable)
    zc = z0_next[:, -1].copy()
    for update in (True, True, True, True, True, False):
        uc = state.gain @ zc + 0.01 * state.rng.standard_normal(2)
        zn = a @ zc + b @ uc
        record = ingest_and_update(state, uc, zc, zn, update=update)
        assert np.isfinite(record.cost)
        assert (record.eta is not None) == update
        zc = zn
    assert not state.warnings


def _ill_conditioned_covariances(scale):
    # Phi = diag(1, 1, scale) for one input and two states, with the
    # cross-covariance of z+ = A z + B u, so every gain's decision matrix
    # has the closed loop A + B K; a small scale makes Phi ill-conditioned.
    a = np.array([[0.5, 0.1], [0.0, 0.4]])
    b = np.array([[1.0], [0.5]])
    phi = np.diag([1.0, 1.0, scale])
    return DataCovariances(
        phi=phi, phi_inv=np.diag(1.0 / np.diag(phi)), z1_bar=np.hstack([b, a]) @ phi, count=10
    )


def test_ill_conditioned_covariances_are_flagged_and_warned():
    # The condition proxy ||Phi||_F ||Phi^-1||_F crosses 1e12 inside this
    # range of scales (the sample leaves the small direction alone); the
    # flag follows it exactly on both sides.
    flags = []
    for scale in np.geomspace(1e-13, 1e-11, 41):
        cov = cov_update(_ill_conditioned_covariances(scale), [0.1], [0.2, 0.0], [0.05, 0.0])
        assert cov.ill_conditioned == (np.linalg.norm(cov.phi) * np.linalg.norm(cov.phi_inv) > 1e12)
        flags.append(cov.ill_conditioned)
    assert True in flags and False in flags
    state = DeepoState.fresh(DeepoConfig(lag=1), m=1)
    state.cov = _ill_conditioned_covariances(1e-13)
    state.weights = identity_weights(2, 1)
    state.gain = np.zeros((1, 2))
    ingest_and_update(state, [0.1], [0.2, 0.0], [0.05, 0.0])
    assert state.cov.ill_conditioned
    assert "data covariance poorly conditioned at t=0" in state.warnings


def _direct_state(rng, eta0):
    a, b = random_pair(rng, 3, 2)
    u0, z0, z0_next = direct_data(rng, a, b, steps=60, noise_std=1e-3)
    state = offline_init_direct(u0, z0, z0_next, DeepoConfig(lag=1, eta0=eta0), rng_seed=2)
    zc = z0_next[:, -1].copy()
    uc = state.gain @ zc + 0.01 * state.rng.standard_normal(2)
    return state, a, b, (uc, zc, a @ zc + b @ uc)


def test_backtracking_halves_an_infeasible_first_trial(rng):
    # A stepsize far beyond the feasible set: the step is halved until the
    # closed loop is stable, and the record says which trial was taken.
    state, _, _, sample = _direct_state(rng, eta0=1e4)
    record = ingest_and_update(state, *sample)
    eta_base, _ = Nullspace.of(state.cov).stepsize(state.config.eta0)
    assert record.eta in [eta_base / 2**j for j in range(1, 11)]
    # The new gain is feasible: its closed loop passes the test again.
    cl = closed_loop(state.cov, _decision_matrix(state), state.weights)
    assert cl.cost == pytest.approx(record.cost, rel=1e-9)
    assert not state.warnings


def test_backtracking_exhausted_holds_the_gain(rng):
    # Even the tenth halving leaves the feasible set: the step is dropped
    # with a warning and the gain stays where it was.
    state, _, _, sample = _direct_state(rng, eta0=1e9)
    gain = state.gain.copy()
    record = ingest_and_update(state, *sample)
    assert record.eta is None
    assert state.warnings == ["gradient step infeasible after backtracking at t=60"]
    npt.assert_allclose(state.gain, gain, rtol=1e-9, atol=0)
    assert np.isfinite(record.cost) and record.grad_norm > 0


def test_infeasible_held_gain_is_held_at_infinite_cost(rng):
    # A gain that destabilizes the data-driven closed loop cannot start a
    # gradient step: it is held with a warning and priced at inf.
    state, a, b, sample = _direct_state(rng, eta0=1e-4)
    state.gain = 10.0 * np.linalg.pinv(b)
    assert np.max(np.abs(np.linalg.eigvals(a + b @ state.gain))) > 1.0
    gain = state.gain.copy()
    record = ingest_and_update(state, *sample)
    assert state.warnings == ["infeasible parameterization at t=60; gain held"]
    assert record.cost == float("inf")
    assert record.eta is None and record.grad_norm is None
    npt.assert_allclose(state.gain, gain, rtol=1e-9, atol=0)


def surrogate_run(seed, steps=700, policy_updates=True, update_start=None):
    plant, schedule = make_surrogate_converter(rng_seed=seed, switch_step=100)
    splant = SwitchingPlant(plant, schedule, kicks=[(100, [1.0, 0.0, 0.0, 0.0])])
    cfg = DeepoConfig(lag=2, eta0=1e-4, probe_std=0.01, r_override=8)
    state = DeepoState.fresh(cfg, splant.plant.m, rng_seed=seed + 1)
    records = run_online(
        state,
        splant,
        steps=steps,
        activation_step=500,
        excitation_start=200,
        policy_updates=policy_updates,
        update_start=update_start,
    )
    return state, records


def test_run_online_timeline_and_determinism():
    state1, records1 = surrogate_run(seed=5)
    state2, records2 = surrogate_run(seed=5)
    assert [r.mode for r in records1[:200]] == ["idle"] * 200
    assert all(r.mode == "excite" for r in records1[200:500])
    assert all(r.mode == "deepo" for r in records1[500:])
    assert len(records1) == len(records2)
    for r1, r2 in zip(records1, records2):
        npt.assert_array_equal(r1.u, r2.u)
        npt.assert_array_equal(r1.y, r2.y)
    npt.assert_array_equal(state1.gain, state2.gain)


def test_run_online_accepts_plain_callable(rng):
    # The engine sees only u -> y; the model stays on the caller's side.
    model = random_minimal(rng, 2, 1, 1)
    cfg = DeepoConfig(lag=2, r_override=4)
    state = DeepoState.fresh(cfg, 1, rng_seed=2)
    records = run_online(
        state, lambda u: model.step(u), steps=120, activation_step=60,
        excitation_start=0,
    )
    assert state.initialized
    assert len(records) == 120
    assert records[-1].mode == "deepo"


def test_frozen_gain_never_moves():
    state, _ = surrogate_run(seed=6, policy_updates=False)
    npt.assert_array_equal(state.gain, state.initial_gain)


def test_update_start_delays_adaptation():
    state, _ = surrogate_run(seed=6, update_start=600)
    frozen_part, _ = surrogate_run(seed=6, policy_updates=False, steps=600)
    # Identical to the frozen run up to the update start, then it moves.
    npt.assert_allclose(state.records[599].u, frozen_part.records[599].u)
    assert np.linalg.norm(state.gain - state.initial_gain) > 0


def test_frozen_then_resume_rebuilds_parameterization():
    # Resuming after a frozen stretch reads the decision matrix of the held
    # gain off the inverse updated through that stretch, without
    # constraint-drift warnings.
    state, _ = surrogate_run(seed=7, update_start=620, steps=700)
    assert not [w for w in state.warnings if "constraint drift" in w]
    assert np.linalg.norm(state.gain - state.initial_gain) > 0


def test_nonfinite_output_aborts_with_records(rng):
    model = random_minimal(rng, 2, 1, 1)
    calls = {"n": 0}

    def flaky(u):
        calls["n"] += 1
        y = model.step(u)
        return y if calls["n"] < 30 else y * np.nan

    state = DeepoState.fresh(DeepoConfig(lag=2, r_override=4), 1, rng_seed=3)
    with pytest.raises(NonFinite) as excinfo:
        run_online(state, flaky, steps=120, activation_step=60, excitation_start=0)
    assert len(excinfo.value.records) >= 29


def test_state_json_roundtrip():
    state, _ = surrogate_run(seed=8, steps=620)
    clone = DeepoState.from_json(state.to_json())
    npt.assert_allclose(clone.gain, state.gain)
    npt.assert_allclose(clone.cov.phi, state.cov.phi)
    npt.assert_allclose(clone.map.t_matrix, state.map.t_matrix)
    npt.assert_array_equal(clone.history.u, state.history.u)
    npt.assert_array_equal(clone.history.y, state.history.y)
    assert clone.t == state.t
    assert clone.config == state.config
    # The restored rng continues the same stream.
    npt.assert_array_equal(clone.rng.standard_normal(4), state.rng.standard_normal(4))


def test_checkpoint_with_stored_decision_matrix_still_loads():
    # Checkpoints written before the decision matrix was read off phi_inv
    # carry it as "v_prime" with a "v_synced_count"; those keys are ignored.
    state, _ = surrogate_run(seed=8, steps=520)
    payload = json.loads(state.to_json())
    r = len(payload["cov"]["z1_bar"])
    payload["v_prime"] = np.zeros((state.m + r, r)).tolist()
    payload["v_synced_count"] = payload["cov"]["count"]
    clone = DeepoState.from_json(json.dumps(payload))
    assert clone.to_json() == state.to_json()


def test_checkpoint_with_unknown_config_keys_is_config_invalid():
    # A checkpoint carrying config keys this version does not know (such as
    # one written by an older version) is rejected as a typed error.
    state, _ = surrogate_run(seed=8, steps=520)
    payload = json.loads(state.to_json())
    payload["config"]["gap_ratio"] = 1.8
    with pytest.raises(ConfigInvalid, match="gap_ratio"):
        DeepoState.from_json(json.dumps(payload))


def _drop_last_column(rows):
    return [row[:-1] for row in rows]


def _edit(path, change):
    """Checkpoint edit replacing the entry at a dotted ``path`` by ``change(entry)``."""

    def edit(payload):
        *parents, leaf = path.split(".")
        for key in parents:
            payload = payload[key]
        payload[leaf] = change(payload[leaf])

    return pytest.param(edit, re.escape(f"checkpoint: {path} "), id=path)


@pytest.fixture(scope="module")
def checkpoint_payload():
    state, _ = surrogate_run(seed=8, steps=520)
    return state.to_json()


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"config": {"lag": 2}}', "'cov'"),
        ("nope", "malformed"),
        ("[]", "malformed"),
        (None, "inputs and outputs"),
        # Arrays whose shapes do not fit m = 2, r = 8, p = 2 and lag = 2.
        _edit("gain", lambda _: np.zeros((2, 3)).tolist()),
        _edit("initial_gain", _drop_last_column),
        _edit("cov.phi", _drop_last_column),
        _edit("cov.phi_inv", _drop_last_column),
        _edit("cov.z1_bar", _drop_last_column),
        _edit("weights.q", lambda q: np.eye(len(q) + 1).tolist()),
        _edit("weights.r", lambda r: np.eye(len(r) + 1).tolist()),
        _edit("inputs", lambda rows: [row + [0.0] for row in rows]),
        _edit("map.t_matrix", _drop_last_column),
        _edit("map.input_rows", lambda rows: rows + 1),
    ],
)
def test_malformed_checkpoint_is_config_invalid(text, key, checkpoint_payload):
    if text is None or callable(text):
        payload = json.loads(checkpoint_payload)
        if text is None:
            payload["outputs"].pop()
        else:
            text(payload)
        text = json.dumps(payload)
    with pytest.raises(ConfigInvalid, match=key):
        DeepoState.from_json(text)


def test_direct_state_checkpoint_has_no_map_or_history_to_check(rng):
    a, b = random_pair(rng, 3, 2)
    u0, z0, z0_next = direct_data(rng, a, b, steps=60, noise_std=1e-3)
    state = offline_init_direct(u0, z0, z0_next, DeepoConfig(lag=1), rng_seed=3)
    clone = DeepoState.from_json(state.to_json())
    npt.assert_array_equal(clone.gain, state.gain)
    assert clone.map is None and len(clone.history) == 0
    payload = json.loads(state.to_json())
    payload["gain"] = np.zeros((2, 2)).tolist()
    with pytest.raises(ConfigInvalid, match=re.escape("checkpoint: gain has shape (2, 2), expected (2, 3)")):
        DeepoState.from_json(json.dumps(payload))


def test_control_step_uses_gain_and_probe():
    state, _ = surrogate_run(seed=9, steps=620)
    z = np.zeros(state.map.reduced_dim)
    state.config.probe_std = 0.0
    u = control_step(state, z)
    npt.assert_allclose(u, np.zeros(state.m), atol=1e-12)


def test_closed_loop_decision_forms_one_window(monkeypatch):
    # Step t's z_next is step t+1's z_t: one window stacked and reduced per
    # closed-loop decision.
    state, _ = surrogate_run(seed=9, steps=520)
    calls = {"stack_window": 0, "reduce_state": 0}
    for name in calls:
        inner = getattr(deepo.engine, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(deepo.engine, name, counted)
    plant, schedule = make_surrogate_converter(rng_seed=9, switch_step=100)
    run_online(state, plant, steps=10, activation_step=500)
    # One window per decision, plus the one the call starts from.
    assert calls == {"stack_window": 11, "reduce_state": 11}
