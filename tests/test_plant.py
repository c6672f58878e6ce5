"""Truth-model simulator and the model-based oracle constructions."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from conftest import drive, fit_linear_dynamics, random_minimal
from deepo.errors import DegenerateData, LagTooSmall, NoConvergence, NonFinite
from deepo.numerics import spectral_radius
from deepo.plant import (
    PlantModel,
    SwitchEvent,
    SwitchSchedule,
    SwitchingPlant,
    build_controllability,
    build_nonminimal_oracle,
    build_observability,
    build_toeplitz,
    lqr_cost,
    make_surrogate_converter,
    model_lqr_gain,
    simulate_lti,
    surrogate_io_matrices,
    surrogate_nominal_dynamics,
    surrogate_oscillatory_dynamics,
    surrogate_perturbed_dynamics,
)


A2 = np.array([[0.5, 0.1], [0.0, 0.4]])
B2 = np.array([[1.0], [0.5]])
C2 = np.array([[1.0, 0.0]])


def test_step_measures_then_advances():
    plant = PlantModel(A2, B2, C2, x0=[1.0, 2.0])
    y = plant.step([3.0])
    npt.assert_allclose(y, [1.0])  # C x0, before the state moves
    npt.assert_allclose(plant.state, A2 @ [1.0, 2.0] + B2[:, 0] * 3.0)


def test_seeded_noise_determinism(rng):
    inputs = rng.uniform(-1, 1, (50, 1))
    kw = dict(process_noise_std=0.02, measurement_noise_std=0.01)
    y1 = drive(PlantModel(A2, B2, C2, rng_seed=9, **kw), inputs)
    y2 = drive(PlantModel(A2, B2, C2, rng_seed=9, **kw), inputs)
    y3 = drive(PlantModel(A2, B2, C2, rng_seed=10, **kw), inputs)
    npt.assert_array_equal(y1, y2)
    assert np.max(np.abs(y1 - y3)) > 1e-6


def test_minimality_enforced():
    with pytest.raises(ValueError, match="controllable"):
        PlantModel(A2, np.zeros((2, 1)), C2)
    with pytest.raises(ValueError, match="observable"):
        PlantModel(A2, B2, np.zeros((1, 2)))


def test_nonfinite_input_rejected():
    plant = PlantModel(A2, B2, C2)
    with pytest.raises(NonFinite):
        plant.step([np.nan])


def test_kick_shifts_state():
    plant = PlantModel(A2, B2, C2, x0=[0.0, 0.0])
    plant.kick([1.0, -2.0])
    npt.assert_allclose(plant.state, [1.0, -2.0])


def test_switching_plant_applies_schedule_and_kicks():
    a_new = np.array([[0.3, 0.1], [0.0, 0.2]])
    schedule = SwitchSchedule([SwitchEvent(step=2, a=a_new, b=B2, c=C2)])
    splant = SwitchingPlant(
        PlantModel(A2, B2, C2), schedule, kicks=[(1, [1.0, 0.0])]
    )
    outs = [splant.step([0.0]) for _ in range(5)]
    # Manual composition: switches and kicks fire before the step they tag.
    manual = PlantModel(A2, B2, C2)
    manual_outs = []
    for t in range(5):
        if t == 2:
            manual.set_dynamics(a_new, B2, C2)
        if t == 1:
            manual.kick([1.0, 0.0])
        manual_outs.append(manual.step([0.0]))
    npt.assert_allclose(outs, manual_outs)


def test_switch_schedule_must_increase():
    ev = SwitchEvent(step=3, a=A2, b=B2, c=C2)
    with pytest.raises(ValueError):
        SwitchSchedule([ev, ev])


def test_simulate_lti_impulse_response():
    # Scalar a=0.5: impulse gives y = (0, 1, 0.5, 0.25, ...).
    y = simulate_lti([[0.5]], [[1.0]], [[1.0]], [0.0], [[1.0], [0.0], [0.0], [0.0]])
    npt.assert_allclose(y[:, 0], [0.0, 1.0, 0.5, 0.25])


def test_structured_stacks_match_powers(rng):
    model = random_minimal(rng, 3, 2, 2)
    a, b, c = model.a, model.b, model.c
    depth = 4
    obs = build_observability(model, depth)
    ctrb = build_controllability(model, depth)
    toep = build_toeplitz(model, depth)
    for i in range(depth):
        power = np.linalg.matrix_power(a, depth - 1 - i)
        npt.assert_allclose(obs[i * 2 : (i + 1) * 2], c @ power, atol=1e-12)
        npt.assert_allclose(
            ctrb[:, i * 2 : (i + 1) * 2], np.linalg.matrix_power(a, i) @ b, atol=1e-12
        )
    for i in range(depth):
        for j in range(depth):
            block = toep[i * 2 : (i + 1) * 2, j * 2 : (j + 1) * 2]
            if j > i:
                expected = c @ np.linalg.matrix_power(a, j - i - 1) @ b
            else:
                expected = np.zeros((2, 2))
            npt.assert_allclose(block, expected, atol=1e-12)


def test_window_output_row_scalar_example():
    # a=0.5, b=c=1, lag=1: y_t = 1*u_{t-1} + 0.5*y_{t-1}.
    model = PlantModel([[0.5]], [[1.0]], [[1.0]])
    oracle = build_nonminimal_oracle(model, lag=1)
    npt.assert_allclose(oracle.s_row, [[1.0, 0.5]])


def test_window_output_row_full_state_measurement(rng):
    # With C = I and lag 1 the window map is exactly [B A].
    model = random_minimal(rng, 3, 2, 3)
    model = PlantModel(model.a, model.b, np.eye(3))
    oracle = build_nonminimal_oracle(model, lag=1)
    npt.assert_allclose(oracle.s_row, np.hstack([model.b, model.a]), atol=1e-10)


def test_window_output_identity_any_start(rng):
    # y_t = s_row @ xi_t on noise-free trajectories from arbitrary x0.
    for _ in range(5):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        model = random_minimal(rng, n, m, p)
        lag = n
        oracle = build_nonminimal_oracle(model, lag)
        steps = 30
        u = rng.uniform(-1, 1, (steps, m))
        x = rng.standard_normal(n)
        ys, xs = [], []
        for t in range(steps):
            ys.append(model.c @ x)
            x = model.a @ x + model.b @ u[t]
        for t in range(lag, steps):
            u_part = [u[t - i] for i in range(1, lag + 1)]
            y_part = [ys[t - i] for i in range(1, lag + 1)]
            xi = np.concatenate(u_part + y_part)
            npt.assert_allclose(oracle.s_row @ xi, ys[t], atol=1e-9)


def test_window_companion_recursion(rng):
    # xi_{t+1} = A_xi xi_t + B_xi u_t reproduces the stacked window exactly.
    model = random_minimal(rng, 2, 1, 2)
    lag = 2
    oracle = build_nonminimal_oracle(model, lag)
    steps = 25
    u = rng.uniform(-1, 1, (steps, 1))
    x = np.zeros(2)
    ys = []
    for t in range(steps):
        ys.append(model.c @ x)
        x = model.a @ x + model.b @ u[t]

    def window(t):
        u_part = [u[t - i] for i in range(1, lag + 1)]
        y_part = [ys[t - i] for i in range(1, lag + 1)]
        return np.concatenate(u_part + y_part)

    xi = window(lag)
    for t in range(lag, steps - 1):
        xi = oracle.a_xi @ xi + oracle.b_xi @ u[t]
        npt.assert_allclose(xi, window(t + 1), atol=1e-9)


def test_lag_below_observability_index_raises(rng):
    # A 3-state single-output plant needs at least 3 past outputs.
    model = random_minimal(rng, 3, 1, 1)
    with pytest.raises(LagTooSmall):
        build_nonminimal_oracle(model, lag=2)
    build_nonminimal_oracle(model, lag=3)


def test_lqr_cost_matches_series_oracle(rng):
    a = np.array([[0.6, 0.2], [0.0, 0.5]])
    b = np.array([[1.0], [1.0]])
    k = np.array([[-0.2, -0.1]])
    q, r = np.eye(2), np.eye(1)
    a_cl = a + b @ k
    sigma = np.zeros((2, 2))
    term = np.eye(2)
    for _ in range(10_000):
        sigma = sigma + term
        term = a_cl @ term @ a_cl.T
        if np.linalg.norm(term) < 1e-16:
            break
    expected = np.trace((q + k.T @ r @ k) @ sigma)
    assert lqr_cost(a, b, k, q, r) == pytest.approx(expected, rel=1e-10)


def test_model_lqr_gain_is_optimal_among_perturbations(rng):
    a = np.array([[0.9, 0.3], [0.0, 0.7]])
    b = np.array([[0.0], [1.0]])
    q, r = np.eye(2), np.eye(1)
    k = model_lqr_gain(a, b, q, r)
    base = lqr_cost(a, b, k, q, r)
    for _ in range(10):
        other = k + 0.05 * rng.standard_normal(k.shape)
        if spectral_radius(a + b @ other) < 1.0:
            assert base <= lqr_cost(a, b, other, q, r) + 1e-9


def test_model_lqr_gain_reports_divergence_without_warnings():
    # The value-iteration oracle on an unreachable 1.5 mode: ||P|| overflows
    # within a thousand sweeps and is reported, not read as convergence.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NoConvergence, match="diverged"):
            model_lqr_gain(np.diag([1.5, 0.5]), np.array([[0.0], [1.0]]), np.eye(2), np.eye(1))


def test_fit_linear_dynamics_recovers_truth(rng):
    a = np.array([[0.7, 0.1], [0.0, 0.6]])
    b = np.array([[1.0, 0.0], [0.2, 1.0]])
    u = rng.uniform(-1, 1, (2, 60))
    z = np.zeros((2, 61))
    for t in range(60):
        z[:, t + 1] = a @ z[:, t] + b @ u[:, t]
    a_hat, b_hat = fit_linear_dynamics(u, z[:, :-1], z[:, 1:])
    npt.assert_allclose(a_hat, a, atol=1e-10)
    npt.assert_allclose(b_hat, b, atol=1e-10)
    with pytest.raises(DegenerateData):
        fit_linear_dynamics(np.zeros((2, 60)), z[:, :-1], z[:, 1:])


def test_surrogate_mode_moduli():
    for build, moduli in (
        (surrogate_nominal_dynamics, (0.90, 0.85)),
        (surrogate_oscillatory_dynamics, (0.9995, 0.88)),
        (surrogate_perturbed_dynamics, (0.9997, 0.88)),
    ):
        eigs = np.sort(np.abs(np.linalg.eigvals(build())))
        npt.assert_allclose(eigs, [moduli[1], moduli[1], moduli[0], moduli[0]], atol=1e-12)


def test_surrogate_ring_persistence():
    # The lightly damped pair keeps >= 90% of its envelope over half a second
    # (100 samples at 200 Hz): 0.9995^100.
    assert 0.9995**100 >= 0.9
    b, c = surrogate_io_matrices()
    y = simulate_lti(surrogate_oscillatory_dynamics(), b, c, [1.0, 0.0, 0.0, 0.0],
                     np.zeros((101, 2)))
    peak_early = np.max(np.abs(y[:20]))
    peak_late = np.max(np.abs(y[81:]))
    assert peak_late >= 0.85 * peak_early


def test_make_surrogate_converter_switch_schedule():
    plant, schedule = make_surrogate_converter(rng_seed=3, switch_step=40)
    assert plant.n == 4 and plant.m == 2 and plant.p == 2
    npt.assert_allclose(plant.a, surrogate_nominal_dynamics())
    assert len(schedule.events) == 1
    assert schedule.events[0].step == 40
    npt.assert_allclose(schedule.events[0].a, surrogate_oscillatory_dynamics())
