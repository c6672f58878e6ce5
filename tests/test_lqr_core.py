"""Covariance bookkeeping, the data-driven cost/gradient, and the gain step
against the decision-matrix form of the update."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from conftest import (
    direct_data,
    parameterize,
    projector,
    random_pair,
    recover_gain,
    v_cost,
    v_gradient,
)
from deepo.errors import DimensionMismatch, RankDeficient, Unstable, Unstabilizable
from deepo.lqr_core import (
    FEASIBILITY_MARGIN,
    DataCovariances,
    LqrWeights,
    Model,
    Nullspace,
    _eye,
    closed_loop,
    cov_init,
    cov_update,
    data_cost,
    gradient,
    identity_weights,
    initial_policy,
)
from deepo.numerics import spectral_radius
from deepo.plant import lqr_cost, model_lqr_gain


def preconditioned_gradient(model, nullspace, k, weights):
    """The engine's gain step direction, ``(N'N)^{-1} grad_K J``."""
    return nullspace.gram_inv @ gradient(model, closed_loop(model, k, weights), weights)


@pytest.fixture
def batch(rng):
    a, b = random_pair(rng, 3, 2)
    u, z, z_next = direct_data(rng, a, b, steps=120, noise_std=1e-3)
    return a, b, cov_init(u, z, z_next), (u, z, z_next)


def test_weights_validation():
    with pytest.raises(ValueError, match="symmetric"):
        LqrWeights(q=np.array([[1.0, 0.5], [0.0, 1.0]]), r=np.eye(1))
    with pytest.raises(ValueError, match="positive definite"):
        LqrWeights(q=np.diag([1.0, -1.0]), r=np.eye(1))
    w = identity_weights(3, 2)
    npt.assert_array_equal(w.q, np.eye(3))
    npt.assert_array_equal(w.r, np.eye(2))


def test_cov_init_matches_batch_definition(rng):
    a, b = random_pair(rng, 2, 1)
    u, z, z_next = direct_data(rng, a, b, steps=50)
    cov = cov_init(u, z, z_next)
    d0 = np.vstack([u, z])
    t = u.shape[1]
    npt.assert_allclose(cov.phi, d0 @ d0.T / t, atol=1e-12)
    npt.assert_allclose(cov.z1_bar, z_next @ d0.T / t, atol=1e-12)
    npt.assert_allclose(cov.phi_inv @ cov.phi, np.eye(3), atol=1e-9)
    assert cov.count == t
    assert cov.m == 1 and cov.r == 2


def test_cov_init_guards(rng):
    a, b = random_pair(rng, 2, 1)
    u, z, z_next = direct_data(rng, a, b, steps=50)
    with pytest.raises(RankDeficient):
        cov_init(u[:, :2], z[:, :2], z_next[:, :2])
    with pytest.raises(DimensionMismatch):
        cov_init(u[:, :-1], z, z_next)
    with pytest.raises(RankDeficient):
        cov_init(np.zeros_like(u), z * 0.0, z_next * 0.0)


def test_cov_update_matches_batch_reinit(rng):
    # Sequential rank-one folding must agree with recomputing from scratch.
    a, b = random_pair(rng, 3, 2)
    u, z, z_next = direct_data(rng, a, b, steps=90, noise_std=1e-3)
    cov = cov_init(u[:, :40], z[:, :40], z_next[:, :40])
    for t in range(40, 90):
        cov = cov_update(cov, u[:, t], z[:, t], z_next[:, t])
    batch_cov = cov_init(u, z, z_next)
    npt.assert_allclose(cov.phi, batch_cov.phi, atol=1e-12)
    npt.assert_allclose(cov.z1_bar, batch_cov.z1_bar, atol=1e-12)
    npt.assert_allclose(cov.phi_inv, batch_cov.phi_inv, atol=1e-8)
    assert cov.count == 90


def test_cov_update_single_sample_formula():
    # One update from a hand-checkable two-sample start.
    u = np.array([[1.0, 0.0]])
    z = np.array([[0.0, 1.0]])
    z_next = np.array([[0.5, 0.2]])
    cov = cov_init(u, z, z_next)
    new = cov_update(cov, [2.0], [1.0], [0.1])
    d_all = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    npt.assert_allclose(new.phi, d_all @ d_all.T / 3.0, atol=1e-14)
    npt.assert_allclose(
        new.z1_bar, np.array([[0.5, 0.2, 0.1]]) @ d_all.T / 3.0, atol=1e-14
    )
    with pytest.raises(DimensionMismatch):
        cov_update(cov, [1.0, 2.0], [1.0], [0.1])


def test_parameterize_recover_roundtrip(batch, rng):
    # The decision-matrix oracle: V = Phi^-1 [K; I] meets the constraint,
    # encodes K, and closes the loop through the least-squares model.
    _, _, cov, _ = batch
    k = rng.standard_normal((cov.m, cov.r))
    v = parameterize(cov, k)
    npt.assert_allclose(recover_gain(cov, v), k, atol=1e-9)
    npt.assert_allclose(cov.phi[cov.m :] @ v, np.eye(cov.r), atol=1e-9)
    model = Model.of(cov)
    npt.assert_allclose(cov.z1_bar @ v, model.a + model.b @ k, rtol=0, atol=1e-12 * np.linalg.norm(v))


def test_data_cost_noiseless_matches_model_cost(rng):
    # On exact data the data-driven cost equals the model-based cost.
    a, b = random_pair(rng, 3, 2)
    u, z, z_next = direct_data(rng, a, b, steps=80)
    cov = cov_init(u, z, z_next)
    weights = identity_weights(3, 2)
    k = model_lqr_gain(a, b, weights.q, weights.r)
    expected = lqr_cost(a, b, k, weights.q, weights.r)
    assert data_cost(Model.of(cov), k, weights) == pytest.approx(expected, rel=1e-8)


def infeasible_point(model):
    # Scale the gain until the data-driven closed loop leaves the unit disc.
    for scale in (1e2, 1e4, 1e6, 1e8):
        k = scale * np.ones((model.b.shape[1], len(model.a)))
        if spectral_radius(model.a + model.b @ k) >= 1.0:
            return k
    raise AssertionError("could not construct an infeasible policy")


def test_data_cost_infeasible_is_inf(batch):
    _, _, cov, _ = batch
    weights = identity_weights(cov.r, cov.m)
    model = Model.of(cov)
    assert data_cost(model, infeasible_point(model), weights) == np.inf


def _finite_difference(cost, x, h=1e-6):
    fd = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            fd[i, j] = (cost(xp) - cost(xm)) / (2 * h)
    return fd


def test_gradient_matches_finite_difference(rng):
    # The decision-matrix oracle's own check: its V gradient is the
    # derivative of its V cost.
    a, b = random_pair(rng, 2, 1)
    u, z, z_next = direct_data(rng, a, b, steps=60, noise_std=1e-3)
    cov = cov_init(u, z, z_next)
    weights = identity_weights(2, 1)
    k = initial_policy(cov, weights)
    v0 = parameterize(cov, k)
    checked = 0
    for trial in range(6):
        v = v0 + 0.02 * np.random.default_rng(trial).standard_normal(v0.shape)
        if spectral_radius(cov.z1_bar @ v) >= 0.95:
            continue
        checked += 1
        fd = _finite_difference(lambda x: v_cost(cov, x, weights), v)
        npt.assert_allclose(v_gradient(cov, v, weights), fd, rtol=1e-5, atol=1e-8)
    assert checked >= 2


def test_gain_gradient_matches_finite_difference(rng):
    # grad_K J = 2 (R K + B' P A_cl) Sigma is the derivative of data_cost
    # in K, at gains around the certainty-equivalence one.
    checked = 0
    for trial in range(8):
        r, m = 2 + trial % 3, 1 + trial % 2
        a, b = random_pair(rng, r, m)
        u, z, z_next = direct_data(rng, a, b, steps=30 * (m + r), noise_std=1e-3)
        cov = cov_init(u, z, z_next)
        model = Model.of(cov)
        weights = identity_weights(r, m)
        k = initial_policy(cov, weights) + 0.05 * rng.standard_normal((m, r))
        if spectral_radius(model.a + model.b @ k) >= 0.95:
            continue
        checked += 1
        g = gradient(model, closed_loop(model, k, weights), weights)
        assert g.shape == (m, r)
        fd = _finite_difference(lambda x: data_cost(model, x, weights), k)
        npt.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)
    assert checked >= 6


def test_gradient_unstable_raises(batch):
    # An infeasible K has no closed-loop evaluation, so no gradient either.
    _, _, cov, _ = batch
    weights = identity_weights(cov.r, cov.m)
    model = Model.of(cov)
    with pytest.raises(Unstable):
        closed_loop(model, infeasible_point(model), weights)


def test_closed_loop_prices_like_data_cost(batch):
    # One evaluation serves the cost: same number as data_cost, and sigma
    # solves the closed-loop Lyapunov equation.
    _, _, cov, _ = batch
    weights = identity_weights(cov.r, cov.m)
    model = Model.of(cov)
    k = initial_policy(cov, weights)
    cl = closed_loop(model, k, weights)
    assert cl.cost == data_cost(model, k, weights)
    npt.assert_array_equal(cl.a_cl, model.b.dot(k) + model.a)
    residual = cl.sigma - np.eye(cov.r) - cl.a_cl @ cl.sigma @ cl.a_cl.T
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(cl.sigma)
    # The cost the decision-matrix oracle gives V = Phi^-1 [K; I].
    assert cl.cost == pytest.approx(v_cost(cov, parameterize(cov, k), weights), rel=1e-10)


def test_nullspace_projection_properties(batch, rng):
    # The oracle's projector is the orthogonal projector onto the nullspace
    # of Zbar0, and Ubar Pi carries the V gradient to the engine's step:
    # Ubar Pi grad_V J = (N'N)^-1 grad_K J, with ||Pi grad_V J||_F read off
    # the Gram matrix.
    _, _, cov, _ = batch
    pi = projector(cov)
    npt.assert_allclose(pi, pi.T, atol=1e-12)
    npt.assert_allclose(pi @ pi, pi, atol=1e-10)
    npt.assert_allclose(cov.phi[cov.m :] @ pi, np.zeros((cov.r, cov.m + cov.r)), atol=1e-9)
    assert np.trace(pi) == pytest.approx(cov.m, abs=1e-8)
    weights = identity_weights(cov.r, cov.m)
    model, nullspace = Model.of(cov), Nullspace.of(cov)
    k = initial_policy(cov, weights) + 0.05 * rng.standard_normal((cov.m, cov.r))
    pg = pi @ v_gradient(cov, parameterize(cov, k), weights)
    step = preconditioned_gradient(model, nullspace, k, weights)
    assert np.linalg.norm(cov.phi[: cov.m] @ pg - step) <= 1e-10 * np.linalg.norm(step)
    assert np.sqrt(np.vdot(step, nullspace.gram @ step)) == pytest.approx(np.linalg.norm(pg), rel=1e-10)


def test_cached_identity_is_shared_and_read_only():
    # closed_loop and the engine's drift check read one identity per size;
    # a caller writing into it would corrupt every later solve.
    for n in (1, 3, 8):
        eye = _eye(n)
        assert _eye(n) is eye
        assert not eye.flags.writeable
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0
        npt.assert_array_equal(eye, np.eye(n))


def test_closed_loop_feasibility_against_eigenvalues(rng):
    # Every K is either accepted with spectral radius below 1 - margin (the
    # eigvals oracle) or rejected as Unstable, without a RuntimeWarning.
    r, m = 3, 1
    weights = identity_weights(r, m)
    jordan = np.eye(r, k=1)
    cases = [(rng.standard_normal((r, r)) * rng.uniform(0.1, 0.8), np.zeros((m, r))) for _ in range(200)]
    cases += [
        ((1.0 - 1e-10) * np.eye(r) + jordan, np.zeros((m, r))),  # non-normal, rho = 1 - 1e-10
        ((1.0 - 1e-10) * np.eye(r) + 1e-6 * jordan, np.zeros((m, r))),
        (np.diag([1.0 - 5e-10, 0.3, 0.0]), np.zeros((m, r))),
        (np.diag([1.0 - 2e-9, 0.3, 0.0]), np.zeros((m, r))),  # feasible, close to the margin
        (np.diag([1.0, 0.5, 0.0]), np.zeros((m, r))),  # rho = 1 exactly
        (np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.2]]), np.zeros((m, r))),
        (np.eye(r) + jordan, np.zeros((m, r))),
        (np.diag([1.01, 0.2, 0.0]), np.zeros((m, r))),  # rho > 1
        (1.5 * np.eye(r) + jordan, np.zeros((m, r))),
        (np.diag([0.5, 0.2, 0.1]), 1e200 * np.ones((m, r))),  # gain scaled to 1e200
    ]
    b = np.array([[1.0], [0.5], [-0.3]])
    verdicts = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for a, k in cases:
            try:
                cl = closed_loop(Model(b=b, a=a), k, weights)
            except Unstable:
                verdicts.append(False)
                continue
            verdicts.append(True)
            rho = np.max(np.abs(np.linalg.eigvals(cl.a_cl)))
            assert rho < 1.0 - FEASIBILITY_MARGIN, f"accepted a loop with spectral radius {rho!r}"
    assert verdicts[-10:] == [False, False, False, True, False, False, False, False, False, False]
    assert 0 < sum(verdicts[:200]) < 200


@pytest.mark.parametrize("recursive", [False, True])
def test_projector_and_stepsize_match_pseudoinverse_formulas(batch, recursive):
    # gram_inv = Ubar Pi Ubar' for the pseudo-inverse projector Pi, also
    # after 60 Sherman-Morrison updates of phi_inv.
    _, _, cov, (u, z, z_next) = batch
    if recursive:
        cov = cov_init(u[:, :60], z[:, :60], z_next[:, :60])
        for t in range(60, u.shape[1]):
            cov = cov_update(cov, u[:, t], z[:, t], z_next[:, t])
    reference = cov.phi[: cov.m] @ projector(cov) @ cov.phi[: cov.m].T
    nullspace = Nullspace.of(cov)
    assert np.linalg.norm(nullspace.gram_inv - reference) <= 1e-10 * np.linalg.norm(reference)
    eta, capped = nullspace.stepsize(1e-3)
    assert not capped
    assert eta == pytest.approx(1e-3 / np.linalg.norm(reference, ord=2), rel=1e-10)


def test_projected_step_preserves_constraint(batch, rng):
    # Five projected steps on V stay on Zbar0 V = I and encode, step by
    # step, the gains of five preconditioned steps on K.
    _, _, cov, _ = batch
    weights = identity_weights(cov.r, cov.m)
    k = initial_policy(cov, weights)
    v = parameterize(cov, k)
    pi = projector(cov)
    model, nullspace = Model.of(cov), Nullspace.of(cov)
    eta, capped = nullspace.stepsize(1e-3)
    assert not capped
    for _ in range(5):
        v = v - eta * (pi @ v_gradient(cov, v, weights))
        k = k - eta * preconditioned_gradient(model, nullspace, k, weights)
        npt.assert_allclose(cov.phi[cov.m :] @ v, np.eye(cov.r), atol=1e-8)
        assert np.linalg.norm(recover_gain(cov, v) - k) <= 1e-9 * np.linalg.norm(k)


def test_adaptive_stepsize_scales_with_eta0(batch):
    _, _, cov, _ = batch
    e1, c1 = Nullspace.of(cov).stepsize(1e-4)
    e2, c2 = Nullspace.of(cov).stepsize(2e-4)
    assert not c1 and not c2
    assert e2 == pytest.approx(2.0 * e1, rel=1e-12)
    assert e1 > 0


def test_adaptive_stepsize_caps_without_excitation():
    # Inputs that are (numerically) a deterministic function of the state
    # leave no probing energy and trigger the cap.
    phi = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    cov = DataCovariances(
        phi=phi,
        phi_inv=np.linalg.pinv(phi),
        z1_bar=np.array([[0.5, 0.5]]),
        count=10,
    )
    eta, capped = Nullspace.of(cov).stepsize(1e-4)
    assert capped
    assert eta == pytest.approx(1e-4 / 1e-12)


def test_descent_until_stationary(rng):
    # Frozen data: repeated preconditioned steps never increase the cost,
    # down to a vanishing projected gradient.
    systems = 0
    draws = np.random.default_rng(777)
    while systems < 20:
        r = int(draws.integers(2, 5))
        m = int(draws.integers(1, 3))
        a, b = random_pair(draws, r, m)
        u, z, z_next = direct_data(draws, a, b, steps=40 * (m + r), noise_std=1e-3)
        try:
            cov = cov_init(u, z, z_next)
        except RankDeficient:
            continue
        weights = identity_weights(r, m)
        k = initial_policy(cov, weights)
        model, nullspace = Model.of(cov), Nullspace.of(cov)
        eta, _ = nullspace.stepsize(1e-3)
        costs = [data_cost(model, k, weights)]
        for _ in range(400):
            step = preconditioned_gradient(model, nullspace, k, weights)
            # ||Pi grad_V J||_F, the size of the projected step on V
            if np.sqrt(np.vdot(step, nullspace.gram @ step)) < 1e-8:
                break
            k = k - eta * step
            costs.append(data_cost(model, k, weights))
        diffs = np.diff(costs)
        assert np.all(diffs <= 1e-10), f"cost increased by {diffs.max():.3g}"
        systems += 1


def test_initial_policy_matches_model_oracle(rng):
    a, b = random_pair(rng, 3, 2)
    u, z, z_next = direct_data(rng, a, b, steps=100)
    cov = cov_init(u, z, z_next)
    weights = identity_weights(3, 2)
    k = initial_policy(cov, weights)
    npt.assert_allclose(k, model_lqr_gain(a, b, weights.q, weights.r), atol=1e-8)


def test_initial_policy_unstabilizable_estimate():
    # Covariances whose implied dynamics have an unreachable unstable mode.
    phi = np.eye(3)
    z1 = np.array([[0.0, 1.5, 0.0], [1.0, 0.0, 0.5]])  # [B A] with A=diag(1.5,.5)
    cov = DataCovariances(
        phi=phi, phi_inv=phi, z1_bar=z1, count=10
    )
    with pytest.raises(Unstabilizable):
        initial_policy(cov, identity_weights(2, 1))


def test_decision_matrix_off_recursive_inverse_tracks_full_solve(rng):
    # Reading V = Phi^-1 [K; I] and the model [B A] = Zbar1 Phi^-1 off the
    # Sherman-Morrison inverse, sample by sample, equals solving with Phi
    # itself.
    a, b = random_pair(rng, 3, 2)
    u, z, z_next = direct_data(rng, a, b, steps=300, noise_std=1e-2)
    cov = cov_init(u[:, :60], z[:, :60], z_next[:, :60])
    weights = identity_weights(3, 2)
    k = initial_policy(cov, weights)
    for t in range(60, 300):
        cov = cov_update(cov, u[:, t], z[:, t], z_next[:, t])
        v = cov.phi_inv @ np.vstack([k, np.eye(3)])
        k = recover_gain(cov, v)
        model = Model.of(cov)
        ba = np.linalg.solve(cov.phi, cov.z1_bar.T).T
        npt.assert_allclose(np.hstack([model.b, model.a]), ba, rtol=0, atol=1e-9)
    direct = parameterize(cov, k)
    npt.assert_allclose(v, direct, atol=1e-9)
    npt.assert_allclose(cov.phi[cov.m :] @ v, np.eye(3), atol=1e-9)
