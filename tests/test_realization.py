"""Window stacking and data-driven state reduction."""

import numpy as np
import numpy.testing as npt
import pytest

from conftest import drive, random_minimal
from deepo.errors import (
    DegenerateData,
    DimensionMismatch,
    InsufficientHistory,
    NonFinite,
)
from deepo.numerics import numerical_rank
from deepo.realization import (
    IoHistory,
    ReductionMap,
    build_xi_matrix,
    reduce_state,
    reduce_svd,
    select_rank,
    stack_window,
)


def history_from(inputs, outputs):
    return IoHistory(inputs=inputs, outputs=outputs)


def test_stack_window_layout_hand_example():
    # m=2, p=1: window at t=2 with lag 2 is (u1, u0, y1, y0), newest first.
    h = history_from(
        inputs=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
        outputs=[[10.0], [20.0], [30.0]],
    )
    npt.assert_allclose(stack_window(h, 2, 2), [3.0, 4.0, 1.0, 2.0, 20.0, 10.0])
    npt.assert_allclose(stack_window(h, 3, 1), [5.0, 6.0, 30.0])


def test_stack_window_bounds():
    h = history_from(inputs=[[1.0]] * 4, outputs=[[0.0]] * 4)
    with pytest.raises(InsufficientHistory):
        stack_window(h, 1, 2)
    with pytest.raises(InsufficientHistory):
        stack_window(h, 5, 2)
    with pytest.raises(ValueError):
        stack_window(h, 2, 0)


def test_build_xi_matrix_columns_are_windows():
    h = history_from(inputs=[[float(t)] for t in range(6)],
                     outputs=[[float(10 * t)] for t in range(6)])
    xi = build_xi_matrix(h, t0=3, lag=2)
    assert xi.shape == (4, 3)
    for j in range(3):
        npt.assert_allclose(xi[:, j], stack_window(h, 2 + j, 2))
    with pytest.raises(InsufficientHistory):
        build_xi_matrix(h, t0=5, lag=2)


@pytest.mark.parametrize("lag", [1, 2, 3, 4])
def test_build_xi_matrix_equals_per_column_windows(rng, lag):
    # m = 2 inputs, p = 3 outputs: the strided matrix is the per-column
    # stacking, bit for bit.
    h = history_from(rng.standard_normal((40, 2)), rng.standard_normal((40, 3)))
    t0 = 40 - lag
    xi = build_xi_matrix(h, t0, lag)
    expected = np.column_stack([stack_window(h, lag + j, lag) for j in range(t0)])
    npt.assert_array_equal(xi, expected)


def test_iohistory_validation_and_slice():
    h = IoHistory()
    h.append([1.0, 2.0], [0.5])
    with pytest.raises(DimensionMismatch):
        h.append([1.0], [0.5])
    with pytest.raises(NonFinite):
        h.append([np.inf, 0.0], [0.5])
    h.append([3.0, 4.0], [1.5])
    assert h.m == 2 and h.p == 1 and len(h) == 2
    window = h.window(1, 2)
    assert np.shares_memory(window.u, h.u) and len(window) == 1
    npt.assert_array_equal(window.u, [[3.0, 4.0]])
    copied = h.copy()
    assert not np.shares_memory(copied.u, h.u) and not np.shares_memory(copied.y, h.y)
    # Appending to a window moves it to its own rows; the parent is untouched.
    window.append([5.0, 6.0], [2.5])
    npt.assert_array_equal(h.u, [[1.0, 2.0], [3.0, 4.0]])


def test_iohistory_growth_keeps_every_row(rng):
    u, y = rng.standard_normal((300, 2)), rng.standard_normal((300, 1))
    h = IoHistory()
    for t in range(300):
        h.append(u[t], y[t])
        if t == 9:
            window = h.window(0, 10)
    npt.assert_array_equal(h.u, u)
    npt.assert_array_equal(h.y, y)
    npt.assert_array_equal(window.u, u[:10])


def test_select_rank_clear_gap():
    s = [10.0, 9.0, 8.0, 7.5, 0.01, 0.009]
    r, warn = select_rank(s, input_rows=2)
    assert (r, warn) == (4, False)


def test_select_rank_first_gap_wins():
    # Two qualifying gaps: the earlier (smaller r) one is chosen.
    s = [10.0, 5.0, 2.5, 0.1, 0.05]
    r, warn = select_rank(s, input_rows=1)
    assert (r, warn) == (2, False)


def test_select_rank_fallback_flags_warning():
    s = [10.0, 9.0, 8.0, 7.0, 6.0]
    r, warn = select_rank(s, input_rows=1)
    assert warn
    assert r == 4  # largest ratio 7/6 sits after the fourth value


def test_select_rank_no_candidates():
    r, warn = select_rank([3.0, 1.0], input_rows=1)
    assert (r, warn) == (2, False)


def test_reduce_svd_whitens_the_data(rng):
    model = random_minimal(rng, 2, 1, 1)
    u = rng.uniform(-1, 1, (80, 1))
    y = drive(model, u)
    xi = build_xi_matrix(history_from(u, y), t0=60, lag=3)
    rmap = reduce_svd(xi, input_rows=3)
    z = rmap.t_matrix @ xi
    # Rows of T Xi are leading right singular vectors: orthonormal.
    npt.assert_allclose(z @ z.T, np.eye(rmap.reduced_dim), atol=1e-10)
    assert rmap.singular_values is not None
    assert rmap.reduced_dim == 3 + 2  # input rows + plant order
    assert not rmap.gap_warning


def test_reduce_svd_override_bounds(rng):
    xi = rng.standard_normal((6, 50))
    with pytest.raises(ValueError):
        reduce_svd(xi, input_rows=2, r_override=2)
    with pytest.raises(ValueError):
        reduce_svd(xi, input_rows=2, r_override=7)
    assert reduce_svd(xi, input_rows=2, r_override=6).reduced_dim == 6


def test_reduce_svd_degenerate_direction(rng):
    # Rank-2 data cannot support a 3-dimensional reduction.
    base = rng.standard_normal((2, 50))
    lift = rng.standard_normal((5, 2))
    xi = lift @ base
    with pytest.raises(DegenerateData):
        reduce_svd(xi, input_rows=1, r_override=3)


def test_reduce_svd_needs_enough_columns(rng):
    with pytest.raises(DegenerateData):
        reduce_svd(rng.standard_normal((6, 5)), input_rows=2)


def test_window_matrix_rank_laws(rng):
    # Noise-free PE data: rank(Xi) = m*lag + n, and stacking the current
    # input adds exactly m more dimensions.
    model = random_minimal(rng, 3, 2, 2)
    n, m = 3, 2
    lag = n + 1
    steps = 200
    u = rng.uniform(-1, 1, (steps, m))
    y = drive(model, u)
    h = history_from(u, y)
    t0 = steps - lag
    xi = build_xi_matrix(h, t0, lag)
    assert numerical_rank(xi) == m * lag + n
    u_now = h.u[lag : lag + t0].T
    stacked = np.vstack([u_now, xi])
    assert numerical_rank(stacked) == m * (lag + 1) + n
    assert numerical_rank(stacked) < stacked.shape[0]


def test_reduce_state_and_dimension_guard(rng):
    xi = rng.standard_normal((4, 30))
    rmap = reduce_svd(xi, input_rows=1, r_override=3)
    z = reduce_state(rmap, xi[:, 0])
    npt.assert_allclose(z, rmap.t_matrix @ xi[:, 0])
    with pytest.raises(DimensionMismatch):
        reduce_state(rmap, np.ones(5))


def test_reduction_map_json_roundtrip(rng):
    xi = rng.standard_normal((4, 30))
    rmap = reduce_svd(xi, input_rows=1, r_override=3)
    clone = ReductionMap.from_json(rmap.to_json())
    npt.assert_allclose(clone.t_matrix, rmap.t_matrix)
    npt.assert_allclose(clone.singular_values, rmap.singular_values)
    assert clone.reduced_dim == rmap.reduced_dim
    assert clone.input_rows == rmap.input_rows
    assert clone.gap_warning == rmap.gap_warning
