"""Input-output windows and data-driven state reduction.

Stacks recent inputs and outputs into window vectors, assembles the window
data matrix, and computes the reduction map T from its dominant left
singular subspace, so that z = T xi is a minimal, whitened state coordinate
whose dimension sits at the first clear singular-value gap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, DimensionMismatch, InsufficientHistory, NonFinite

# Singular-value ratio s_r / s_{r+1} that counts as a clear gap.
GAP_RATIO = 1.8


class IoHistory:
    """Time-ordered record of applied inputs and measured outputs.

    ``u`` (T x m) and ``y`` (T x p) hold one row per sample.  They are views,
    not to be written to, of buffers that grow by doubling: appending costs
    amortized O(m + p) and a :meth:`window` of the history shares its rows.
    """

    def __init__(self, inputs=(), outputs=()):
        self._u = self._y = np.empty((0, 0))
        self._len = 0
        if len(inputs) != len(outputs):
            raise ValueError("inputs and outputs must have equal length")
        for u, y in zip(inputs, outputs):
            self.append(u, y)

    @classmethod
    def _of(cls, u: np.ndarray, y: np.ndarray) -> "IoHistory":
        out = cls()
        out._u, out._y, out._len = u, y, len(u)
        return out

    def append(self, u, y):
        u = np.asarray(u, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            raise NonFinite("history entries must be finite")
        n = self._len
        if n and (u.size != self.m or y.size != self.p):
            raise DimensionMismatch("inconsistent channel counts in history")
        if n == len(self._u):
            # Full, or a window sharing its parent's rows: move to own buffers
            # of twice the size.
            spare = max(n, 64)
            self._u = np.concatenate((self.u.reshape(n, u.size), np.empty((spare, u.size))))
            self._y = np.concatenate((self.y.reshape(n, y.size), np.empty((spare, y.size))))
        self._u[n] = u
        self._y[n] = y
        self._len = n + 1

    def __len__(self) -> int:
        return self._len

    @property
    def u(self) -> np.ndarray:
        return self._u[: self._len]

    @property
    def y(self) -> np.ndarray:
        return self._y[: self._len]

    @property
    def m(self) -> int:
        return self._u.shape[1]

    @property
    def p(self) -> int:
        return self._y.shape[1]

    def window(self, start: int, stop: int) -> "IoHistory":
        """Samples ``start..stop-1`` as a history sharing this one's rows."""
        return self._of(self.u[start:stop], self.y[start:stop])

    def copy(self) -> "IoHistory":
        """A history owning copies of this one's rows."""
        return self._of(self.u.copy(), self.y.copy())


def stack_window(history: IoHistory, t: int, lag: int) -> np.ndarray:
    """Window vector at time t: inputs then outputs, most recent first.

    Returns the concatenation
    ``(u_{t-1}, ..., u_{t-lag}, y_{t-1}, ..., y_{t-lag})``.

    Raises InsufficientHistory unless ``lag <= t <= len(history)``.
    """
    if lag < 1:
        raise ValueError("lag must be at least 1")
    if t < lag or t > len(history):
        raise InsufficientHistory(
            f"window at t={t} with lag={lag} needs samples {t - lag}..{t - 1}, "
            f"history has {len(history)}"
        )
    return np.concatenate(
        (history.u[t - lag : t][::-1].reshape(-1), history.y[t - lag : t][::-1].reshape(-1))
    )


def _lagged(rows: np.ndarray, t0: int, lag: int) -> np.ndarray:
    """Rows ``j + lag - 1, ..., j`` stacked into column j, for j < t0."""
    windows = np.lib.stride_tricks.sliding_window_view(rows[: t0 + lag - 1], lag, axis=0)
    return windows[:, :, ::-1].transpose(2, 1, 0).reshape(lag * rows.shape[1], t0)


def build_xi_matrix(history: IoHistory, t0: int, lag: int) -> np.ndarray:
    """Window data matrix with column j equal to the window at time lag + j.

    Shape is ``((m + p) * lag, t0)``; requires ``len(history) >= t0 + lag``.
    """
    if t0 < 1:
        raise ValueError("t0 must be at least 1")
    if lag < 1:
        raise ValueError("lag must be at least 1")
    if len(history) < t0 + lag:
        raise InsufficientHistory(
            f"need {t0 + lag} samples for {t0} windows at lag {lag}, "
            f"history has {len(history)}"
        )
    return np.vstack((_lagged(history.u, t0, lag), _lagged(history.y, t0, lag)))


@dataclass
class ReductionMap:
    """Linear map z = T xi from window vectors to reduced coordinates.

    Attributes:
        t_matrix: the map T, shape (reduced_dim, (m + p) * lag).
        reduced_dim: number of reduced coordinates r.
        input_rows: number of input rows m * lag in the window layout.
        gap_warning: True when the gap rule found no clear singular-value
            gap and fell back to the largest ratio.
        singular_values: spectrum of the window data matrix.
    """

    t_matrix: np.ndarray
    reduced_dim: int
    input_rows: int
    gap_warning: bool
    singular_values: np.ndarray

    def to_json(self) -> str:
        payload = {
            "reduced_dim": self.reduced_dim,
            "input_rows": self.input_rows,
            "gap_warning": self.gap_warning,
            "t_matrix": self.t_matrix.tolist(),
            "singular_values": self.singular_values.tolist(),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ReductionMap":
        payload = json.loads(text)
        return cls(
            t_matrix=np.array(payload["t_matrix"], dtype=float),
            reduced_dim=int(payload["reduced_dim"]),
            input_rows=int(payload["input_rows"]),
            gap_warning=bool(payload["gap_warning"]),
            singular_values=np.array(payload["singular_values"], dtype=float),
        )


def _check_xi_matrix(xi_mat, input_rows):
    xi_mat = np.asarray(xi_mat, dtype=float)
    if xi_mat.ndim != 2:
        raise ValueError("xi_mat must be 2-D")
    rows, cols = xi_mat.shape
    if not 0 < input_rows < rows:
        raise ValueError(f"input_rows={input_rows} out of range for {rows} rows")
    if cols < rows:
        raise DegenerateData(
            f"window matrix has {cols} columns but needs at least {rows}"
        )
    return xi_mat


def select_rank(singular_values, input_rows: int):
    """Reduced dimension from a singular-value gap.

    Picks the smallest r exceeding ``input_rows`` whose gap
    ``s_r / s_{r+1}`` reaches :data:`GAP_RATIO`.  When no candidate reaches it,
    falls back to the largest-ratio candidate and flags a warning.  Returns
    ``(r, gap_warning)``.
    """
    s = np.asarray(singular_values, dtype=float)
    count = s.shape[0]
    candidates = range(input_rows + 1, count)
    ratios = {}
    for r in candidates:
        lower = s[r] if s[r] > 0 else np.finfo(float).tiny
        ratios[r] = s[r - 1] / lower
    if not ratios:
        return count, False
    for r in sorted(ratios):
        if ratios[r] >= GAP_RATIO:
            return r, False
    best = max(sorted(ratios), key=lambda r: ratios[r])
    return best, True


def reduce_svd(xi_mat, input_rows: int, r_override: int | None = None) -> ReductionMap:
    """Reduction from the dominant left singular subspace of the data.

    With the thin SVD ``Xi = U diag(s) V^T``, the map is
    ``T = diag(s_1..s_r)^{-1} U_r^T`` so that T Xi recovers the leading
    right singular vectors (orthonormal rows).  The dimension r comes from
    :func:`select_rank` unless ``r_override`` pins it.
    """
    xi_mat = _check_xi_matrix(xi_mat, input_rows)
    rows = xi_mat.shape[0]
    u, s, _ = np.linalg.svd(xi_mat, full_matrices=False)
    warning = False
    if r_override is not None:
        if not input_rows < r_override <= rows:
            raise ValueError(
                f"r_override={r_override} must lie in ({input_rows}, {rows}]"
            )
        r = int(r_override)
    else:
        r, warning = select_rank(s, input_rows)
    if s[r - 1] <= 1e-13 * s[0]:
        raise DegenerateData(
            f"singular value {r} of the window matrix is numerically zero"
        )
    t_matrix = (u[:, :r] / s[:r]).T
    return ReductionMap(
        t_matrix=t_matrix,
        reduced_dim=r,
        input_rows=input_rows,
        gap_warning=warning,
        singular_values=s.copy(),
    )


def reduce_state(reduction: ReductionMap, xi) -> np.ndarray:
    """Apply the reduction map: z = T xi."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[0] != reduction.t_matrix.shape[1]:
        raise DimensionMismatch(
            f"window has {xi.shape[0]} entries, map expects "
            f"{reduction.t_matrix.shape[1]}"
        )
    return reduction.t_matrix @ xi
