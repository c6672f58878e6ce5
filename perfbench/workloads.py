"""The benchmark workloads, each driven through deepo's public API.

A workload builds its inputs once from the seed (``build``) and then runs
repetitions (``run``).  Each repetition returns a :class:`Rep` with the
decision gaps, the activation time, the control outcome and a digest of the
trace CSV it produced, so two repetitions on one seed can be compared byte
for byte.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import time
from pathlib import Path

import numpy as np

from deepo import DeepoConfig, DeepoError, engine, harness
from deepo.lqr_core import identity_weights
from deepo.plant import lqr_cost, model_lqr_gain

from tracing import StepClock

_now = time.perf_counter_ns
_cpu = time.process_time_ns

# What a decision may raise when the program fails; anything else is a
# defect of the benchmark and stops it.
PROGRAM_ERRORS = (DeepoError, ArithmeticError, ValueError)


@dataclasses.dataclass
class Rep:
    """Outcome of one repetition of a workload."""

    seed: int
    samples: int = 0
    wall_ns: int = 0
    # (wall start ns, wall end ns, CPU ns) per decision.
    decisions: list = dataclasses.field(default_factory=list)
    activations_ns: list = dataclasses.field(default_factory=list)  # CPU ns
    quality: float | None = None
    digest: str | None = None
    error: str | None = None  # exception raised or failed outcome check
    raised: bool = False

    @property
    def ops(self) -> int:
        # A repetition that raised also attempted the decision that failed.
        return len(self.decisions) + int(self.raised)


def _digest(files) -> str:
    sha = hashlib.sha256()
    for path in files:
        sha.update(Path(path).read_bytes())
    return sha.hexdigest()


@contextlib.contextmanager
def _capture_runs(captured):
    """Keep the records and state of every ``run_online`` the harness makes."""
    inner = harness.run_online

    def run_online(state, *args, **kwargs):
        records = inner(state, *args, **kwargs)
        captured.append((records, state))
        return records

    harness.run_online = run_online
    try:
        yield
    finally:
        harness.run_online = inner


def _split_gaps(calls, activation_step):
    """Decision and activation gaps from the plant stamps of a ``StepClock``.

    The gap before plant step s runs from step s-1 returning to step s being
    entered.  At s == activation_step it holds the activation; after that it
    holds one decision: ingest of sample s-1 and the control for sample s.
    """
    decisions, activations = [], []
    for (t0, _, exit0, _, exit0_cpu), (t1, enter1, _, enter1_cpu, _) in zip(calls, calls[1:]):
        if t1 != t0 + 1:  # a new run starts at t = 0
            continue
        if t1 == activation_step:
            activations.append(enter1_cpu - exit0_cpu)
        elif t1 > activation_step:
            decisions.append((exit0, enter1, enter1_cpu - exit0_cpu))
    return decisions, activations


class ScenarioWorkload:
    """A bundled scenario run with ``run_scenario`` or ``run_adaptation_scenario``."""

    def __init__(self, scenario, default_seed, adaptation=False, write_out=False):
        self.scenario = scenario
        self.default_seed = default_seed
        self.adaptation = adaptation
        self.write_out = write_out

    def build(self, seed):
        return dataclasses.replace(harness.load_scenario(self.scenario), rng_seed=seed)

    def run(self, config, seed, workdir: Path, tracer=None) -> Rep:
        config = dataclasses.replace(config, rng_seed=seed)
        rep = Rep(seed=seed)
        captured = []
        out_dir = workdir / "out"
        with StepClock() as clock, _capture_runs(captured):
            tic = _now()
            try:
                if self.adaptation:
                    result = harness.run_adaptation_scenario(config)
                else:
                    result = harness.run_scenario(config, out_dir=out_dir if self.write_out else None)
            except PROGRAM_ERRORS as exc:
                result = None
                rep.error, rep.raised = f"{type(exc).__name__}: {exc}", True
            rep.wall_ns = _now() - tic
        rep.samples = len(clock.calls)
        rep.decisions, rep.activations_ns = _split_gaps(clock.calls, config.activation_step)
        if result is None:
            return rep
        if self.adaptation:
            frozen, adaptive = result.frozen_post_rms, result.adaptive_post_rms
            if not (np.isfinite(frozen) and np.isfinite(adaptive) and frozen > 0):
                rep.error = f"post-disturbance RMS not finite: frozen {frozen}, adaptive {adaptive}"
            rep.quality = adaptive / frozen
        else:
            pre, post = result.pre_rms_total, result.post_rms_total
            if not (pre is not None and post is not None and np.isfinite(post) and post < pre):
                rep.error = f"loop did not damp: post RMS {post} vs pre RMS {pre}"
            rep.quality = post / pre if pre else float("nan")
        files = sorted(out_dir.glob("*_trace.csv")) if self.write_out else []
        if not files:
            for idx, (records, state) in enumerate(captured):
                path = workdir / f"run{idx}_trace.csv"
                p = len(records[0].y) if records else 0
                harness.write_trace_csv(path, records, state.m, p, state.map.reduced_dim)
                files.append(path)
        rep.digest = _digest(files)
        return rep


@dataclasses.dataclass
class DirectProblem:
    a: np.ndarray
    b: np.ndarray
    u0: np.ndarray
    z0: np.ndarray
    z1: np.ndarray


class DirectWorkload:
    """Acceptance criterion 10's problem at r = 20, m = 2, on measured state.

    Each repetition draws its pair and 20 (m + r) excitation samples from
    its seed, runs ``offline_init_direct`` on them, then a closed loop the
    benchmark runs itself: u = K x + probe, plant, ingest.  ``build`` draws
    the first repetition's problem, which that repetition reuses.  The
    repetition's samples are the excitation window and the closed loop; its
    wall time starts at ``offline_init_direct``.
    """

    r, m = 20, 2
    decisions = 50
    probe_std = 1.0
    noise_std = 0.1

    def __init__(self, default_seed):
        self.default_seed = default_seed
        self.config = DeepoConfig(lag=1, eta0=1e-4, probe_std=self.probe_std)

    def build(self, seed):
        return {seed: self.problem(seed)}

    def problem(self, seed) -> DirectProblem:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 10]))
        for _ in range(100):
            a = rng.normal(size=(self.r, self.r))
            a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
            b = rng.normal(size=(self.r, self.m))
            ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(self.r)])
            if np.linalg.matrix_rank(ctrb) == self.r:
                break
        else:
            raise RuntimeError("no controllable pair drawn")
        steps = 20 * (self.m + self.r)
        u = rng.uniform(-1.0, 1.0, size=(steps, self.m))
        zs = np.empty((steps, self.r))
        z_next = np.empty((steps, self.r))
        x = np.zeros(self.r)
        for t in range(steps):
            zs[t] = x
            x = a @ x + b @ u[t] + self.noise_std * rng.standard_normal(self.r)
            z_next[t] = x
        return DirectProblem(a=a, b=b, u0=u.T, z0=zs.T, z1=z_next.T)

    def run(self, built, seed, workdir: Path, tracer=None) -> Rep:
        rep = Rep(seed=seed)
        noise = np.random.default_rng(np.random.SeedSequence([seed, 10, 1]))
        loop = tracer.span("bench.closed_loop") if tracer is not None else contextlib.nullcontext()
        problem = built.pop(seed, None) or self.problem(seed)
        a, b = problem.a, problem.b
        tic = _now()
        try:
            start_cpu = _cpu()
            state = engine.offline_init_direct(
                problem.u0, problem.z0, problem.z1, self.config, rng_seed=noise
            )
            rep.activations_ns.append(_cpu() - start_cpu)
            x = problem.z1[:, -1].copy()
            u = state.gain @ x + self.probe_std * state.rng.standard_normal(self.m)
            with loop:
                for _ in range(self.decisions):
                    x_next = a @ x + b @ u + self.noise_std * noise.standard_normal(self.r)
                    start, start_cpu = _now(), _cpu()
                    engine.ingest_and_update(state, u, x, x_next)
                    x = x_next
                    u = state.gain @ x + self.probe_std * state.rng.standard_normal(self.m)
                    if not np.all(np.isfinite(u)):
                        raise ArithmeticError("control input is not finite")
                    end_cpu = _cpu()
                    rep.decisions.append((start, _now(), end_cpu - start_cpu))
        except PROGRAM_ERRORS as exc:
            rep.error, rep.raised = f"{type(exc).__name__}: {exc}", True
        rep.wall_ns = _now() - tic
        rep.samples = problem.u0.shape[1] + len(rep.decisions)
        if rep.error:
            return rep
        weights = identity_weights(self.r, self.m)
        rho = np.max(np.abs(np.linalg.eigvals(a + b @ state.gain)))
        if not rho < 1.0:
            rep.error = f"final gain does not stabilise the true pair (spectral radius {rho})"
            return rep
        j_star = lqr_cost(a, b, model_lqr_gain(a, b, weights.q, weights.r), weights.q, weights.r)
        rep.quality = lqr_cost(a, b, state.gain, weights.q, weights.r) / j_star
        path = workdir / "direct_trace.csv"
        harness.write_trace_csv(path, state.records, self.m, 0, self.r)
        rep.digest = _digest([path])
        return rep


WORKLOADS = {
    "converter": ScenarioWorkload("converter", default_seed=7, write_out=True),
    "wind": ScenarioWorkload("wind_surrogate", default_seed=11),
    "adaptation": ScenarioWorkload("adaptation", default_seed=7, adaptation=True),
    "direct-r20": DirectWorkload(default_seed=0),
}
