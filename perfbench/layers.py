"""Per-layer metrics from the spans of traced repetitions.

Every span is put in a phase: the activation (inside ``offline_init`` or
``offline_init_direct``), the plant (inside ``SwitchingPlant.step``), a
decision (inside the closed loop but neither of those), or other (summary
and trace writing, including the trace CSVs the benchmark writes for its
determinism check).  Decision spans count only when they start and end
within a decision gap, so the activation sample's first control and the
last sample's ingest, which no decision gap holds, are left out.

"Per sample" means per closed-loop decision, except for
``plant.step.us_per_sample``, which is per plant step.  A ``.ms`` metric
is the median per activation (``engine.offline_init`` is
``offline_init_direct`` on direct-r20) or per call (``harness``).  Self
time is a span's duration minus its child spans'.  A layer the workload
never calls reads 0.
"""

from __future__ import annotations

import numpy as np

from tracing import ACTIVATION_SPANS, LOOP_SPANS, PLANT_SPAN

ACT, PLANT, LOOP, DEC, OTHER = range(5)

# Functions whose calls per decision are printed as exact counts.
COUNTED = (
    "numerics.solve_dlyap",
    "numerics.spectral_radius",
    "lqr_core.nullspace_projection",
    "lqr_core.gradient",
    "lqr_core.data_cost",
    "lqr_core.parameterize",
)
PER_SAMPLE_SELF = (
    "numerics.solve_dlyap",
    "numerics.spectral_radius",
    "lqr_core.gradient",
    "lqr_core.data_cost",
    "lqr_core.parameterize",
    "lqr_core.nullspace_projection",
    "lqr_core.adaptive_stepsize",
    "lqr_core.cov_update",
    "lqr_core.rank_one_reparameterize",
    "engine.control_step",
    "engine.ingest_and_update",
    "realization.stack_window",
    "realization.reduce_state",
)
ACTIVATION_LAYERS = {
    "engine.offline_init": ACTIVATION_SPANS,
    "realization.build_xi_matrix": ("realization.build_xi_matrix",),
    "realization.reduce_svd": ("realization.reduce_svd",),
    "lqr_core.cov_init": ("lqr_core.cov_init",),
    "lqr_core.initial_policy": ("lqr_core.initial_policy",),
    "numerics.riccati_gain": ("numerics.riccati_gain",),
}
HARNESS_LAYERS = ("harness.summarize_run", "harness.write_trace_csv")

INGEST = "engine.ingest_and_update"
TRIAL = "numerics.spectral_radius"


class LayerStats:
    """Sums over the traced repetitions of one run."""

    def __init__(self):
        self.decisions = 0
        self.gap_ns = 0
        self.root_ns = 0
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.dlyap_self_ns: list[int] = []
        self.ingest_ns: list[int] = []
        self.trials = 0
        self.accepted = 0
        self.refreshes = 0
        self.activation_ms: dict[str, list[float]] = {name: [] for name in ACTIVATION_LAYERS}
        self.harness_ms: dict[str, list[float]] = {name: [] for name in HARNESS_LAYERS}
        self.plant_ns = 0
        self.plant_calls = 0

    def add(self, spans, gaps) -> dict[str, list[int]]:
        """Fold in one repetition: its spans and its decision gaps.

        Returns the repetition's exact counts per path ("update" decisions
        run ``ingest_and_update``, "frozen" ones only price the held gain):
        ``[decisions, calls of each COUNTED function]``.
        """
        from deepo.lqr_core import FEASIBILITY_MARGIN

        n = len(spans)
        if n == 0:
            return {}
        names = [s[0] for s in spans]
        parent = np.array([s[1] for s in spans], dtype=np.int64)
        start = np.array([s[2] for s in spans], dtype=np.int64)
        dur = np.array([s[3] for s in spans], dtype=np.int64) - start
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child

        phase = np.empty(n, dtype=np.int64)
        act_root = np.full(n, -1, dtype=np.int64)
        for i, name in enumerate(names):
            p = parent[i]
            up = phase[p] if p >= 0 else OTHER
            if up in (ACT, PLANT):
                phase[i], act_root[i] = up, act_root[p]
            elif name in ACTIVATION_SPANS:
                phase[i], act_root[i] = ACT, i
            elif name == PLANT_SPAN:
                phase[i] = PLANT
            elif name in LOOP_SPANS:
                phase[i] = LOOP
            elif up in (LOOP, DEC):
                phase[i] = DEC
            else:
                phase[i] = OTHER

        gap_start = np.array([g[0] for g in gaps], dtype=np.int64)
        gap_end = np.array([g[1] for g in gaps], dtype=np.int64)
        self.decisions += len(gaps)
        self.gap_ns += int(np.sum(gap_end - gap_start))
        gap_of = np.full(n, -1, dtype=np.int64)
        if len(gaps):
            g = np.searchsorted(gap_start, start, side="right") - 1
            inside = (g >= 0) & (phase == DEC)
            gc = np.clip(g, 0, None)
            inside &= (start + dur) <= gap_end[gc]
            gap_of[inside] = g[inside]

        path_calls = np.zeros((len(gaps), len(COUNTED)), dtype=np.int64)
        path_update = np.zeros(len(gaps), dtype=bool)
        for i, name in enumerate(names):
            ph = phase[i]
            if gap_of[i] >= 0:
                gi = gap_of[i]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_ns[name] = self.self_ns.get(name, 0) + int(self_ns[i])
                p = parent[i]
                parent_name = names[p] if p >= 0 else None
                if parent_name in LOOP_SPANS:
                    self.root_ns += int(dur[i])
                if name in COUNTED:
                    path_calls[gi, COUNTED.index(name)] += 1
                if name == INGEST:
                    path_update[gi] = True
                    self.ingest_ns.append(int(dur[i]))
                elif name == "numerics.solve_dlyap":
                    self.dlyap_self_ns.append(int(self_ns[i]))
                elif name == TRIAL and parent_name == INGEST:
                    self.trials += 1
                    self.accepted += int(spans[i][4] < 1.0 - FEASIBILITY_MARGIN)
                elif name == "lqr_core.parameterize" and parent_name == INGEST:
                    self.refreshes += 1
            elif ph == PLANT and name == PLANT_SPAN:
                self.plant_ns += int(dur[i])
                self.plant_calls += 1
            elif name in self.harness_ms:
                self.harness_ms[name].append(dur[i] / 1e6)

        for root in np.flatnonzero((phase == ACT) & (act_root == np.arange(n))):
            members = np.flatnonzero(act_root == root)
            for layer, span_names in ACTIVATION_LAYERS.items():
                total = sum(int(dur[i]) for i in members if names[i] in span_names)
                self.activation_ms[layer].append(total / 1e6)

        return {
            label: [int(mask.sum())] + [int(x) for x in path_calls[mask].sum(axis=0)]
            for label, mask in (("update", path_update), ("frozen", ~path_update))
            if mask.any()
        }

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        n = max(self.decisions, 1)
        out = {f"{name}.calls_per_sample": (self.calls.get(name, 0) / n, "count") for name in COUNTED}
        for name in PER_SAMPLE_SELF:
            out[f"{name}.self_us_per_sample"] = (self.self_ns.get(name, 0) / n / 1e3, "us")
        out["numerics.solve_dlyap.self_us.p50"] = (percentile(self.dlyap_self_ns, 50) / 1e3, "us")
        tail = tail_percentile(len(self.ingest_ns))
        out["engine.ingest_and_update.us.p50"] = (percentile(self.ingest_ns, 50) / 1e3, "us")
        out["engine.ingest_and_update.us.p99"] = (percentile(self.ingest_ns, tail) / 1e3, "us")
        out["engine.step_accept_ratio"] = (self.accepted / self.trials if self.trials else 0.0, "ratio")
        out["engine.reparam_refresh_ratio"] = (self.refreshes / n, "ratio")
        for layer, values in {**self.activation_ms, **self.harness_ms}.items():
            out[f"{layer}.ms"] = (percentile(values, 50), "ms")
        plant_us = self.plant_ns / self.plant_calls / 1e3 if self.plant_calls else 0.0
        out["plant.step.us_per_sample"] = (plant_us, "us")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        out["trace.accounted_ratio"] = (self.root_ns / self.gap_ns if self.gap_ns else 0.0, "ratio")
        return out


def tail_percentile(count: int) -> float:
    """Highest percentile up to 99 that leaves at least ten samples beyond it."""
    if count <= 10:
        return 50.0
    return min(99.0, 100.0 * (1.0 - 10.0 / count))


def percentile(values, q) -> float:
    """Percentile q of values, or 0 when there are none."""
    return float(np.percentile(values, q)) if len(values) else 0.0
