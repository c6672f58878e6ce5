"""Scenario harness: JSON configs, timeline runner, traces, and summaries.

A scenario drives a plant through a timeline of idle -> disturbance/switch ->
excitation -> controller activation, logs one CSV row per sample, and
condenses the run into a JSON summary (oscillation RMS before activation,
output RMS after, envelope decay, per-step timing).  The adaptation runner
executes the same scenario twice from identical seeds — once with the gain
frozen at its initial value, once updating online — and compares the two
after a late disturbance.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .engine import DeepoConfig, DeepoState, StepRecord, run_online
from .errors import ConfigInvalid
from .plant import (
    PlantModel,
    SwitchEvent,
    SwitchSchedule,
    SwitchingPlant,
    make_surrogate_converter,
    surrogate_io_matrices,
    surrogate_nominal_dynamics,
    surrogate_perturbed_dynamics,
)

SCHEMA_VERSION = 1


@dataclass
class Disturbance:
    step: int
    state_delta: list[float]


@dataclass
class Perturbation:
    """Mid-run dynamics drift for adaptation scenarios."""

    step: int
    mode: str = "surrogate_perturbed"
    a: list | None = None
    b: list | None = None
    c: list | None = None


@dataclass
class ScenarioConfig:
    """Validated scenario description (see the bundled JSON files)."""

    name: str
    trajectory_length: int
    excitation_start: int
    activation_step: int
    deepo: DeepoConfig
    rng_seed: int = 0
    plant: str | dict = "surrogate_converter"
    process_noise_std: float = 2e-4
    measurement_noise_std: float = 0.0
    switch_step: int | None = None
    switches: list[SwitchEvent] = field(default_factory=list)
    disturbances: list[Disturbance] = field(default_factory=list)
    control_enabled: bool = True
    update_start: int | None = None
    perturbation: Perturbation | None = None
    comparison_window: int = 300


def _require(condition, fieldname, message):
    if not condition:
        raise ConfigInvalid(f"{fieldname}: {message}")


def _matrix_field(raw, fieldname):
    try:
        mat = np.array(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigInvalid(f"{fieldname}: not a numeric matrix") from None
    _require(mat.ndim == 2, fieldname, "must be a 2-D matrix")
    _require(bool(np.all(np.isfinite(mat))), fieldname, "must be finite")
    return mat


def _check_system(system, fieldname, like=None):
    """Check matrices (a, b, c) as a plant, or as a switch of the plant ``like``."""
    if like is not None:
        shapes = [mat.shape for mat in system]
        expected = [mat.shape for mat in like]
        _require(shapes == expected, fieldname, f"shapes {shapes} differ from the plant's {expected}")
    try:
        PlantModel.check_system(*system)
    except ValueError as exc:
        raise ConfigInvalid(f"{fieldname}: {exc}") from None


def parse_scenario(raw: dict, name: str = "scenario") -> ScenarioConfig:
    """Validate a scenario dictionary, reporting the offending field."""
    _require(isinstance(raw, dict), "scenario", "must be a JSON object")
    _require(raw.get("schema") == SCHEMA_VERSION, "schema", f"must be {SCHEMA_VERSION}")
    unknown = set(raw) - {f.name for f in fields(ScenarioConfig)} - {"schema"}
    _require(not unknown, "scenario", f"unknown keys {sorted(unknown)}")
    name = raw.get("name", name)
    _require(isinstance(name, str) and name, "name", "must be a nonempty string")

    def intfield(key, default=None, minimum=None, optional=False):
        value = raw.get(key, default)
        if value is None and optional:
            return None
        _require(isinstance(value, int) and not isinstance(value, bool), key, "must be an integer")
        if minimum is not None:
            _require(value >= minimum, key, f"must be >= {minimum}")
        return value

    def floatfield(key, default, minimum=None):
        value = raw.get(key, default)
        _require(isinstance(value, (int, float)) and not isinstance(value, bool), key, "must be a number")
        value = float(value)
        if minimum is not None:
            _require(value >= minimum, key, f"must be >= {minimum}")
        return value

    length = intfield("trajectory_length", minimum=1)
    excitation_start = intfield("excitation_start", minimum=0)
    activation = intfield("activation_step", minimum=0)
    _require(excitation_start < activation, "excitation_start", "must precede activation_step")
    _require(activation <= length, "activation_step", "must lie within trajectory_length")

    plant = raw.get("plant", "surrogate_converter")
    if isinstance(plant, str):
        _require(plant == "surrogate_converter", "plant", "unknown plant name")
        system = (surrogate_nominal_dynamics(), *surrogate_io_matrices())
    else:
        _require(isinstance(plant, dict), "plant", "must be a name or an {a, b, c} object")
        plant = {key: _matrix_field(plant.get(key), f"plant.{key}") for key in ("a", "b", "c")}
        system = (plant["a"], plant["b"], plant["c"])
        _check_system(system, "plant")
    n_states = system[0].shape[0]
    switch_step = intfield("switch_step", default=None, minimum=0, optional=True)
    # Steps already holding a dynamics switch (switch_step drives only the surrogate).
    taken = {switch_step} if isinstance(plant, str) and switch_step is not None else set()

    deepo_raw = raw.get("deepo")
    _require(isinstance(deepo_raw, dict), "deepo", "must be an object")
    deepo_cfg = DeepoConfig.from_dict(deepo_raw, "deepo")

    switches = []
    _require(isinstance(raw.get("switches", []), list), "switches", "must be a list")
    for idx, entry in enumerate(raw.get("switches", [])):
        key = f"switches[{idx}]"
        _require(isinstance(entry, dict), key, "must be an object")
        step = entry.get("step")
        _require(isinstance(step, int) and step >= 0, f"{key}.step", "must be a nonnegative integer")
        _require(step not in taken, f"{key}.step", f"another switch is scheduled at step {step}")
        taken.add(step)
        event = SwitchEvent(
            step=step,
            a=_matrix_field(entry.get("a"), f"{key}.a"),
            b=_matrix_field(entry.get("b"), f"{key}.b"),
            c=_matrix_field(entry.get("c"), f"{key}.c"),
        )
        _check_system((event.a, event.b, event.c), key, like=system)
        switches.append(event)

    disturbances = []
    _require(isinstance(raw.get("disturbances", []), list), "disturbances", "must be a list")
    for idx, entry in enumerate(raw.get("disturbances", [])):
        key = f"disturbances[{idx}]"
        _require(isinstance(entry, dict), key, "must be an object")
        step = entry.get("step")
        _require(isinstance(step, int) and step >= 0, f"{key}.step", "must be a nonnegative integer")
        delta = entry.get("state_delta")
        _require(
            isinstance(delta, list)
            and len(delta) == n_states
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in delta),
            f"{key}.state_delta",
            f"must be a list of {n_states} numbers, one per plant state",
        )
        disturbances.append(Disturbance(step=step, state_delta=[float(x) for x in delta]))

    perturbation = None
    if raw.get("perturbation") is not None:
        entry = raw["perturbation"]
        _require(isinstance(entry, dict), "perturbation", "must be an object")
        step = entry.get("step")
        _require(isinstance(step, int) and step >= 0, "perturbation.step", "must be a nonnegative integer")
        _require(step not in taken, "perturbation.step", f"another switch is scheduled at step {step}")
        mode = entry.get("mode", "surrogate_perturbed")
        if mode == "explicit":
            drifted = tuple(_matrix_field(entry.get(key), f"perturbation.{key}") for key in ("a", "b", "c"))
            perturbation = Perturbation(step, mode, *(mat.tolist() for mat in drifted))
        else:
            _require(mode == "surrogate_perturbed", "perturbation.mode", "unknown mode")
            drifted = (surrogate_perturbed_dynamics(), *surrogate_io_matrices())
            perturbation = Perturbation(step=step, mode=mode)
        _check_system(drifted, "perturbation", like=system)

    control_enabled = raw.get("control_enabled", True)
    _require(isinstance(control_enabled, bool), "control_enabled", "must be a boolean")

    config = ScenarioConfig(
        name=name,
        trajectory_length=length,
        excitation_start=excitation_start,
        activation_step=activation,
        deepo=deepo_cfg,
        rng_seed=intfield("rng_seed", default=0, minimum=0),
        plant=plant,
        process_noise_std=floatfield("process_noise_std", 2e-4, minimum=0.0),
        measurement_noise_std=floatfield("measurement_noise_std", 0.0, minimum=0.0),
        switch_step=switch_step,
        switches=switches,
        disturbances=disturbances,
        control_enabled=control_enabled,
        update_start=intfield("update_start", default=None, minimum=0, optional=True),
        perturbation=perturbation,
        comparison_window=intfield("comparison_window", default=300, minimum=1),
    )
    if control_enabled:
        window = activation - excitation_start - deepo_cfg.lag
        m, p = _plant_channels(config)
        needed = 2 * (m + p) * deepo_cfg.lag
        _require(
            window >= needed,
            "activation_step",
            f"excitation window provides {window} windows but initialization needs {needed}",
        )
    return config


def _plant_channels(config: ScenarioConfig):
    if isinstance(config.plant, str):
        return 2, 2
    return config.plant["b"].shape[1], config.plant["c"].shape[0]


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario JSON file (or bundled scenario name)."""
    path = scenario_path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"{path}: invalid JSON ({exc})") from None
    return parse_scenario(raw, name=Path(path).stem)


def scenario_path(name) -> Path:
    """Resolve a filesystem path or the name of a bundled scenario."""
    path = Path(name)
    if path.exists():
        return path
    bundle = resources.files("deepo") / "scenarios" / f"{name}.json"
    if bundle.is_file():
        return Path(str(bundle))
    raise ConfigInvalid(f"scenario not found: {name}")


def bundled_scenarios() -> list[str]:
    folder = resources.files("deepo") / "scenarios"
    return sorted(p.name[:-5] for p in folder.iterdir() if p.name.endswith(".json"))


def _build_plant(config: ScenarioConfig, perturbed: bool = False) -> SwitchingPlant:
    seeds = np.random.SeedSequence(config.rng_seed).spawn(2)
    if isinstance(config.plant, str):
        plant, schedule = make_surrogate_converter(
            process_noise_std=config.process_noise_std,
            measurement_noise_std=config.measurement_noise_std,
            rng_seed=seeds[0],
            switch_step=config.switch_step if config.switch_step is not None else 0,
        )
        events = list(schedule.events) if config.switch_step is not None else []
    else:
        plant = PlantModel(
            config.plant["a"],
            config.plant["b"],
            config.plant["c"],
            process_noise_std=config.process_noise_std,
            measurement_noise_std=config.measurement_noise_std,
            rng_seed=seeds[0],
        )
        events = []
    events.extend(config.switches)
    if perturbed and config.perturbation is not None:
        pert = config.perturbation
        if pert.mode == "surrogate_perturbed":
            b, c = surrogate_io_matrices()
            events.append(SwitchEvent(step=pert.step, a=surrogate_perturbed_dynamics(), b=b, c=c))
        else:
            events.append(
                SwitchEvent(
                    step=pert.step,
                    a=np.array(pert.a, dtype=float),
                    b=np.array(pert.b, dtype=float),
                    c=np.array(pert.c, dtype=float),
                )
            )
    events.sort(key=lambda e: e.step)
    kicks = [(d.step, np.array(d.state_delta, dtype=float)) for d in config.disturbances]
    return SwitchingPlant(plant, SwitchSchedule(events), kicks=kicks)


def _engine_seed(config: ScenarioConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(config.rng_seed).spawn(2)[1])


def _run_uncontrolled(config: ScenarioConfig, splant: SwitchingPlant) -> list[StepRecord]:
    # Timeline without controller activation: idle outside the excitation
    # window, excitation inside it, never initialize.
    rng = _engine_seed(config)
    m = splant.plant.m
    records = []
    for t in range(config.trajectory_length):
        if config.excitation_start <= t < config.activation_step:
            u = rng.uniform(-config.deepo.excitation_amp, config.deepo.excitation_amp, m)
            mode = "excite"
        else:
            u = np.zeros(m)
            mode = "idle"
        y = splant.step(u)
        records.append(StepRecord(t=t, mode=mode, u=u, y=y))
    return records


@dataclass
class RunSummary:
    """Condensed view of one scenario run, computed solely from the trace.

    ``mean_step_us``/``max_step_us`` time the closed-loop decisions;
    ``activation_us`` times the activation sample, which also fits the engine.
    """

    name: str
    reduced_dim: int | None
    pre_rms: list[float] | None
    post_rms: list[float] | None
    pre_rms_total: float | None
    post_rms_total: float | None
    envelope_decay_ratio: float | None
    final_cost: float | None
    mean_step_us: float | None
    max_step_us: float | None
    activation_us: float | None
    warnings: list[str]

    def to_dict(self) -> dict:
        return _json_safe(asdict(self))


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _rms_per_channel(records, start, stop):
    ys = [r.y for r in records if start <= r.t < stop and r.y is not None]
    if not ys:
        return None
    block = np.array(ys)
    return np.sqrt(np.mean(block**2, axis=0))


def _oscillation_start(config: ScenarioConfig) -> int:
    steps = [e.step for e in config.switches]
    if config.switch_step is not None:
        steps.append(config.switch_step)
    steps.extend(d.step for d in config.disturbances)
    steps = [s for s in steps if s < config.excitation_start]
    return min(steps) if steps else 0


def _envelope_ratio(records, start, stop) -> float | None:
    ys = [np.linalg.norm(r.y, ord=np.inf) for r in records if start <= r.t < stop and r.y is not None]
    if len(ys) < 10:
        return None
    fifth = len(ys) // 5
    first = max(ys[:fifth])
    last = max(ys[-fifth:])
    if first == 0.0:
        return None
    return last / first


def summarize_run(config: ScenarioConfig, records, state: DeepoState | None) -> RunSummary:
    osc_start = _oscillation_start(config)
    pre = _rms_per_channel(records, osc_start, config.excitation_start)
    post_stop = min(config.activation_step + config.comparison_window, config.trajectory_length)
    post = _rms_per_channel(records, config.activation_step, post_stop)
    costs = [r.cost for r in records if r.cost is not None and math.isfinite(r.cost)]
    step_us = {r.t: r.elapsed_us for r in records if r.mode == "deepo" and r.elapsed_us > 0}
    activation_us = step_us.pop(config.activation_step, None)
    decision_us = list(step_us.values())
    return RunSummary(
        name=config.name,
        reduced_dim=None if state is None or state.map is None else state.map.reduced_dim,
        pre_rms=None if pre is None else [float(x) for x in pre],
        post_rms=None if post is None else [float(x) for x in post],
        pre_rms_total=None if pre is None else float(np.sqrt(np.mean(pre**2))),
        post_rms_total=None if post is None else float(np.sqrt(np.mean(post**2))),
        envelope_decay_ratio=_envelope_ratio(records, osc_start, config.excitation_start),
        final_cost=costs[-1] if costs else None,
        mean_step_us=float(np.mean(decision_us)) if decision_us else None,
        max_step_us=float(np.max(decision_us)) if decision_us else None,
        activation_us=activation_us,
        warnings=list(state.warnings) if state is not None else [],
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def write_trace_csv(path, records, m: int, p: int, r: int):
    """One row per sample: t, inputs, outputs, reduced state, cost, eta, grad_norm, mode."""
    header = (
        ["t"]
        + [f"u{i}" for i in range(m)]
        + [f"y{i}" for i in range(p)]
        + [f"z{i}" for i in range(r)]
        + ["cost", "eta", "grad_norm", "mode"]
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rec in records:
            row = [str(rec.t)]
            row += [_fmt(x) for x in rec.u]
            row += [_fmt(x) for x in (rec.y if rec.y is not None else [None] * p)]
            zvals = rec.z if rec.z is not None else [None] * r
            row += [_fmt(x) for x in zvals]
            row += [_fmt(rec.cost), _fmt(rec.eta), _fmt(rec.grad_norm), rec.mode]
            writer.writerow(row)


def _write_outputs(config, records, state, summary_dict, out_dir, write_csv_flag, write_json_flag, suffix=""):
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{config.name}{suffix}"
    if write_csv_flag:
        r = 0 if state is None or state.map is None else state.map.reduced_dim
        m, p = _plant_channels(config)
        write_trace_csv(out / f"{tag}_trace.csv", records, m, p, r)
    if write_json_flag and summary_dict is not None:
        with open(out / f"{tag}_summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary_dict, fh, indent=2, sort_keys=True)
            fh.write("\n")


def run_scenario(
    config: ScenarioConfig,
    out_dir=None,
    write_csv_flag: bool = True,
    write_json_flag: bool = True,
) -> RunSummary:
    """Execute one scenario timeline and summarize it.

    When ``out_dir`` is given, writes ``<name>_trace.csv`` and
    ``<name>_summary.json`` there (subject to the write flags).
    """
    splant = _build_plant(config)
    if config.control_enabled:
        state = DeepoState.fresh(config.deepo, splant.plant.m, _engine_seed(config))
        records = run_online(
            state,
            splant,
            steps=config.trajectory_length,
            activation_step=config.activation_step,
            excitation_start=config.excitation_start,
            update_start=config.update_start,
        )
    else:
        state = None
        records = _run_uncontrolled(config, splant)
    summary = summarize_run(config, records, state)
    _write_outputs(
        config,
        records,
        state,
        summary.to_dict(),
        out_dir,
        write_csv_flag,
        write_json_flag,
    )
    return summary


@dataclass
class AdaptationSummary:
    """Frozen-gain versus adaptive comparison after a late disturbance."""

    name: str
    disturbance_step: int
    frozen_post_rms: float
    adaptive_post_rms: float
    adaptive_gain_change: float
    frozen_gain_change: float
    frozen: RunSummary | None = None
    adaptive: RunSummary | None = None

    def to_dict(self) -> dict:
        return _json_safe(asdict(self))


def run_adaptation_scenario(
    config: ScenarioConfig,
    out_dir=None,
    write_csv_flag: bool = True,
    write_json_flag: bool = True,
) -> AdaptationSummary:
    """Run the scenario twice from identical seeds: gain frozen vs adaptive.

    Both runs see the same plant realization, probing noise, mid-run
    perturbation, and disturbances.  The adaptive run starts updating its
    gain at ``update_start`` (default: the perturbation step); the frozen
    run holds the initial gain throughout.  Requires a perturbation and at
    least one disturbance at or after it.
    """
    if not config.control_enabled:
        raise ConfigInvalid("control_enabled: adaptation comparison needs the controller")
    if config.perturbation is None:
        raise ConfigInvalid("perturbation: required for an adaptation comparison")
    late = [d.step for d in config.disturbances if d.step >= config.perturbation.step]
    if not late:
        raise ConfigInvalid("disturbances: need one at or after the perturbation step")
    anchor = max(late)
    update_start = config.update_start if config.update_start is not None else config.perturbation.step

    results = {}
    for label, updates in (("frozen", False), ("adaptive", True)):
        splant = _build_plant(config, perturbed=True)
        state = DeepoState.fresh(config.deepo, splant.plant.m, _engine_seed(config))
        records = run_online(
            state,
            splant,
            steps=config.trajectory_length,
            activation_step=config.activation_step,
            excitation_start=config.excitation_start,
            policy_updates=updates,
            update_start=update_start,
        )
        results[label] = (records, state)

    stop = min(anchor + config.comparison_window, config.trajectory_length)
    post = {}
    change = {}
    for label, (records, state) in results.items():
        rms = _rms_per_channel(records, anchor, stop)
        post[label] = float(np.sqrt(np.mean(rms**2)))
        change[label] = float(np.linalg.norm(state.gain - state.initial_gain))

    summary = AdaptationSummary(
        name=config.name,
        disturbance_step=anchor,
        frozen_post_rms=post["frozen"],
        adaptive_post_rms=post["adaptive"],
        adaptive_gain_change=change["adaptive"],
        frozen_gain_change=change["frozen"],
        frozen=summarize_run(config, *results["frozen"]),
        adaptive=summarize_run(config, *results["adaptive"]),
    )
    if out_dir is not None:
        for label, (records, state) in results.items():
            _write_outputs(config, records, state, None, out_dir, write_csv_flag, False, suffix=f"_{label}")
        if write_json_flag:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            with open(out / f"{config.name}_adaptation_summary.json", "w", encoding="utf-8") as fh:
                json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
    return summary


