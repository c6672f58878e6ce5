"""Scenario harness: JSON configs, timeline runner, traces, and summaries.

A scenario drives one plant through a timeline of idle -> disturbance/switch
-> excitation -> controller activation, logs one CSV row per sample, and
condenses the run into a JSON summary (oscillation RMS before activation,
output RMS after, envelope decay, per-step timing).  Parsing resolves the
plant to its matrices (a, b, c) and every change of its dynamics
(``switch_step``, ``switches``, ``perturbation``) to a
:class:`~deepo.plant.SwitchEvent`, so a run is one plant, one schedule and
:func:`~deepo.engine.run_online`.  The adaptation runner executes the same
scenario twice from identical seeds — once with the gain frozen at its
initial value, once updating online — and compares the two after a late
disturbance.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .engine import DeepoConfig, DeepoState, run_online
from .errors import ConfigInvalid
from .plant import (
    PlantModel,
    SwitchEvent,
    SwitchSchedule,
    SwitchingPlant,
    surrogate_io_matrices,
    surrogate_nominal_dynamics,
    surrogate_oscillatory_dynamics,
    surrogate_perturbed_dynamics,
)

SCHEMA_VERSION = 1


@dataclass
class Disturbance:
    step: int
    state_delta: list[float]


@dataclass
class ScenarioConfig:
    """Validated scenario description (see the bundled JSON files).

    ``plant`` holds the initial matrices (a, b, c).  ``switches`` holds the
    dynamics changes every run applies (``switch_step`` of the surrogate
    among them); ``perturbation`` is the mid-run drift an adaptation
    comparison is anchored to, applied by every run as well.
    """

    name: str
    trajectory_length: int
    excitation_start: int
    activation_step: int
    deepo: DeepoConfig
    plant: tuple[np.ndarray, np.ndarray, np.ndarray]
    rng_seed: int = 0
    process_noise_std: float = 2e-4
    measurement_noise_std: float = 0.0
    switches: list[SwitchEvent] = field(default_factory=list)
    disturbances: list[Disturbance] = field(default_factory=list)
    control_enabled: bool = True
    update_start: int | None = None
    perturbation: SwitchEvent | None = None
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_scenario(raw: dict, name: str = "scenario") -> ScenarioConfig:
    """Validate a scenario dictionary, reporting the offending field."""
    _require(isinstance(raw, dict), "scenario", "must be a JSON object")
    _require(raw.get("schema") == SCHEMA_VERSION, "schema", f"must be {SCHEMA_VERSION}")
    unknown = set(raw) - {f.name for f in fields(ScenarioConfig)} - {"schema", "switch_step"}
    _require(not unknown, "scenario", f"unknown keys {sorted(unknown)}")
    name = raw.get("name", name)
    _require(isinstance(name, str) and name, "name", "must be a nonempty string")

    def intfield(key, default=None, minimum=None, optional=False):
        value = raw.get(key, default)
        if value is None and optional:
            return None
        _require(_is_int(value), key, "must be an integer")
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

    def event_step(key, step):
        _require(_is_int(step) and step >= 0, key, "must be a nonnegative integer")
        _require(step < length, key, f"must lie below trajectory_length {length}")
        return step

    plant = raw.get("plant", "surrogate_converter")
    if isinstance(plant, str):
        _require(plant == "surrogate_converter", "plant", "unknown plant name")
        system = (surrogate_nominal_dynamics(), *surrogate_io_matrices())
    else:
        _require(isinstance(plant, dict), "plant", "must be a name or an {a, b, c} object")
        system = tuple(_matrix_field(plant.get(key), f"plant.{key}") for key in ("a", "b", "c"))
        _check_system(system, "plant")
        _require(raw.get("switch_step") is None, "switch_step", "switches only the surrogate plant")
    n_states = system[0].shape[0]
    taken = set()

    def switch(key, entry, surrogate_a=None, step_key=None):
        # One dynamics change of the plant: at entry["step"] to surrogate_a
        # with the surrogate couplings, or to the entry's own a, b, c.
        step_key = step_key or f"{key}.step"
        step = event_step(step_key, entry.get("step"))
        _require(step not in taken, step_key, f"another switch is scheduled at step {step}")
        taken.add(step)
        if surrogate_a is None:
            matrices = tuple(_matrix_field(entry.get(k), f"{key}.{k}") for k in ("a", "b", "c"))
        else:
            matrices = (surrogate_a, *surrogate_io_matrices())
        _check_system(matrices, key, like=system)
        return SwitchEvent(step, *matrices)

    deepo_raw = raw.get("deepo")
    _require(isinstance(deepo_raw, dict), "deepo", "must be an object")
    deepo_cfg = DeepoConfig.from_dict(deepo_raw, "deepo")

    switches = []
    if raw.get("switch_step") is not None:
        entry = {"step": raw["switch_step"]}
        switches.append(switch("switch_step", entry, surrogate_oscillatory_dynamics(), step_key="switch_step"))
    _require(isinstance(raw.get("switches", []), list), "switches", "must be a list")
    for idx, entry in enumerate(raw.get("switches", [])):
        _require(isinstance(entry, dict), f"switches[{idx}]", "must be an object")
        switches.append(switch(f"switches[{idx}]", entry))

    disturbances = []
    _require(isinstance(raw.get("disturbances", []), list), "disturbances", "must be a list")
    for idx, entry in enumerate(raw.get("disturbances", [])):
        key = f"disturbances[{idx}]"
        _require(isinstance(entry, dict), key, "must be an object")
        step = event_step(f"{key}.step", entry.get("step"))
        delta = entry.get("state_delta")
        _require(
            isinstance(delta, list)
            and len(delta) == n_states
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in delta),
            f"{key}.state_delta",
            f"must be a list of {n_states} numbers, one per plant state",
        )
        disturbances.append(Disturbance(step=step, state_delta=[float(x) for x in delta]))

    perturbation = raw.get("perturbation")
    if perturbation is not None:
        _require(isinstance(perturbation, dict), "perturbation", "must be an object")
        mode = perturbation.get("mode", "surrogate_perturbed")
        _require(mode in ("surrogate_perturbed", "explicit"), "perturbation.mode", "unknown mode")
        drifted = surrogate_perturbed_dynamics() if mode == "surrogate_perturbed" else None
        perturbation = switch("perturbation", perturbation, drifted)

    control_enabled = raw.get("control_enabled", True)
    _require(isinstance(control_enabled, bool), "control_enabled", "must be a boolean")
    if control_enabled:
        window = activation - excitation_start - deepo_cfg.lag
        needed = 2 * (system[1].shape[1] + system[2].shape[0]) * deepo_cfg.lag
        _require(
            window >= needed,
            "activation_step",
            f"excitation window provides {window} windows but initialization needs {needed}",
        )

    return ScenarioConfig(
        name=name,
        trajectory_length=length,
        excitation_start=excitation_start,
        activation_step=activation,
        deepo=deepo_cfg,
        plant=system,
        rng_seed=intfield("rng_seed", default=0, minimum=0),
        process_noise_std=floatfield("process_noise_std", 2e-4, minimum=0.0),
        measurement_noise_std=floatfield("measurement_noise_std", 0.0, minimum=0.0),
        switches=switches,
        disturbances=disturbances,
        control_enabled=control_enabled,
        update_start=intfield("update_start", default=None, minimum=0, optional=True),
        perturbation=perturbation,
        comparison_window=intfield("comparison_window", default=300, minimum=1),
    )


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


def _build_plant(config: ScenarioConfig) -> SwitchingPlant:
    seeds = np.random.SeedSequence(config.rng_seed).spawn(2)
    plant = PlantModel(
        *config.plant,
        process_noise_std=config.process_noise_std,
        measurement_noise_std=config.measurement_noise_std,
        rng_seed=seeds[0],
    )
    events = config.switches + ([config.perturbation] if config.perturbation is not None else [])
    kicks = [(d.step, np.array(d.state_delta, dtype=float)) for d in config.disturbances]
    return SwitchingPlant(plant, SwitchSchedule(sorted(events, key=lambda e: e.step)), kicks=kicks)


def _engine_seed(config: ScenarioConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(config.rng_seed).spawn(2)[1])


def _run(config: ScenarioConfig, update_start: int | None, policy_updates: bool = True):
    """Run the timeline once from the scenario's seeds; returns (records, state)."""
    splant = _build_plant(config)
    state = DeepoState.fresh(config.deepo, splant.plant.m, _engine_seed(config))
    length = config.trajectory_length
    if config.control_enabled:
        run_online(
            state,
            splant,
            length,
            config.activation_step,
            excitation_start=config.excitation_start,
            policy_updates=policy_updates,
            update_start=update_start,
        )
    else:
        # Activation at the horizon never comes: excite up to the scenario's
        # activation step, then idle (excitation "starting" at the horizon).
        run_online(state, splant, config.activation_step, length, excitation_start=config.excitation_start)
        run_online(state, splant, length - config.activation_step, length, excitation_start=length)
    return state.records, state


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
    steps = [e.step for e in config.switches] + [d.step for d in config.disturbances]
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


def summarize_run(config: ScenarioConfig, records, state: DeepoState) -> RunSummary:
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
        reduced_dim=None if state.map is None else state.map.reduced_dim,
        pre_rms=None if pre is None else [float(x) for x in pre],
        post_rms=None if post is None else [float(x) for x in post],
        pre_rms_total=None if pre is None else float(np.sqrt(np.mean(pre**2))),
        post_rms_total=None if post is None else float(np.sqrt(np.mean(post**2))),
        envelope_decay_ratio=_envelope_ratio(records, osc_start, config.excitation_start),
        final_cost=costs[-1] if costs else None,
        mean_step_us=float(np.mean(decision_us)) if decision_us else None,
        max_step_us=float(np.max(decision_us)) if decision_us else None,
        activation_us=activation_us,
        warnings=list(state.warnings),
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


def _write_outputs(config, runs, summary, tag, out_dir, write_csv_flag, write_json_flag):
    """Write ``<name><label>_trace.csv`` per labelled run and ``<tag>_summary.json``."""
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if write_csv_flag:
        m, p = config.plant[1].shape[1], config.plant[2].shape[0]
        for label, (records, state) in runs.items():
            r = 0 if state.map is None else state.map.reduced_dim
            write_trace_csv(out / f"{config.name}{label}_trace.csv", records, m, p, r)
    if write_json_flag:
        with open(out / f"{tag}_summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
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
    run = _run(config, config.update_start)
    summary = summarize_run(config, *run)
    _write_outputs(config, {"": run}, summary, config.name, out_dir, write_csv_flag, write_json_flag)
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
    least one disturbance at or after it.  When ``out_dir`` is given, writes
    ``<name>_frozen_trace.csv``, ``<name>_adaptive_trace.csv`` and
    ``<name>_adaptation_summary.json`` there (subject to the write flags).
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
    runs = {
        "_frozen": _run(config, update_start, policy_updates=False),
        "_adaptive": _run(config, update_start),
    }

    stop = min(anchor + config.comparison_window, config.trajectory_length)
    post = {}
    change = {}
    for label, (records, state) in runs.items():
        rms = _rms_per_channel(records, anchor, stop)
        post[label] = float(np.sqrt(np.mean(rms**2)))
        change[label] = float(np.linalg.norm(state.gain - state.initial_gain))

    summary = AdaptationSummary(
        name=config.name,
        disturbance_step=anchor,
        frozen_post_rms=post["_frozen"],
        adaptive_post_rms=post["_adaptive"],
        adaptive_gain_change=change["_adaptive"],
        frozen_gain_change=change["_frozen"],
        frozen=summarize_run(config, *runs["_frozen"]),
        adaptive=summarize_run(config, *runs["_adaptive"]),
    )
    _write_outputs(config, runs, summary, f"{config.name}_adaptation", out_dir, write_csv_flag, write_json_flag)
    return summary
