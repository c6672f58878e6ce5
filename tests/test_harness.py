"""Scenario parsing, trace/summary outputs, paired adaptation runs, CLI."""

import copy
import json

import numpy as np
import pytest

import deepo.harness
import deepo.lqr_core
from deepo.cli import main
from deepo.engine import DeepoState, StepRecord
from deepo.errors import ConfigInvalid, DeepoError, IllConditioned
from deepo.harness import (
    SCHEMA_VERSION,
    _build_plant,
    bundled_scenarios,
    load_scenario,
    parse_scenario,
    run_adaptation_scenario,
    run_scenario,
    scenario_path,
    summarize_run,
)
from deepo.plant import surrogate_io_matrices, surrogate_oscillatory_dynamics

BASE = {
    "schema": SCHEMA_VERSION,
    "name": "small",
    "plant": "surrogate_converter",
    "rng_seed": 3,
    "process_noise_std": 2e-4,
    "trajectory_length": 120,
    "switch_step": 5,
    "disturbances": [{"step": 5, "state_delta": [1.0, 0.0, 0.0, 0.0]}],
    "excitation_start": 10,
    "activation_step": 60,
    "comparison_window": 40,
    "deepo": {"lag": 2, "eta0": 1e-4, "probe_std": 0.01, "r_override": 8},
}


def scenario(**overrides):
    raw = copy.deepcopy(BASE)
    raw.update(overrides)
    return raw


def test_parse_scenario_accepts_baseline():
    config = parse_scenario(scenario())
    assert config.name == "small"
    assert config.deepo.lag == 2
    assert config.trajectory_length == 120


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"schema": 99}, "schema"),
        ({"name": ""}, "name"),
        ({"trajectory_length": 0}, "trajectory_length"),
        ({"excitation_start": 60}, "excitation_start"),
        ({"activation_step": 200}, "activation_step"),
        ({"plant": "unknown"}, "plant"),
        ({"deepo": {"lag": 2, "bogus": 1}}, "deepo"),
        ({"deepo": {"lag": 0}}, "deepo"),
        ({"disturbances": [{"step": -1, "state_delta": [1.0]}]}, "disturbances[0]"),
        ({"disturbances": [{"step": 1, "state_delta": []}]}, "disturbances[0]"),
        ({"perturbation": {"step": 10, "mode": "bogus"}}, "perturbation.mode"),
        ({"control_enabled": "yes"}, "control_enabled"),
        ({"process_noise_std": -1.0}, "process_noise_std"),
        ({"update_strat": 70}, "update_strat"),
        ({"disturbances": [{"step": 5, "state_delta": [1.0]}]}, "disturbances[0].state_delta"),
        (
            {
                "plant": {"a": [[0.5, 0.0], [0.0, 0.5]], "b": [[1.0], [0.0]], "c": [[1.0, 0.0]]},
                "disturbances": [{"step": 5, "state_delta": [1.0, 0.0]}],
            },
            "plant",
        ),
        ({"switches": [{"step": 50, "a": [[0.5]], "b": [[1.0]], "c": [[1.0]]}]}, "switches[0]"),
        (
            {
                "switches": [
                    {
                        "step": 5,
                        "a": surrogate_oscillatory_dynamics().tolist(),
                        "b": surrogate_io_matrices()[0].tolist(),
                        "c": surrogate_io_matrices()[1].tolist(),
                    }
                ]
            },
            "switches[0]",
        ),
        ({"switches": 5}, "switches"),
        ({"perturbation": {"step": 5}}, "perturbation.step"),
        (
            {"perturbation": {"step": 70, "mode": "explicit", "a": [[0.5]], "b": [[1.0]], "c": [[1.0]]}},
            "perturbation",
        ),
    ],
)
def test_parse_scenario_reports_offending_field(overrides, field):
    with pytest.raises(ConfigInvalid, match=field.replace("[", r"\[")):
        parse_scenario(scenario(**overrides))


def test_parse_scenario_rejects_short_excitation_window():
    # 2 (m + p) lag = 16 windows needed; this leaves too few.
    with pytest.raises(ConfigInvalid, match="activation_step"):
        parse_scenario(scenario(excitation_start=50, activation_step=60))


EXPLICIT_PLANT = {
    "a": [[0.5, 0.1], [0.0, 0.4]],
    "b": [[1.0, 0.0], [0.0, 1.0]],
    "c": [[1.0, 0.0], [0.0, 1.0]],
}


def test_parse_scenario_explicit_plant_and_perturbation():
    raw = scenario(
        plant=EXPLICIT_PLANT,
        switch_step=None,
        disturbances=[{"step": 5, "state_delta": [1.0, 0.0]}],
        perturbation={
            "step": 70,
            "mode": "explicit",
            "a": [[0.4, 0.0], [0.0, 0.3]],
            "b": [[1.0, 0.0], [0.0, 1.0]],
            "c": [[1.0, 0.0], [0.0, 1.0]],
        },
    )
    config = parse_scenario(raw)
    assert config.perturbation.step == 70
    np.testing.assert_array_equal(config.perturbation.a, [[0.4, 0.0], [0.0, 0.3]])
    np.testing.assert_array_equal(config.perturbation.b, np.eye(2))
    np.testing.assert_array_equal(config.perturbation.c, np.eye(2))
    with pytest.raises(ConfigInvalid, match="plant.a"):
        parse_scenario(scenario(plant={"a": "x", "b": [[1.0]], "c": [[1.0]]}))


def test_parse_scenario_rejects_switch_step_on_explicit_plant():
    # switch_step names the surrogate's own switch; an explicit plant has
    # none, so the step would only move the pre-activation RMS window.
    raw = scenario(plant=EXPLICIT_PLANT, disturbances=[{"step": 5, "state_delta": [1.0, 0.0]}])
    with pytest.raises(ConfigInvalid, match="switch_step"):
        parse_scenario(raw)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"switch_step": 120}, "switch_step"),
        (
            {
                "switches": [
                    {
                        "step": 130,
                        "a": surrogate_oscillatory_dynamics().tolist(),
                        "b": surrogate_io_matrices()[0].tolist(),
                        "c": surrogate_io_matrices()[1].tolist(),
                    }
                ]
            },
            "switches[0].step",
        ),
        ({"perturbation": {"step": 120}}, "perturbation.step"),
        ({"disturbances": [{"step": 500, "state_delta": [1.0, 0.0, 0.0, 0.0]}]}, "disturbances[0].step"),
    ],
    ids=["switch_step", "switches", "perturbation", "disturbances"],
)
def test_parse_scenario_rejects_events_past_the_horizon(overrides, field):
    # trajectory_length is 120: an event at step 120 or later never happens.
    with pytest.raises(ConfigInvalid, match=field.replace("[", r"\[") + ": must lie below trajectory_length"):
        parse_scenario(scenario(**overrides))


def test_adaptation_with_late_disturbance_past_the_horizon_is_a_config_error():
    # The bundled scenario cut to 1500 steps: the disturbances at 1700 and
    # 2100 fall outside the run, so no RMS window follows the anchor.
    raw = json.loads(scenario_path("adaptation").read_text())
    raw["trajectory_length"] = 1500
    with pytest.raises(ConfigInvalid, match=r"disturbances\[2\].step"):
        run_adaptation_scenario(parse_scenario(raw))


def test_build_plant_schedules_every_switch_in_step_order():
    drift = {"a": [[0.4, 0.0], [0.0, 0.3]], "b": [[1.0, 0.0], [0.0, 1.0]], "c": [[1.0, 0.0], [0.0, 1.0]]}
    later = {"a": [[0.6, 0.0], [0.2, 0.5]], "b": [[1.0, 0.5], [0.0, 1.0]], "c": [[1.0, 0.0], [0.3, 1.0]]}
    raw = scenario(
        plant=EXPLICIT_PLANT,
        switch_step=None,
        disturbances=[{"step": 5, "state_delta": [1.0, 0.0]}],
        switches=[{"step": 90, **later}],
        perturbation={"step": 70, "mode": "explicit", **drift},
    )
    events = _build_plant(parse_scenario(raw)).schedule.events
    assert [e.step for e in events] == [70, 90]
    for event, given in zip(events, (drift, later)):
        for key in ("a", "b", "c"):
            np.testing.assert_array_equal(getattr(event, key), given[key])


def test_bundled_scenarios_present():
    names = set(bundled_scenarios())
    assert {"converter", "converter_no_deepo", "wind_surrogate", "adaptation"} <= names
    for name in names:
        assert scenario_path(name).is_file()
    with pytest.raises(ConfigInvalid):
        scenario_path("no_such_scenario")


def test_run_scenario_outputs_are_reproducible(tmp_path):
    config = parse_scenario(scenario())
    dir1, dir2 = tmp_path / "one", tmp_path / "two"
    s1 = run_scenario(config, out_dir=dir1)
    s2 = run_scenario(config, out_dir=dir2)
    csv1 = (dir1 / "small_trace.csv").read_bytes()
    csv2 = (dir2 / "small_trace.csv").read_bytes()
    assert csv1 == csv2
    # Summaries agree on everything except wall-clock timing.
    p1 = json.loads((dir1 / "small_summary.json").read_text())
    p2 = json.loads((dir2 / "small_summary.json").read_text())
    for payload in (p1, p2):
        payload.pop("mean_step_us")
        payload.pop("max_step_us")
        payload.pop("activation_us")
    assert p1 == p2
    assert s1.post_rms_total == s2.post_rms_total


def test_trace_csv_layout(tmp_path):
    config = parse_scenario(scenario())
    run_scenario(config, out_dir=tmp_path)
    lines = (tmp_path / "small_trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["t", "u0", "u1", "y0", "y1"]
    assert header[5:13] == [f"z{i}" for i in range(8)]
    assert header[13:] == ["cost", "eta", "grad_norm", "mode"]
    assert len(lines) == 1 + config.trajectory_length
    modes = [line.split(",")[-1] for line in lines[1:]]
    assert modes[:10] == ["idle"] * 10
    assert modes[10:60] == ["excite"] * 50
    assert set(modes[60:]) == {"deepo"}
    # Numeric fields are written as exact reprs (bit-faithful round trip).
    first_deepo = lines[61].split(",")
    assert first_deepo[1] == repr(float(first_deepo[1]))


def test_summary_json_content(tmp_path):
    config = parse_scenario(scenario())
    summary = run_scenario(config, out_dir=tmp_path)
    payload = json.loads((tmp_path / "small_summary.json").read_text())
    assert payload["name"] == "small"
    assert payload["reduced_dim"] == 8
    assert payload["post_rms_total"] == summary.post_rms_total
    assert len(payload["post_rms"]) == 2
    assert payload["mean_step_us"] > 0


def test_summary_times_decisions_apart_from_activation():
    # Activation at t = 60 takes 40 ms; the three decisions after it take
    # 100, 200 and 600 us.  Idle and excitation samples are not timed.
    config = parse_scenario(scenario())
    elapsed = {58: 5.0, 59: 5.0, 60: 40000.0, 61: 100.0, 62: 200.0, 63: 600.0}
    records = [
        StepRecord(t=t, mode="deepo" if t >= 60 else "excite", u=np.zeros(2), y=np.zeros(2), elapsed_us=us)
        for t, us in elapsed.items()
    ]
    summary = summarize_run(config, records, DeepoState.fresh(config.deepo, 2))
    assert summary.activation_us == 40000.0
    assert summary.mean_step_us == 300.0
    assert summary.max_step_us == 600.0


def test_write_flags_suppress_outputs(tmp_path):
    config = parse_scenario(scenario())
    run_scenario(config, out_dir=tmp_path, write_csv_flag=False, write_json_flag=False)
    assert list(tmp_path.iterdir()) == []


def test_uncontrolled_run_has_no_engine_fields():
    config = parse_scenario(scenario(control_enabled=False))
    summary = run_scenario(config)
    assert summary.reduced_dim is None
    assert summary.final_cost is None
    assert summary.mean_step_us is None
    assert summary.post_rms_total > 0


def test_bundled_uncontrolled_converter_keeps_ringing():
    summary = run_scenario(load_scenario("converter_no_deepo"))
    assert summary.envelope_decay_ratio >= 0.9
    # Without the controller the oscillation persists: the RMS in the window
    # where control would have acted stays within 50% of the initial ring.
    ratio = summary.post_rms_total / summary.pre_rms_total
    assert 0.5 <= ratio <= 1.5


def test_controlled_converter_damps_the_ring():
    summary = run_scenario(load_scenario("converter"))
    assert summary.post_rms_total <= 0.2 * summary.pre_rms_total
    assert summary.warnings == []


def test_longer_window_scenario_damps_the_ring():
    # Same plant with a lag-4 window: the gap rule must pick the order on
    # its own (no override) and the controller must still kill the ring.
    summary = run_scenario(load_scenario("wind_surrogate"))
    assert summary.post_rms_total <= 0.2 * summary.pre_rms_total
    assert summary.reduced_dim == 12
    assert summary.warnings == []


ADAPT = {
    "schema": SCHEMA_VERSION,
    "name": "adapt_small",
    "plant": "surrogate_converter",
    "rng_seed": 3,
    "trajectory_length": 900,
    "switch_step": 5,
    "disturbances": [
        {"step": 5, "state_delta": [1.0, 0.0, 0.0, 0.0]},
        {"step": 700, "state_delta": [1.0, 0.0, 0.0, 0.0]},
    ],
    "excitation_start": 10,
    "activation_step": 310,
    "comparison_window": 150,
    "perturbation": {"step": 500, "mode": "surrogate_perturbed"},
    "deepo": {"lag": 2, "eta0": 1e-4, "probe_std": 0.01, "r_override": 8},
}


def test_adaptation_pairs_runs_and_freezes_one(tmp_path):
    config = parse_scenario(copy.deepcopy(ADAPT))
    summary = run_adaptation_scenario(config, out_dir=tmp_path)
    assert summary.disturbance_step == 700
    assert summary.frozen_gain_change == 0.0
    assert summary.adaptive_gain_change > 0.0
    assert summary.frozen_post_rms > 0
    assert summary.adaptive_post_rms > 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        "adapt_small_frozen_trace.csv",
        "adapt_small_adaptive_trace.csv",
        "adapt_small_adaptation_summary.json",
    }
    payload = json.loads((tmp_path / "adapt_small_adaptation_summary.json").read_text())
    assert payload["frozen_post_rms"] == summary.frozen_post_rms


def test_adaptation_identical_when_updates_never_start():
    # update_start beyond the horizon: both runs replay the same trajectory.
    raw = copy.deepcopy(ADAPT)
    raw["update_start"] = 10_000
    summary = run_adaptation_scenario(parse_scenario(raw))
    assert summary.adaptive_post_rms == summary.frozen_post_rms
    assert summary.adaptive_gain_change == 0.0


def test_adaptation_requires_perturbation_and_late_disturbance():
    raw = copy.deepcopy(ADAPT)
    raw.pop("perturbation")
    with pytest.raises(ConfigInvalid, match="perturbation"):
        run_adaptation_scenario(parse_scenario(raw))
    raw = copy.deepcopy(ADAPT)
    raw["disturbances"] = [{"step": 5, "state_delta": [1.0, 0.0, 0.0, 0.0]}]
    with pytest.raises(ConfigInvalid, match="disturbances"):
        run_adaptation_scenario(parse_scenario(raw))


def test_run_scenario_applies_the_perturbation(tmp_path):
    # The same run without the drift at step 500 matches it row for row up
    # to the switch, then parts from it.
    plain = copy.deepcopy(ADAPT)
    plain.pop("perturbation")
    rows = {}
    for label, raw in (("drift", copy.deepcopy(ADAPT)), ("plain", plain)):
        run_scenario(parse_scenario(raw), out_dir=tmp_path / label, write_json_flag=False)
        rows[label] = (tmp_path / label / "adapt_small_trace.csv").read_text().splitlines()[1:]
    assert rows["drift"][:500] == rows["plain"][:500]
    assert all(a != b for a, b in zip(rows["drift"][501:], rows["plain"][501:]))


@pytest.mark.parametrize(
    "runner, raw, calls",
    [
        (run_scenario, scenario(), 1),
        (run_adaptation_scenario, ADAPT, 2),
        (run_scenario, scenario(control_enabled=False), 2),
    ],
    ids=["controlled", "adaptation", "uncontrolled"],
)
def test_runs_go_through_the_harness_run_online(monkeypatch, runner, raw, calls):
    # The benchmark captures runs by patching deepo.harness.run_online; a
    # run that bypassed the module global would escape its digest check.
    seen = []
    inner = deepo.harness.run_online

    def counting(*args, **kwargs):
        seen.append(args[2] if len(args) > 2 else kwargs["steps"])
        return inner(*args, **kwargs)

    monkeypatch.setattr(deepo.harness, "run_online", counting)
    config = parse_scenario(copy.deepcopy(raw))
    runner(config)
    assert len(seen) == calls
    assert sum(seen) == config.trajectory_length * (2 if runner is run_adaptation_scenario else 1)


def test_cli_rejects_negative_seed(capsys):
    assert main(["run", "converter", "--seed", "-1", "--no-csv", "--no-json"]) == 1
    assert "--seed" in capsys.readouterr().err


def test_cli_scenarios_and_run(tmp_path, capsys):
    assert main(["scenarios"]) == 0
    assert "converter" in capsys.readouterr().out
    scenario_file = tmp_path / "tiny.json"
    scenario_file.write_text(json.dumps(scenario()))
    assert main(["run", str(scenario_file), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "post_rms_total" in out
    assert (tmp_path / "out" / "small_trace.csv").exists()


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(scenario(schema=42)))
    assert main(["run", str(bad)]) == 1
    assert "schema" in capsys.readouterr().err


def test_cli_reports_ill_conditioned_solve(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise IllConditioned("Lyapunov residual 6.75e-09 exceeds tolerance")

    assert issubclass(IllConditioned, DeepoError)
    assert issubclass(IllConditioned, ArithmeticError)
    monkeypatch.setattr(deepo.lqr_core, "_dlyap_doubling", fail)
    scenario_file = tmp_path / "tiny.json"
    for command, raw in (("run", scenario()), ("adapt", ADAPT)):
        scenario_file.write_text(json.dumps(raw))
        assert main([command, str(scenario_file), "--no-csv", "--no-json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Lyapunov residual" in captured.err


def test_cli_accept_single_criterion(capsys):
    assert main(["accept", "--only", "7"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "reduced-order-selection" in out
