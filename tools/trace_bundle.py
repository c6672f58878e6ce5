"""Write a bundle of deterministic deepo outputs for a byte-identity check.

    python3 tools/trace_bundle.py OUT_DIR

runs, against the ``src/`` tree next to this script:

- the bundled ``converter`` (seeds 7 and 3), ``wind_surrogate`` (11 and 3)
  and ``converter_no_deepo`` scenarios: trace CSV and summary JSON;
- the ``adaptation`` scenario (seeds 7 and 3): frozen and adaptive trace
  CSVs and the adaptation summary JSON;
- a direct run at r = 20 (``offline_init_direct`` + 200 decisions of
  ``ingest_and_update`` on measured state): trace CSV;
- a 700-step converter run: the ``DeepoState.to_json`` checkpoint.

Summaries drop the wall-clock fields (``mean_step_us``, ``max_step_us``,
``activation_us``), so everything written is a pure function of the code and
the seeds.  A change that must not alter behaviour is checked with
``diff -r`` of the bundles written by the old and the new tree.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from deepo import (  # noqa: E402
    DeepoConfig,
    DeepoState,
    SwitchingPlant,
    ingest_and_update,
    load_scenario,
    make_surrogate_converter,
    offline_init_direct,
    run_adaptation_scenario,
    run_online,
    run_scenario,
)
from deepo.harness import write_trace_csv  # noqa: E402

TIMING_KEYS = {"mean_step_us", "max_step_us", "activation_us"}

SCENARIOS = [("converter", 7), ("converter", 3), ("wind_surrogate", 11), ("wind_surrogate", 3),
             ("converter_no_deepo", None)]
ADAPTATION_SEEDS = [7, 3]


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items() if k not in TIMING_KEYS}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def _write_json(path: Path, payload):
    path.write_text(json.dumps(_strip_timing(payload), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def scenario_runs(out: Path):
    for name, seed in SCENARIOS:
        config = load_scenario(name)
        if seed is not None:
            config = dataclasses.replace(config, rng_seed=seed)
        run_dir = out / f"{name}_seed{config.rng_seed}"
        summary = run_scenario(config, out_dir=run_dir, write_json_flag=False)
        _write_json(run_dir / "summary.json", summary.to_dict())
    for seed in ADAPTATION_SEEDS:
        config = dataclasses.replace(load_scenario("adaptation"), rng_seed=seed)
        run_dir = out / f"adaptation_seed{seed}"
        summary = run_adaptation_scenario(config, out_dir=run_dir, write_json_flag=False)
        _write_json(run_dir / "summary.json", summary.to_dict())


def direct_run(out: Path, r=20, m=2, decisions=200, seed=0):
    rng = np.random.default_rng(seed)
    while True:
        a = rng.standard_normal((r, r))
        a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
        b = rng.standard_normal((r, m))
        ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(r)])
        if np.linalg.matrix_rank(ctrb) == r:
            break
    steps = 20 * (m + r)
    u = rng.uniform(-1.0, 1.0, size=(m, steps))
    z = np.zeros((r, steps + 1))
    for t in range(steps):
        z[:, t + 1] = a @ z[:, t] + b @ u[:, t] + 0.1 * rng.standard_normal(r)
    state = offline_init_direct(u, z[:, :-1], z[:, 1:], DeepoConfig(lag=1, probe_std=1.0), rng_seed=seed + 1)
    x = z[:, -1].copy()
    for _ in range(decisions):
        uc = state.gain @ x + state.config.probe_std * state.rng.standard_normal(m)
        x_next = a @ x + b @ uc + 0.1 * rng.standard_normal(r)
        ingest_and_update(state, uc, x, x_next)
        x = x_next
    run_dir = out / "direct_r20"
    run_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(run_dir / "trace.csv", state.records, m, 0, r)


def checkpoint(out: Path, steps=700):
    config = load_scenario("converter")
    model, schedule = make_surrogate_converter(rng_seed=config.rng_seed, switch_step=config.switches[0].step)
    plant = SwitchingPlant(model, schedule, kicks=[(d.step, d.state_delta) for d in config.disturbances])
    state = DeepoState.fresh(config.deepo, model.m, rng_seed=config.rng_seed)
    run_online(state, plant, steps=steps, activation_step=config.activation_step,
               excitation_start=config.excitation_start)
    run_dir = out / f"converter_checkpoint_{steps}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "state.json").write_text(state.to_json() + "\n", encoding="utf-8")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/trace_bundle.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    scenario_runs(out)
    direct_run(out)
    checkpoint(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
