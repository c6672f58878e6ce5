"""tools/trace_compare.py on two small hand-written bundles."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trace_compare.py"

TRACE = [
    ["t", "u0", "cost", "mode"],
    ["0", "0.0", "", "excite"],
    ["1", "0.25", "3.5", "deepo"],
    ["2", "-0.125", "3.25", "deepo"],
]
SUMMARY = {"name": "converter", "post_rms_total": 0.1, "pre_rms_total": 0.5, "post_rms": [0.1, 0.2]}


def write_bundle(root: Path, trace=TRACE, summary=SUMMARY):
    run = root / "converter_seed7"
    run.mkdir(parents=True)
    (run / "converter_trace.csv").write_text("\n".join(",".join(row) for row in trace) + "\n")
    (run / "summary.json").write_text(json.dumps(summary))
    return root


def compare(old, new, *extra):
    return subprocess.run([sys.executable, str(TOOL), str(old), str(new), *extra],
                          capture_output=True, text=True)


def test_trace_compare_passes_equal_bundles_and_names_a_moved_column(tmp_path):
    old = write_bundle(tmp_path / "old")
    same = compare(old, write_bundle(tmp_path / "same"), "--rtol", "1e-8")
    assert same.returncode == 0, same.stdout
    assert "post/pre" in same.stdout and "0.2" in same.stdout

    moved = [row[:] for row in TRACE]
    moved[2][2] = repr(3.5 + 1e-6)
    result = compare(old, write_bundle(tmp_path / "moved", trace=moved), "--rtol", "1e-8")
    assert result.returncode == 1
    assert "FAIL converter_seed7/converter_trace.csv: column cost" in result.stdout
    assert compare(old, tmp_path / "moved", "--rtol", "1e-6").returncode == 0

    relabeled = [row[:] for row in TRACE]
    relabeled[1][3] = "idle"
    result = compare(old, write_bundle(tmp_path / "relabeled", trace=relabeled))
    assert result.returncode == 1 and "column mode" in result.stdout
