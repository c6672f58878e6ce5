"""Compare two ``trace_bundle.py`` outputs number by number.

    python3 tools/trace_compare.py OLD NEW [--rtol X]

For changes that move results by rounding (a different but equivalent
formula) rather than not at all, where ``diff -r`` is too strict.  The two
bundles must hold the same files; each CSV the same header, row count and
non-numeric cells (``mode``); each JSON file the same keys, list lengths and
non-numeric leaves.  For every CSV column and every numeric JSON leaf (list
indices dropped, so ``cov.phi`` is one column) it prints the largest
absolute deviation and the largest deviation relative to the column's
largest magnitude in OLD, followed by the outcome ratios (post/pre RMS of
each scenario, adaptive/frozen post RMS of each adaptation pair).

Exits 0 when every relative deviation is at most ``--rtol`` (default 0),
1 naming each file and column above it or each structural difference, and
2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path


class Mismatch(Exception):
    """The bundles differ in structure, not only in numbers."""


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


class Column:
    """Largest absolute deviation and largest OLD magnitude of one column."""

    def __init__(self):
        self.abs_dev = 0.0
        self.scale = 0.0

    def add(self, old: float, new: float):
        if old == new or (math.isnan(old) and math.isnan(new)):
            dev = 0.0
        else:
            dev = abs(new - old) if math.isfinite(old) and math.isfinite(new) else math.inf
        self.abs_dev = max(self.abs_dev, dev)
        if math.isfinite(old):
            self.scale = max(self.scale, abs(old))

    @property
    def rel_dev(self) -> float:
        if self.abs_dev == 0.0:
            return 0.0
        return self.abs_dev / self.scale if self.scale > 0.0 else math.inf


def compare_csv(old: Path, new: Path) -> dict[str, Column]:
    with old.open(newline="") as f_old, new.open(newline="") as f_new:
        rows_old, rows_new = list(csv.reader(f_old)), list(csv.reader(f_new))
    if not rows_old or rows_old[0] != rows_new[0]:
        raise Mismatch("headers differ")
    if len(rows_old) != len(rows_new):
        raise Mismatch(f"{len(rows_old) - 1} rows against {len(rows_new) - 1}")
    header = rows_old[0]
    columns = {name: Column() for name in header}
    for line, (row_old, row_new) in enumerate(zip(rows_old[1:], rows_new[1:]), start=2):
        if len(row_old) != len(header) or len(row_new) != len(header):
            raise Mismatch(f"line {line}: cell count differs from the header")
        for name, a, b in zip(header, row_old, row_new):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    raise Mismatch(f"line {line}, column {name}: {a!r} against {b!r}")
            else:
                columns[name].add(x, y)
    return columns


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk_json(old, new, path: str, columns: dict[str, Column]):
    if _is_number(old) and _is_number(new):
        columns.setdefault(path, Column()).add(float(old), float(new))
    elif isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            raise Mismatch(f"{path or 'top level'}: keys {sorted(old)} against {sorted(new)}")
        for key in old:
            _walk_json(old[key], new[key], f"{path}.{key}" if path else key, columns)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            raise Mismatch(f"{path}: {len(old)} entries against {len(new)}")
        for a, b in zip(old, new):
            _walk_json(a, b, path, columns)
    elif old != new:
        raise Mismatch(f"{path}: {old!r} against {new!r}")


def compare_json(old: Path, new: Path) -> dict[str, Column]:
    columns: dict[str, Column] = {}
    _walk_json(json.loads(old.read_text()), json.loads(new.read_text()), "", columns)
    return columns


def outcome_ratios(summary: dict) -> dict[str, float]:
    if "adaptive_post_rms" in summary:
        return {"adaptive/frozen": summary["adaptive_post_rms"] / summary["frozen_post_rms"]}
    if "post_rms_total" in summary:
        return {"post/pre": summary["post_rms_total"] / summary["pre_rms_total"]}
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative deviation accepted per column (default 0)")
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    files_old = {p.relative_to(args.old) for p in args.old.rglob("*") if p.is_file()}
    files_new = {p.relative_to(args.new) for p in args.new.rglob("*") if p.is_file()}
    failures = [f"{p}: only in {args.old}" for p in sorted(files_old - files_new)]
    failures += [f"{p}: only in {args.new}" for p in sorted(files_new - files_old)]
    ratios = []
    print(f"{'file':<48} {'column':<28} {'max abs dev':>12} {'max rel dev':>12}")
    for rel in sorted(files_old & files_new):
        old, new = args.old / rel, args.new / rel
        try:
            if rel.suffix == ".csv":
                columns = compare_csv(old, new)
            elif rel.suffix == ".json":
                columns = compare_json(old, new)
                if rel.name == "summary.json":
                    before, after = (outcome_ratios(json.loads(p.read_text())) for p in (old, new))
                    ratios += [(rel.parent, name, before[name], after[name]) for name in before]
            elif old.read_bytes() != new.read_bytes():
                raise Mismatch("contents differ")
            else:
                columns = {}
        except Mismatch as exc:
            failures.append(f"{rel}: {exc}")
            continue
        moved = {name: col for name, col in columns.items() if col.abs_dev > 0.0}
        for name, col in moved.items():
            print(f"{str(rel):<48} {name:<28} {col.abs_dev:12.3e} {col.rel_dev:12.3e}")
            if not col.rel_dev <= args.rtol:
                failures.append(f"{rel}: column {name} moved by {col.rel_dev:.3e} relative")
        if not moved:
            print(f"{str(rel):<48} {'(all ' + str(len(columns)) + ' numeric columns equal)':<28}")
    print(f"\n{'outcome ratio':<48} {'old':>20} {'new':>20} {'rel dev':>10}")
    for where, name, a, b in ratios:
        dev = abs(b - a) / abs(a) if a else abs(b - a)
        print(f"{str(where) + ' ' + name:<48} {a!r:>20} {b!r:>20} {dev:10.2e}")
    for line in failures:
        print(f"FAIL {line}")
    print(f"{'FAIL' if failures else 'OK'}: rtol {args.rtol:g}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
