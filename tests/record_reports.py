"""The committed record of every ``reproduce`` report at the default seed.

``reports_record.json`` holds, for each registered experiment, its report as
JSON without the run time: no ``elapsed_seconds`` and no budget gate on it.
``test_record.py`` compares each report of the session with it, exactly.
After a change that is meant to move report values, see what moved, without
writing anything, from the repository root with

    PYTHONPATH=src python tests/record_reports.py --compare

which prints, per report, the count of moved leaves and the largest relative
move of a number, and lists every moved leaf that is not a float (iteration
and sample counts, flags, labels) as old -> new.  It exits with status 1 when
any leaf moved and 0 when none did, so "byte-identical reports" is its exit
status.  Then regenerate the record with

    PYTHONPATH=src python tests/record_reports.py

and say which values moved, and why.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

RECORD = Path(__file__).with_name("reports_record.json")


def recorded(report) -> dict:
    """A report as the record holds it: its loaded JSON, run time left out."""
    data = json.loads(json.dumps(report.as_dict()))
    del data["elapsed_seconds"]
    data["gates"] = [g for g in data["gates"] if g["name"] != "elapsed_seconds"]
    return data


def leaves(data, path=""):
    """Each leaf of loaded JSON under its key path; list items by index."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return {path: data}
    out = {}
    for key, value in items:
        out.update(leaves(value, f"{path}[{key!r}]" if isinstance(key, int) else f"{path}.{key}"))
    return out


def moved(old, new, name: str) -> dict:
    """key path -> (old, new) for every leaf of report ``name`` that moved,
    with '<absent>' for a leaf on one side only."""
    before, after = leaves(old, name), leaves(new, name)
    return {key: (before.get(key, "<absent>"), after.get(key, "<absent>"))
            for key in sorted(before.keys() | after.keys())
            if key not in before or key not in after or before[key] != after[key]}


def _relative(old, new) -> float | None:
    """|new - old| / |old| for two numbers (inf from zero), else None."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        return None
    return abs(new - old) / abs(old) if old else math.inf


def compare(reports: dict) -> int:
    """Print how each of ``reports`` (name -> recorded report) moved from the
    record; returns the count of moved leaves."""
    record = json.loads(RECORD.read_text())
    total = 0
    for name in sorted(record.keys() | reports.keys()):
        moves = moved(record.get(name, {}), reports.get(name, {}), name)
        total += len(moves)
        rel = {key: r for key, pair in moves.items() if (r := _relative(*pair)) is not None}
        largest = max(rel, key=rel.get, default=None)
        print(f"{name}: {len(moves)} moved" + (
            "" if largest is None else f", largest relative move {rel[largest]:.3g} at {largest}"))
        for key, (old, new) in moves.items():
            if not isinstance(old, float) or not isinstance(new, float):
                print(f"  {key}: {old!r} -> {new!r}")
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", action="store_true",
                        help="print what moved from the record instead of writing it")
    args = parser.parse_args()
    from inls_lab.experiments import REGISTRY, reproduce

    reports = {name: recorded(reproduce(name)) for name in REGISTRY}
    if args.compare:
        return 1 if compare(reports) else 0
    RECORD.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} reports to {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
