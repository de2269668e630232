"""The committed record of every ``reproduce`` report at the default seed, and
of the files four README commands write.

``reports_record.json`` holds, for each registered experiment, its report as
JSON without the run time: no ``elapsed_seconds`` and no budget gate on it.
``artifacts_record.json`` holds the SHA-256 of each file that the README's
``ground-state``, collapse ``evolve``, ``analyze`` and ``exact`` runs
(``README_RUNS``) write, by its path, a manifest's without its ``git_hash``.
``test_record.py`` compares each report of the session, and the files of one
run of the four, with them, exactly.  After a change that is meant to move
report values or artifacts, see what moved, without writing anything, from the
repository root with

    PYTHONPATH=src python tests/record_reports.py --compare

which prints, per report, the count of moved leaves and the largest relative
move of a number, and lists every moved leaf that is not a float (iteration
and sample counts, flags, labels, file hashes) as old -> new.  It exits with
status 1 when any leaf moved and 0 when none did, so "byte-identical reports
and artifacts" is its exit status.  Then regenerate both records with

    PYTHONPATH=src python tests/record_reports.py

and say which values moved, and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

RECORD = Path(__file__).with_name("reports_record.json")
ARTIFACTS = Path(__file__).with_name("artifacts_record.json")

# the README's ground-state, collapse evolve, analyze and exact runs: config
# file, its text and the command line, in the order the README runs them
README_RUNS = (
    ("gs.cfg", "dim = 2\nsigma = 0.75\nb = 0.5\nextent = 14.0\nn = 20480\n",
     "ground-state --config gs.cfg --out runs/gs"),
    ("collapse.cfg", "dim = 1\nsigma = 2.0\nb = 0.0\nextent = 20.0\nn = 4096\n"
     "initial = ground_state_multiple\ninitial_c = 1.05\ndt0 = 5e-4\nc_dt = 5e-3\n"
     "theta = 0.15\nt_end = 10.0\nsample_every = 10\nsnapshot_every = 40\n",
     "evolve --config collapse.cfg --out runs/collapse"),
    ("an.cfg", "run_dir = runs/collapse\nalpha = 0.25\n",
     "analyze --config an.cfg --out runs/analysis"),
    ("ex.cfg", "dim = 1\nsigma = 2.0\nb = 0.0\nextent = 16.0\nn = 4096\nfamily_T = 1.0\n"
     "family_lambda = 1.0\ntimes = 0.0,0.5,0.9\n",
     "exact --config ex.cfg --out runs/exact"),
)


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


def artifact_hashes() -> dict:
    """Run ``README_RUNS`` in the working directory; the SHA-256 of each file
    they write under ``runs``, by its path, a manifest's without its git hash."""
    from inls_lab.cli import main

    for name, text, command in README_RUNS:
        Path(name).write_text(text)
        if main(command.split()) != 0:
            raise RuntimeError(f"inls-lab {command} failed")
    hashes = {}
    for path in sorted(p for p in Path("runs").rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            del doc["git_hash"]
            data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        hashes[path.as_posix()] = hashlib.sha256(data).hexdigest()
    return {"cli_artifacts": hashes}


def compare(reports: dict, path: Path = RECORD) -> int:
    """Print how each of ``reports`` (name -> recorded report) moved from the
    record in ``path``; returns the count of moved leaves."""
    record = json.loads(path.read_text())
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
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            artifacts = artifact_hashes()
        finally:
            os.chdir(cwd)
    if args.compare:
        return 1 if compare(reports) + compare(artifacts, ARTIFACTS) else 0
    RECORD.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    ARTIFACTS.write_text(json.dumps(artifacts, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} reports to {RECORD} and "
          f"{len(artifacts['cli_artifacts'])} artifact hashes to {ARTIFACTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
