"""The committed record of every ``reproduce`` report at the default seed.

``reports_record.json`` holds, for each registered experiment, its report as
JSON without the run time: no ``elapsed_seconds`` and no budget gate on it.
``test_record.py`` compares each report of the session with it, exactly.
After a change that is meant to move report values, regenerate the record
from the repository root with

    PYTHONPATH=src python tests/record_reports.py

and say which values moved, and why.
"""

from __future__ import annotations

import json
from pathlib import Path

RECORD = Path(__file__).with_name("reports_record.json")


def recorded(report) -> dict:
    """A report as the record holds it: its loaded JSON, run time left out."""
    data = json.loads(json.dumps(report.as_dict()))
    del data["elapsed_seconds"]
    data["gates"] = [g for g in data["gates"] if g["name"] != "elapsed_seconds"]
    return data


def main() -> None:
    from inls_lab.experiments import REGISTRY, reproduce

    record = {name: recorded(reproduce(name)) for name in REGISTRY}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} reports to {RECORD}")


if __name__ == "__main__":
    main()
