"""Every report, and every file four README commands write, equals the committed
record (``record_reports.py``)."""

import json

from inls_lab.experiments import REGISTRY
from record_reports import ARTIFACTS, RECORD, artifact_hashes, compare, moved, recorded


def test_reports_equal_the_committed_record(report_of):
    """Each report of the session, as loaded JSON (so the order of its gates
    counts), equals the record exactly; a mismatch lists every moved key."""
    record = json.loads(RECORD.read_text())
    assert sorted(record) == sorted(REGISTRY)
    lines = []
    for name, old in record.items():
        new = recorded(report_of(name))
        if new != old:
            lines += [f"{key}: {a!r} -> {b!r}" for key, (a, b) in moved(old, new, name).items()]
    assert not lines, "report values moved from the record:\n" + "\n".join(lines)


def test_compare_counts_the_moved_leaves(capsys):
    """``compare``, whose count decides the exit status of ``record_reports.py
    --compare``, counts no leaf on the record itself and one leaf moved."""
    record = json.loads(RECORD.read_text())
    assert compare(record) == 0
    record["pohozaev_gate"]["details"]["line_mass_critical"]["iterations"] += 1
    assert compare(record) == 1
    assert "line_mass_critical.iterations: 41 -> 42" in capsys.readouterr().out


def test_cli_artifacts_equal_the_committed_record(tmp_path, monkeypatch, capsys):
    """The files the README's ground-state, collapse evolve, analyze and exact
    runs write (22 files, 0.4 s on 2 vCPUs) hash as the record does: ``compare``
    counts no moved file, the exit rule of ``record_reports.py --compare``."""
    monkeypatch.chdir(tmp_path)
    assert compare(artifact_hashes(), ARTIFACTS) == 0, capsys.readouterr().out
