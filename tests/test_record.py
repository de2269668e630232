"""Every report equals the committed record (``record_reports.py``)."""

import json

from inls_lab.experiments import REGISTRY
from record_reports import RECORD, moved, recorded


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
