"""Every report equals the committed record (``record_reports.py``)."""

import json

from inls_lab.experiments import REGISTRY
from record_reports import RECORD, recorded


def _leaves(data, path=""):
    """Each leaf of loaded JSON under its key path; list items by index."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return {path: data}
    out = {}
    for key, value in items:
        out.update(_leaves(value, f"{path}[{key!r}]" if isinstance(key, int) else f"{path}.{key}"))
    return out


def test_reports_equal_the_committed_record(report_of):
    """Each report of the session, as loaded JSON (so the order of its gates
    counts), equals the record exactly; a mismatch lists every moved key."""
    record = json.loads(RECORD.read_text())
    assert sorted(record) == sorted(REGISTRY)
    moved = []
    for name, old in record.items():
        new = recorded(report_of(name))
        if new != old:
            before, after = _leaves(old, name), _leaves(new, name)
            moved += [f"{key}: {before.get(key, '<absent>')!r} -> {after.get(key, '<absent>')!r}"
                      for key in sorted(before.keys() | after.keys())
                      if key not in before or key not in after or before[key] != after[key]]
    assert not moved, "report values moved from the record:\n" + "\n".join(moved)
