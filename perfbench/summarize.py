"""Summarize the result records that ``run.py`` keeps under ``.perfbench/results``.

    python3 perfbench/summarize.py [--write perfbench/baseline.json]

For each workload it prints, per metric, the median, the quartiles and the
spread (distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) over the untraced runs of
the current source tree, and the median per-layer values of its traced runs.
``--write`` stores the same numbers as a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from run import STATE, WORKLOADS, source_hash


def summarize(records: list[dict]) -> dict:
    out = {}
    for workload in WORKLOADS:
        runs = [r for r in records if r["workload"] == workload and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == workload and r["trace"] == 1]
        if not runs:
            continue
        entry = {"runs": len(runs), "seeds": sorted({r["seed"] for r in runs}),
                 "operations": sum(len(r["operations"]) for r in runs),
                 "failed": sum(not o["passed"] for r in runs for o in r["operations"])}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            stats = {"unit": first["unit"], "median": median, "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                stats.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
            entry[name] = stats
        if traced:
            entry["per_layer"] = {
                name: {"unit": first["unit"],
                       "median": statistics.median(r["metrics"][name]["value"] for r in traced)}
                for name, first in traced[0]["metrics"].items()}
            entry["traced_runs"] = len(traced)
        out[workload] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="summarize benchmark result records")
    parser.add_argument("--write", type=Path, default=None, help="write the summary as JSON")
    args = parser.parse_args()
    source = source_hash()
    records = [json.loads(p.read_text()) for p in sorted((STATE / "results").glob("*.json"))]
    records = [r for r in records if r["env"]["source_hash"] == source]
    if not records:
        print(f"no result records for source {source}")
        return 1
    summary = summarize(records)
    for workload, entry in summary.items():
        print(f"{workload}: {entry['runs']} runs, {entry['operations']} operations, "
              f"{entry['failed']} failed")
        for name, stats in entry.items():
            if isinstance(stats, dict) and "spread" in stats:
                print(f"  {name}: median {stats['median']:.4f} {stats['unit']}, "
                      f"quartiles {stats['q1']:.4f}..{stats['q3']:.4f}, "
                      f"spread {stats['spread']:.3f}")
    if args.write:
        env = records[-1]["env"]
        args.write.write_text(json.dumps(
            {"source_hash": source, "git_hash": env["git_hash"], "env": env,
             "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
