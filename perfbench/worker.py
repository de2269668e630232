"""One cold benchmark operation, run in a fresh process by ``run.py``.

    python3 perfbench/worker.py --workload NAME --mode MODE --seed N \\
        --result RESULT.json --workdir DIR [--spans SPANS.json]

MODE is ``probe`` (set up, then exit), ``op`` (set up, run one operation
and check its outputs) or ``trace`` (``op`` with the span tracer installed
around the operation).  The set-up is the interpreter start, ``import
inls_lab`` and, for ``cli_session``, writing the config files; it ends at
``t_ready`` on the system-wide monotonic clock, so the parent can subtract
its own spawn time.  Every output lands under ``--workdir``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The README session, plus one radial evolve + analyze with the configuration
# of experiments.intercritical_trajectory (N=2, n=2048, Crank-Nicolson).
CLI_CONFIGS = {
    "gs.cfg": "dim = 2\nsigma = 0.75\nb = 0.5\nextent = 14.0\nn = 20480\ndtype = longdouble\n",
    "collapse.cfg": (
        "dim = 1\nsigma = 2.0\nb = 0.0\nextent = 20.0\nn = 4096\n"
        "initial = ground_state_multiple\ninitial_c = 1.05\n"
        "dt0 = 5e-4\nc_dt = 5e-3\ntheta = 0.15\nt_end = 10.0\n"
        "sample_every = 10\nsnapshot_every = 40\n"
    ),
    "an.cfg": "run_dir = runs/collapse\nalpha = 0.25\n",
    "radial.cfg": (
        "dim = 2\nsigma = 1.0\nb = 0.5\nextent = 10.0\nn = 2048\n"
        "initial = gaussian\ninitial_amplitude = 1.9\ninitial_width = 1.0\n"
        "dt0 = 5e-4\nc_dt = 5e-3\ntheta = 0.20\nt_end = 5.0\n"
        "sample_every = 10\nsnapshot_every = 4\n"
    ),
    "an_radial.cfg": "run_dir = runs/radial\n",
    "v.cfg": "dim = 1\nsigma = 1.5\nb = 0.5\nextent = 14.0\nn = 4096\ntrials = 1000\n",
    "ex.cfg": (
        "dim = 1\nsigma = 2.0\nb = 0.0\nextent = 16.0\nn = 4096\n"
        "family_T = 1.0\nfamily_lambda = 1.0\ntimes = 0.0,0.5,0.9\n"
    ),
}
CLI_SESSION = (
    ["ground-state", "--config", "gs.cfg", "--out", "runs/gs"],
    ["evolve", "--config", "collapse.cfg", "--out", "runs/collapse"],
    ["analyze", "--config", "an.cfg", "--out", "runs/analysis"],
    ["evolve", "--config", "radial.cfg", "--out", "runs/radial"],
    ["analyze", "--config", "an_radial.cfg", "--out", "runs/analysis_radial"],
    ["verify", "--config", "v.cfg", "--out", "runs/verify"],
    ["exact", "--config", "ex.cfg", "--out", "runs/exact"],
    ["reproduce", "inequalities", "--out", "runs/rep"],
)
EVOLVE_DIRS = ("runs/collapse", "runs/radial")   # in the order the session evolves


def reproduce_workload(name):
    """A canned acceptance experiment; it passes only if its report does."""

    def setup(lab, seed):
        def run():
            return lab.experiments.reproduce(name, seed=seed)

        return run, lambda report: bool(report.passed)

    return setup


def cli_session(lab, seed):
    """The documented CLI session, run in-process through ``cli.main``."""
    for name, text in CLI_CONFIGS.items():
        Path(name).write_text(text)
    trajectories = []

    def run():
        evolve = lab.cli.evolve

        def capture(u0, policy):
            traj = evolve(u0, policy)
            trajectories.append(traj)
            return traj

        lab.cli.evolve = capture
        try:
            return [lab.cli.main(argv + ["--seed", str(seed)]) for argv in CLI_SESSION]
        finally:
            lab.cli.evolve = evolve

    def check(codes):
        if any(code != 0 for code in codes) or len(trajectories) != len(EVOLVE_DIRS):
            return False
        if not json.loads(Path("runs/rep/report_inequalities.json").read_text())["passed"]:
            return False
        return all(_round_trip_ok(lab, traj, Path(out))
                   for traj, out in zip(trajectories, EVOLVE_DIRS))

    return run, check


def _round_trip_ok(lab, traj, out: Path) -> bool:
    """trajectory.csv and every snapshot .fld read back equal to memory."""
    import numpy as np

    columns = ("time", "dt", "mass", "energy", "grad_norm_sq", "variance", "boundary_frac")
    back = lab.fieldio.trajectory_from_csv(out / "trajectory.csv")
    if [[getattr(s, c) for c in columns] for s in back.samples] != \
            [[getattr(s, c) for c in columns] for s in traj.samples]:
        return False
    index = json.loads((out / "snapshots" / "snapshots.json").read_text())
    snaps = traj.snapshots()
    if not snaps or len(index) != len(snaps):
        return False
    for entry, sample in zip(index, snaps):
        values, _ = lab.fieldio.read_field_values(out / "snapshots" / entry["file"])
        if entry["time"] != sample.time or not np.array_equal(values, sample.snapshot.values):
            return False
    return True


WORKLOADS = {
    "blowup_line": reproduce_workload("s_family_tracking"),
    "pohozaev_gate": reproduce_workload("pohozaev_gate"),
    "cli_session": cli_session,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("probe", "op", "trace"))
    parser.add_argument("--seed", default=None, type=int)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--spans", default=None, type=Path)
    args = parser.parse_args()

    import inls_lab
    import inls_lab.cli
    import inls_lab.experiments
    import inls_lab.fieldio
    from inls_lab.inequalities import DEFAULT_SEED

    if not Path(inls_lab.__file__).resolve().is_relative_to(SRC):
        print(f"inls_lab was imported from {inls_lab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    args.workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.workdir)
    run, check = WORKLOADS[args.workload](inls_lab, seed)
    result = {"seed": seed, "t_ready": time.monotonic()}

    if args.mode != "probe":
        caches = [f for f in vars(inls_lab.experiments).values() if hasattr(f, "cache_info")]
        result["cold"] = all(f.cache_info().currsize == 0 for f in caches)
        tracer = None
        if args.mode == "trace":
            from layertrace import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install(inls_lab)
        error = None
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outcome = run()
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            if tracer is not None:
                tracer.uninstall()
        passed = False
        if error is None:
            try:
                passed = check(outcome)
            except Exception as exc:  # a check that cannot read its inputs fails
                error = f"check: {type(exc).__name__}: {exc}"
        result.update(
            wall_s=wall,
            cpu_s=cpu,
            passed=bool(passed and result["cold"]),
            error=error,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["layers"] = layer_metrics(tracer.spans, wall)
            if args.spans is not None:
                args.spans.write_text(json.dumps(
                    {"fields": ["name", "start_s", "end_s", "parent", "work"],
                     "spans": tracer.dump()}))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
