"""inls-lab benchmark: cold operations through the package's public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload blowup_line --seed 7 --seconds 10 --trace 0

Workloads (each operation runs in a fresh process, so every ``lru_cache`` in
``inls_lab.experiments`` starts empty, as on every CLI invocation):

* ``blowup_line``: ``experiments.reproduce("s_family_tracking")``, the
  minimal-mass collapse on the quintic line (n=16384) to the resolution stop.
* ``pohozaev_gate``: ``experiments.reproduce("pohozaev_gate")``, three
  extended-precision ground states (line n=65536, radial N=2 n=20480, radial
  N=3 n=262144).
* ``cli_session``: the README session through ``inls_lab.cli.main``
  (ground-state, evolve + analyze, verify, exact, reproduce inequalities) plus
  one radial evolve + analyze, in a fresh directory.

A run first sets up once untimed (it fills the bytecode caches), then
``SETUP_PROBES`` times timed, then runs operations while fewer than
``--seconds`` seconds have passed since the first one started (at least one,
and at least ``MIN_OPS`` for a workload whose cost depends on its seed).  The
first operation gets ``--seed``; later ones get seeds derived from it.  Each
operation must pass its correctness check: the experiment's own acceptance
gate, or, for the CLI session, exit code 0 everywhere, a passing inequality
report and an exact read-back of the trajectory CSVs and snapshot fields.

``--trace 0`` reports the end-to-end metrics ``wall_s`` (median over passing
operations), ``setup_s`` (median over every set-up: process spawn to the
start of the operation) and ``peak_rss_mb`` (median ``ru_maxrss``).
``--trace 1`` runs one untraced operation as the reference, then traced ones,
and reports the per-layer metrics of ``layertrace.layer_metrics`` plus
``trace.wall_s``, ``trace.overhead_s`` (traced wall minus the reference) and
``trace.count_mismatches`` (exact counts that differ between traced
operations of the same source, seed and workload, including earlier runs).

The last line of standard output is the JSON result.  Scratch outputs live
under ``.perfbench/tmp`` and are removed; each result is also kept, with the
run environment, under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from importlib import metadata
from pathlib import Path

from layertrace import EXACT_COUNTS

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
STATE = ROOT / ".perfbench"
WORKLOADS = ("blowup_line", "pohozaev_gate", "cli_session")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 2
# The cost of cli_session depends on its seed: the radial mollifier of
# `reproduce inequalities` widens its band as 1/rho for small random rho, so
# one seed can take twice as long as another.  An untraced run therefore takes
# the median over operations on this many seeds.
MIN_OPS = {"cli_session": 2}
DEADLINE_S = 170.0    # the whole run, so that it ends within 180 s


class SetupError(RuntimeError):
    """The program cannot be set up here; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment for the workers: the checkout's source first, thread
    counts capped at nproc, git kept inside the checkout."""
    env = dict(os.environ)
    cap = nproc()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, cap))
        except ValueError:
            current = cap
        env[var] = str(min(max(current, 1), cap))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def op_seed(seed: int, index: int) -> int:
    """Seed of the index-th untraced operation: the run seed, then seeds
    derived from it."""
    return seed if index == 0 else zlib.crc32(f"{seed}/{index}".encode())


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_environment(env: dict) -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in (read("/proc/cpuinfo") or "").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = read(index / "size")
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        git_hash = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_hash = "unknown"
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_hash": git_hash,
        "source_hash": source_hash(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


class Runner:
    """Spawns worker processes for one workload and collects their results."""

    def __init__(self, workload, seed, scratch: Path, env: dict, deadline: float):
        self.workload, self.seed = workload, seed
        self.scratch, self.env, self.deadline = scratch, env, deadline
        self.count = 0

    def child(self, mode: str, spans: Path | None = None, seed: int | None = None) -> dict:
        self.count += 1
        tag = f"{self.count:02d}-{mode}"
        result_path = self.scratch / f"{tag}.json"
        cmd = [sys.executable, str(WORKER), "--workload", self.workload, "--mode", mode,
               "--result", str(result_path), "--workdir", str(self.scratch / tag)]
        seed = self.seed if seed is None else seed
        if seed is not None:
            cmd += ["--seed", str(seed)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"passed": False, "error": "timed out", "timed_out": True,
                    "child_s": time.monotonic() - t_spawn}
        except BaseException:   # interrupted or terminated: leave no worker behind
            proc.kill()
            proc.wait()
            raise
        child_s = time.monotonic() - t_spawn
        if code != 0 or not result_path.exists():
            return {"passed": False, "error": f"worker exited with code {code}",
                    "exit_code": code, "child_s": child_s}
        result = json.loads(result_path.read_text())
        result["setup_s"] = result.pop("t_ready") - t_spawn
        result["child_s"] = child_s
        return result

    def probe(self) -> dict:
        result = self.child("probe")
        if "setup_s" not in result:
            raise SetupError(f"{self.workload}: set-up failed ({result['error']})")
        self.seed = result["seed"]   # resolves the default seed
        return result

    def ops(self, mode: str, seconds: float, spans: Path | None = None,
            reference: bool = False) -> list[dict]:
        """Operations while fewer than ``seconds`` have passed, never starting
        one that the deadline would cut.  With ``reference`` the first one is
        untraced and every operation uses the run seed; otherwise operation i
        uses ``op_seed(seed, i)`` and at least ``MIN_OPS`` of them run."""
        start = time.monotonic()
        results = [self.child("op")] if reference else []
        needed = 2 if reference else MIN_OPS.get(self.workload, 1)
        while len(results) < needed or time.monotonic() - start < seconds:
            longest = max(r["child_s"] for r in results) if results else 0.0
            if len(results) >= needed and time.monotonic() + longest > self.deadline:
                break
            seed = self.seed if reference else op_seed(self.seed, len(results))
            results.append(self.child(mode, spans, seed))
            if results[-1].get("timed_out"):
                break
        return results


def check_counts(workload, seed, source, traced: list[dict]) -> tuple[int, list[str]]:
    """Exact counts must repeat across passing traced operations of the same
    source, seed and workload, in this run and in earlier ones.  Returns the
    number of count records compared and every mismatch; the first passing
    record is kept for later runs, so the first traced run of a workspace
    that makes one traced operation has nothing to compare it with."""
    record = STATE / "counts" / f"{workload}-seed{seed}-{source}.json"
    seen = []
    if record.exists():
        seen.append(("earlier run", json.loads(record.read_text())))
    seen += [(f"operation {i + 1}", {k: r["layers"][k][0] for k in EXACT_COUNTS})
             for i, r in enumerate(traced) if r["passed"] and "layers" in r]
    mismatches = []
    if seen:
        label0, first = seen[0]
        for label, counts in seen[1:]:
            mismatches += [f"{k}: {first[k]} ({label0}) != {counts[k]} ({label})"
                           for k in EXACT_COUNTS if counts[k] != first[k]]
        if not record.exists():
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps(first, indent=1) + "\n")
    return len(seen), mismatches


def median_of(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description="inls-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: inequalities.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    t_start = time.monotonic()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "inls_lab" / "__init__.py").is_file():
        print(f"no inls_lab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    environment = run_environment(env)
    scratch = STATE / "tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, scratch, env, t_start + DEADLINE_S)
    try:
        runner.probe()   # untimed: fills the bytecode caches
        probes = [runner.probe() for _ in range(SETUP_PROBES)]
        spans = None
        if args.trace:
            spans = STATE / "spans" / f"{args.workload}-seed{probes[0]['seed']}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
        done = runner.ops("trace" if args.trace else "op", args.seconds, spans, args.trace == 1)
    except SetupError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()   # only when no other run is using it

    reference, ops = done[:args.trace], done[args.trace:]
    seed = probes[0]["seed"]
    failed = sum(not r["passed"] for r in done)
    for i, r in enumerate(done):
        if not r["passed"]:
            print(f"operation {i + 1} failed: {r.get('error') or 'correctness check'}",
                  file=sys.stderr)
    passing = [r for r in ops if r["passed"]] or ops
    print(f"workload={args.workload} seed={seed} operations={len(done)} failed={failed} "
          f"fail_frac={failed / len(done):.4g} "
          f"operation_seeds={[r.get('seed') for r in done]}")

    if args.trace:
        traced = [r for r in passing if "layers" in r]
        names = list(traced[0]["layers"]) if traced else []
        metrics = {}
        for name in names:
            values = [r["layers"][name][0] for r in traced]
            unit = traced[0]["layers"][name][1]
            # counts are exact (mismatches are reported below); times are medians
            value = values[0] if unit == "count" else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
        compared, mismatches = check_counts(args.workload, seed,
                                            environment["source_hash"], traced)
        print(f"exact counts: {compared} records of this source and seed compared"
              + ("" if compared >= 2 else " (no earlier record: nothing to compare)"))
        for line in mismatches:
            print(f"count mismatch: {line}")
        traced_wall = median_of(traced, "wall_s")
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - median_of(reference, "wall_s"),
                                       "unit": "s"}
        metrics["trace.count_mismatches"] = {"value": len(mismatches), "unit": "count"}
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    else:
        setups = [r["setup_s"] for r in probes + ops if "setup_s" in r]
        metrics = {
            "wall_s": {"value": median_of(passing, "wall_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median_of(passing, "rss_mb"), "unit": "MB"},
        }
        print(f"wall_s: median {metrics['wall_s']['value']:.4f} s over {len(passing)} "
              f"operations (no tail percentile: fewer than ten samples beyond it)")
        print(f"setup_s: median {metrics['setup_s']['value']:.4f} s over {len(setups)} set-ups")
        print(f"peak_rss_mb: median {metrics['peak_rss_mb']['value']:.1f} MB "
              f"over {len(passing)} operations")
        print(f"fail_frac: {failed}/{len(done)} = {failed / len(done):.4g}")
    print("env: " + json.dumps(environment, sort_keys=True))

    record = {"workload": args.workload, "seed": seed, "trace": args.trace,
              "seconds": args.seconds, "env": environment, "metrics": metrics,
              "operations": [{k: v for k, v in r.items() if k != "layers"} for r in done]}
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-trace{args.trace}-seed{seed}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(done), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
