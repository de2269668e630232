"""Command-line runner: configuration-driven experiments with persisted
artifacts.

Subcommands: ground-state, evolve, analyze, verify, exact, reproduce.
Every run but reproduce writes manifest.json (resolved config with its
defaults, package and library versions, git hash) into its output directory,
then its own artifacts: field binaries, trajectory.csv, summary.json,
analysis.csv, report JSONs; reproduce writes only report_<name>.json.

Exit codes: 0 success, 2 validation/config error or a file that cannot be
read or written (missing, a directory, not UTF-8), 3 numerical failure or a
failed acceptance reproduction.

Config files are flat ``key = value`` text ('#' starts a comment).
``config.SCHEMAS`` gives each subcommand's keys with their casts and defaults, and
every check the config alone decides runs before the output directory is
created, so a bad config exits 2 and leaves nothing behind.  The same holds
for the files a run reads and what it computes from them: analyze reads the
run directory, fits its blow-up time and builds its concentration series, and
evolve reads its initial field, before creating the output directory.  A
failed evolve still writes trajectory.csv and summary.json (termination
"numerics_error") before exiting 3.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import functionals as fn
from .analysis import (
    estimate_blowup_time, mass_concentration_series, rate_exponent_bound, sigma_c_window_series,
)
from .config import family, initial_field, params_grid, resolve_config, step_policy
from .errors import NumericsError, ValidationError
from .evolution import evolve
from .exact import s_profiles
from .experiments import REGISTRY, reproduce as run_reproduce
from .fieldio import (
    attach_snapshots, read_manifest, read_text, trajectory_from_csv, trajectory_to_csv,
    write_field, write_manifest, write_snapshots,
)
from .ground_state import solve_ground_state
from .inequalities import (
    DEFAULT_SEED, check_critical_gn, pooled, run_banica_report, run_critical_gn_report,
    run_gagliardo_report, run_radial_gn_report, run_strauss_report,
)


def parse_config(path: str | None) -> dict:
    """Flat key = value configuration text, each key once; no nesting, no includes.
    Values stay text (surrounding quotes stripped) until ``resolve_config`` casts them."""
    cfg, seen = {}, {}     # key -> value text, key -> line number
    if path is None:
        return cfg
    text = read_text(path)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ValidationError(f"{path}: key '{key}' given twice (lines {seen[key]}, {lineno})")
        seen[key] = lineno
        cfg[key] = value.strip("'\"")
    return cfg


@cache
def _git_hash() -> str:
    """HEAD of the checkout this package runs from, whatever the working
    directory; "unknown" outside a checkout.  One ``git`` spawn per process."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=5, cwd=Path(__file__).parent)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _setup(cfg: dict, out_dir: Path, params, grid, experiment: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(
        out_dir / "manifest.json", params, grid,
        experiment=experiment,
        config=cfg,
        versions={"inls_lab": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        git_hash=_git_hash(),
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_ground_state(cfg, out, seed):
    params, grid = params_grid(cfg)
    _setup(cfg, out, params, grid, "ground_state")
    gs = solve_ground_state(params, grid, max_iter=cfg["max_iter"])
    write_field(out / "Q.fld", gs.profile)
    sidecar = {
        "params": params.as_dict(),
        "residual": gs.residual,
        "pohozaev_r1": gs.pohozaev_r1,
        "pohozaev_r2": gs.pohozaev_r2,
        "k_opt": gs.k_opt,
        "q_mass": gs.q_mass,
        "iterations": gs.iterations,
        "newton_steps": gs.newton_steps,
        "regime_label": "proven" if params.proven_regime else "unproven-regime",
    }
    (out / "ground_state.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"ground state: residual={gs.residual:.3e} r1={gs.pohozaev_r1:.3e} "
          f"r2={gs.pohozaev_r2:.3e} [{sidecar['regime_label']}]")
    return 0


def cmd_evolve(cfg, out, seed):
    policy = step_policy(cfg)
    u0 = initial_field(cfg, lambda c: solve_ground_state(*params_grid(c)))
    if not np.isfinite(u0.values).all():
        raise ValidationError(f"initial field ({cfg['initial']}) holds non-finite values")
    _setup(cfg, out, u0.params, u0.grid, "evolve")
    try:
        traj = evolve(u0, policy)
    except NumericsError as exc:        # keep what the run recorded before failing
        _write_trajectory(exc.trajectory, out)
        raise
    final = _write_trajectory(traj, out)
    print(f"evolve: {traj.termination} at t={final['t']:.5f}, "
          f"|grad u|={final['grad_norm_sq'] ** 0.5:.3f}, samples={len(traj.samples)}")
    return 0


def _write_trajectory(traj, out: Path) -> dict | None:
    """trajectory.csv, the snapshots if it holds any, and summary.json; returns
    the summary's final state."""
    trajectory_to_csv(traj, out / "trajectory.csv")
    if traj.snapshots():
        write_snapshots(traj, out / "snapshots")
    final = None
    if traj.samples:
        s = traj.samples[-1]
        final = {
            "t": s.time, "mass": s.mass, "energy": s.energy,
            "grad_norm_sq": s.grad_norm_sq, "variance": s.variance,
            "boundary_mass_fraction": s.boundary_frac,
        }
    summary = {
        "termination": traj.termination,
        "mass_drift_flag": traj.mass_drift_flag,
        "steps_sampled": len(traj.samples),
        "final": final,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return final


def cmd_analyze(cfg, out, seed):
    run_dir = Path(cfg["run_dir"])
    params, grid = read_manifest(run_dir / "manifest.json")
    traj = trajectory_from_csv(run_dir / "trajectory.csv")
    snap_dir = run_dir / "snapshots"
    if snap_dir.exists():
        attach_snapshots(traj, snap_dir, grid, params)
    fit = estimate_blowup_time(traj, params.s_c)
    verdicts = {"rate_exponent_below_bound": fit.exponent <= rate_exponent_bound(params.s_c)}
    series, snaps = [], traj.snapshots()
    if params.mass_critical and snaps:
        series = mass_concentration_series(traj, cfg["alpha"], fit)
        verdicts["final_window_mass"] = series[-1].value
    elif params.intercritical and snaps:
        series = sigma_c_window_series(traj, cfg["mode"], c0=cfg["c0"], c0_tilde=cfg["c0_tilde"])
    extreme = max if params.intercritical and cfg["mode"] == "inft" else min
    floor = extreme(r.value for r in series) if series else None
    _setup(cfg, out, params, grid, "analyze")
    rows = ["t,T_hat_minus_t,grad_norm,window_radius,concentration"]
    for r, s in zip(series, snaps):
        rows.append(f"{r.time!r},{fit.T_hat - r.time!r},"
                    f"{s.grad_norm_sq ** 0.5!r},{r.radius!r},{r.value!r}")
    (out / "analysis.csv").write_text("\n".join(rows) + "\n")
    summary = {
        "T_hat": fit.T_hat,
        "exponent": fit.exponent,
        "r_squared": fit.r_squared,
        "fit_window": fit.window,
        "concentration_floor": floor,
        "verdicts": verdicts,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"analyze: T_hat={fit.T_hat:.5f} exponent={fit.exponent:.3f}")
    return 0


def cmd_verify(cfg, out, seed):
    params, grid = params_grid(cfg)
    _setup(cfg, out, params, grid, "verify")
    trials = cfg["trials"]
    gs = solve_ground_state(params, grid)
    tasks = []    # the longest first: the pool waits for its slowest worker
    if params.mass_critical:
        tasks.append(partial(run_banica_report, params, grid, gs.q_mass, trials, seed))
    tasks.append(partial(run_gagliardo_report, params, grid, gs.k_opt, trials, seed))
    if grid.geometry == "radial":
        if params.intercritical:
            tasks.append(partial(run_critical_gn_report, params, grid,
                                 check_critical_gn(gs.profile), trials, seed))
        if params.sigma < 2.0:
            tasks.append(partial(run_radial_gn_report, params, grid, trials, seed))
        tasks.append(partial(run_strauss_report, params, grid, trials, seed))
    reports = pooled(tasks)
    for rep in reports:
        (out / f"inequality_{rep.name}.json").write_text(
            json.dumps(rep.as_dict(), indent=2) + "\n")
        if not rep.passed and rep.witness is not None:
            write_field(out / f"witness_{rep.name}.fld", rep.witness)
        status = "ok" if rep.passed else "VIOLATION"
        print(f"{rep.name}: max_violation={rep.max_violation:.3e} [{status}]")
    return 0 if all(rep.passed for rep in reports) else 3


def cmd_exact(cfg, out, seed):
    params, grid = params_grid(cfg)
    fam = family(cfg)
    if not all(t < fam.T for t in cfg["times"]):
        raise ValidationError(f"config: 'times' must all precede family_T = {fam.T}, "
                              f"got {cfg['times']}")
    _setup(cfg, out, params, grid, "exact")
    gs = solve_ground_state(params, grid)
    for i, (t, fld) in enumerate(zip(cfg["times"], s_profiles(fam, gs, cfg["times"]))):
        write_field(out / f"s_profile_{i:03d}.fld", fld)
        print(f"s_profile t={t}: mass={fn.mass(fld):.8f}")
    return 0


def cmd_reproduce(cfg, out, seed):
    name = cfg["name"]
    report = run_reproduce(name, seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"report_{name}.json").write_text(json.dumps(report.as_dict(), indent=2) + "\n")
    print(f"{name}: {'PASS' if report.passed else 'FAIL'} "
          f"({report.elapsed:.1f}s)")
    for g in report.gates:
        bound = "(not gated)" if g.bound is None else f"{g.sense} {_short(g.bound)}"
        margin = "" if g.margin is None else f"  margin {g.margin:.3g}"
        print(f"  {g.name} = {_short(g.value)} {bound}{margin}{'' if g.passed else '  FAIL'}")
    if report.tightest is not None:
        print(f"tightest: {report.tightest.name}, margin {report.tightest.margin:.3g}")
    return 0 if report.passed else 3


def _short(v):
    return f"{v:.4g}" if isinstance(v, float) else v


COMMANDS = {
    "ground-state": cmd_ground_state,
    "evolve": cmd_evolve,
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "exact": cmd_exact,
    "reproduce": cmd_reproduce,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inls-lab",
        description="Numerical laboratory for the inhomogeneous NLS equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if name == "reproduce":
            p.add_argument("name", nargs="?", default=None,
                           help=f"one of: {', '.join(sorted(REGISTRY))}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = parse_config(args.config)
        if getattr(args, "name", None):
            if "name" in raw:
                raise ValidationError(f"{args.config}: key 'name' given twice "
                                      "(in the file and on the command line)")
            raw["name"] = args.name
        cfg = resolve_config(args.command, raw)
        out = Path(args.out) if args.out else Path(f"out_{args.command.replace('-', '_')}")
        return COMMANDS[args.command](cfg, out, args.seed)
    except (ValidationError, OSError) as exc:   # an unreadable file is bad input too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
