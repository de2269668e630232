"""Command-line runner: configuration-driven experiments with persisted
artifacts.

Subcommands: ground-state, evolve, analyze, verify, exact, reproduce.
Every run writes manifest.json (resolved config, package and library
versions, git hash) into its output directory, then its own artifacts:
field binaries, trajectory.csv, summary.json, analysis.csv, report JSONs.

Exit codes: 0 success, 2 validation/config error, 3 numerical failure or a
failed acceptance reproduction.

Config files are flat ``key = value`` text ('#' starts a comment); CLI flags
--out, --seed, --snapshots override their config counterparts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import functionals as fn
from .analysis import (
    estimate_blowup_time, mass_concentration_series, sigma_c_window_series,
)
from .core import Field, grid_for, make_params
from .errors import NumericsError, ValidationError
from .evolution import StepPolicy, evolve
from .exact import SFamilyParams, s_profile
from .experiments import REGISTRY, reproduce as run_reproduce
from .fieldio import (
    attach_snapshots, read_field, trajectory_from_csv, trajectory_to_csv,
    write_field, write_manifest, write_snapshots,
)
from .ground_state import SolverOptions, solve_ground_state
from .inequalities import (
    DEFAULT_SEED, run_banica_report, run_critical_gn_report,
    run_gagliardo_report, run_radial_gn_report, run_strauss_report,
)


def _input_file(path) -> Path:
    """``path`` as an existing input file; a missing one is bad input (exit 2)."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"input file not found: {path}")
    return path


def parse_config(path: str | None) -> dict:
    """Flat key = value configuration text; no nesting, no includes."""
    cfg: dict = {}
    if path is None:
        return cfg
    text = _input_file(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        cfg[key] = _parse_value(value)
    return cfg


def _parse_value(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text.strip("'\"")


def _require(cfg: dict, key: str, default=None):
    if key in cfg:
        return cfg[key]
    if default is not None:
        return default
    raise ValidationError(f"config: missing required key '{key}'")


def _git_hash() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=5
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
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


def _params_grid(cfg: dict):
    params = make_params(
        int(_require(cfg, "dim")), float(_require(cfg, "sigma")), float(_require(cfg, "b"))
    )
    grid = grid_for(params, float(_require(cfg, "extent")), int(_require(cfg, "n")))
    return params, grid


def _policy(cfg: dict, snapshots_flag: int | None) -> StepPolicy:
    return StepPolicy(
        dt0=float(cfg.get("dt0", 1e-3)),
        c_dt=float(cfg.get("c_dt", 5e-3)),
        t_end=float(cfg["t_end"]) if "t_end" in cfg else None,
        theta=float(cfg.get("theta", 0.5)),
        sample_every=int(cfg.get("sample_every", 10)),
        snapshot_every=(
            snapshots_flag
            if snapshots_flag is not None
            else (int(cfg["snapshot_every"]) if "snapshot_every" in cfg else None)
        ),
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_ground_state(cfg, out, seed, snapshots):
    params, grid = _params_grid(cfg)
    _setup(cfg, out, params, grid, "ground_state")
    dtype = np.longdouble if cfg.get("dtype", "float64") == "longdouble" else np.float64
    opts = SolverOptions(dtype=dtype, max_iter=int(cfg.get("max_iter", 2000)))
    gs = solve_ground_state(params, grid, opts)
    write_field(out / "Q.fld", gs.profile)
    sidecar = {
        "params": params.as_dict(),
        "residual": gs.residual,
        "pohozaev_r1": gs.pohozaev_r1,
        "pohozaev_r2": gs.pohozaev_r2,
        "k_opt": gs.k_opt,
        "q_mass": gs.q_mass,
        "iterations": gs.iterations,
        "regime_label": "proven" if gs.proven_regime else "unproven-regime",
    }
    (out / "ground_state.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"ground state: residual={gs.residual:.3e} r1={gs.pohozaev_r1:.3e} "
          f"r2={gs.pohozaev_r2:.3e} [{sidecar['regime_label']}]")
    return 0


def _initial_field(cfg, params, grid, out) -> Field:
    kind = _require(cfg, "initial")
    if kind == "ground_state_multiple":
        gs = solve_ground_state(params, grid)
        c = float(cfg.get("initial_c", 1.0))
        return gs.profile.with_values(c * gs.profile.values.astype(complex))
    if kind == "gaussian":
        amp = float(cfg.get("initial_amplitude", 1.0))
        width = float(cfg.get("initial_width", 1.0))
        vals = amp * np.exp(-grid.nodes ** 2 / (2.0 * width ** 2)).astype(complex)
        return Field(vals, grid, params)
    if kind == "s_family":
        gs = solve_ground_state(params, grid)
        fam = SFamilyParams(
            T=float(cfg.get("family_T", 1.0)),
            lam=float(cfg.get("family_lambda", 1.0)),
            gamma=float(cfg.get("family_gamma", 0.0)),
        )
        return s_profile(fam, gs, float(cfg.get("family_t0", 0.0)))
    if kind == "file":
        return read_field(_input_file(_require(cfg, "initial_path")), grid, params)
    raise ValidationError(f"config: unknown initial '{kind}'")


def cmd_evolve(cfg, out, seed, snapshots):
    params, grid = _params_grid(cfg)
    _setup(cfg, out, params, grid, "evolve")
    u0 = _initial_field(cfg, params, grid, out)
    policy = _policy(cfg, snapshots)
    traj = evolve(u0, policy)
    trajectory_to_csv(traj, out / "trajectory.csv")
    if policy.snapshot_every is not None:
        write_snapshots(traj, out / "snapshots")
    final = traj.samples[-1]
    summary = {
        "termination": traj.termination,
        "mass_drift_flag": traj.mass_drift_flag,
        "steps_sampled": len(traj.samples),
        "final": {
            "t": final.time, "mass": final.mass, "energy": final.energy,
            "grad_norm_sq": final.grad_norm_sq, "variance": final.variance,
            "boundary_mass_fraction": final.boundary_frac,
        },
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"evolve: {traj.termination} at t={final.time:.5f}, "
          f"|grad u|={final.grad_norm_sq ** 0.5:.3f}, samples={len(traj.samples)}")
    return 0


def cmd_analyze(cfg, out, seed, snapshots):
    run_dir = Path(_require(cfg, "run_dir"))
    manifest = json.loads(_input_file(run_dir / "manifest.json").read_text())
    from .fieldio import params_grid_from_manifest

    params, grid = params_grid_from_manifest(manifest)
    _setup(cfg, out, params, grid, "analyze")
    traj = trajectory_from_csv(_input_file(run_dir / "trajectory.csv"))
    snap_dir = run_dir / "snapshots"
    if snap_dir.exists():
        attach_snapshots(traj, snap_dir, grid, params)
    fit = estimate_blowup_time(traj, params.s_c)
    rows = ["t,T_hat_minus_t,grad_norm,window_radius,concentration"]
    verdicts = {"rate_exponent_below_bound": fit.exponent <= -(1.0 - params.s_c) / 2.0 + 0.05}
    floor = None
    snaps = traj.snapshots()
    if params.mass_critical and snaps:
        series = mass_concentration_series(traj, float(cfg.get("alpha", 0.25)), fit)
        for r, s in zip(series, snaps):
            rows.append(f"{r.time!r},{fit.T_hat - r.time!r},"
                        f"{s.grad_norm_sq ** 0.5!r},{r.radius!r},{r.value!r}")
        floor = min(r.value for r in series)
        verdicts["final_window_mass"] = series[-1].value
    elif params.intercritical and snaps:
        series = sigma_c_window_series(traj, fit, cfg.get("mode", "fint"),
                                       c0=float(cfg.get("c0", 10.0)),
                                       c0_tilde=float(cfg.get("c0_tilde", 1.0)))
        for r, s in zip(series, snaps):
            rows.append(f"{r.time!r},{fit.T_hat - r.time!r},"
                        f"{s.grad_norm_sq ** 0.5!r},{r.radius!r},{r.value!r}")
        floor = series[-1].running_extreme
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


def cmd_verify(cfg, out, seed, snapshots):
    params, grid = _params_grid(cfg)
    _setup(cfg, out, params, grid, "verify")
    trials = int(cfg.get("trials", 1000))
    gs = solve_ground_state(params, grid)
    reports = [run_gagliardo_report(params, grid, gs.k_opt, trials=trials, seed=seed)]
    if params.mass_critical:
        reports.append(run_banica_report(params, grid, gs.q_mass, trials=trials, seed=seed))
    if grid.geometry == "radial":
        reports.append(run_strauss_report(params, grid, trials=trials, seed=seed))
        if params.sigma < 2.0:
            reports.append(run_radial_gn_report(params, grid, trials=trials, seed=seed))
        if params.intercritical:
            from .experiments import check_ratio_reference

            reports.append(run_critical_gn_report(
                params, grid, check_ratio_reference(gs), trials=trials, seed=seed))
    all_ok = True
    for rep in reports:
        (out / f"inequality_{rep.name}.json").write_text(
            json.dumps(rep.as_dict(), indent=2) + "\n")
        if rep.witness is not None and rep.max_violation > 1e-6:
            write_field(out / f"witness_{rep.name}.fld", rep.witness)
            all_ok = False
        status = "ok" if rep.max_violation <= 1e-6 else "VIOLATION"
        print(f"{rep.name}: max_violation={rep.max_violation:.3e} [{status}]")
    return 0 if all_ok else 3


def cmd_exact(cfg, out, seed, snapshots):
    params, grid = _params_grid(cfg)
    _setup(cfg, out, params, grid, "exact")
    gs = solve_ground_state(params, grid)
    fam = SFamilyParams(
        T=float(cfg.get("family_T", 1.0)),
        lam=float(cfg.get("family_lambda", 1.0)),
        gamma=float(cfg.get("family_gamma", 0.0)),
    )
    times = cfg.get("times", "0.0")
    times = [float(t) for t in str(times).split(",")] if isinstance(times, str) else [float(times)]
    for i, t in enumerate(times):
        fld = s_profile(fam, gs, t)
        write_field(out / f"s_profile_{i:03d}.fld", fld)
        print(f"s_profile t={t}: mass={fn.mass(fld):.8f}")
    return 0


def cmd_reproduce(cfg, out, seed, snapshots):
    name = _require(cfg, "name")
    report = run_reproduce(name, seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"report_{name}.json").write_text(json.dumps(report.as_dict(), indent=2) + "\n")
    print(f"{name}: {'PASS' if report.passed else 'FAIL'} "
          f"({report.elapsed:.1f}s)")
    for key, val in report.details.items():
        if isinstance(val, dict):
            print(f"  {key}: " + ", ".join(f"{k}={_short(v)}" for k, v in val.items()
                                           if not isinstance(v, (list, dict))))
        elif not isinstance(val, list):
            print(f"  {key}: {_short(val)}")
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
        p.add_argument("--snapshots", type=int, default=None,
                       help="keep a field snapshot every N samples")
        if name == "reproduce":
            p.add_argument("name", nargs="?", default=None,
                           help=f"one of: {', '.join(sorted(REGISTRY))}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "reproduce" and getattr(args, "name", None):
            cfg["name"] = args.name
        out = Path(args.out) if args.out else Path(f"out_{args.command.replace('-', '_')}")
        return COMMANDS[args.command](cfg, out, args.seed, args.snapshots)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
