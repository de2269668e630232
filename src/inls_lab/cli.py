"""Command-line runner: configuration-driven experiments with persisted
artifacts.

Subcommands: ground-state, evolve, analyze, verify, exact, reproduce.
Every run writes manifest.json (resolved config with its defaults, package
and library versions, git hash) into its output directory, then its own artifacts:
field binaries, trajectory.csv, summary.json, analysis.csv, report JSONs.

Exit codes: 0 success, 2 validation/config error or a file that cannot be
read or written (missing, a directory, not UTF-8), 3 numerical failure or a
failed acceptance reproduction.

Config files are flat ``key = value`` text ('#' starts a comment).
``SCHEMAS`` gives each subcommand's keys with their casts and defaults, and
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
import inspect
import json
import math
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import functionals as fn
from .analysis import (
    WINDOW_MODES, estimate_blowup_time, mass_concentration_series, rate_exponent_bound,
    sigma_c_window_series,
)
from .core import Field, grid_for, make_params
from .errors import NumericsError, ValidationError
from .evolution import StepPolicy, evolve
from .exact import SFamilyParams, s_profile
from .experiments import REGISTRY, reproduce as run_reproduce
from .fieldio import (
    attach_snapshots, integral, read_field, read_manifest, read_text, trajectory_from_csv,
    trajectory_to_csv, write_field, write_manifest, write_snapshots,
)
from .ground_state import solve_ground_state
from .inequalities import (
    DEFAULT_SEED, check_critical_gn, run_banica_report, run_critical_gn_report,
    run_gagliardo_report, run_radial_gn_report, run_strauss_report,
)


def parse_config(path: str | None) -> dict:
    """Flat key = value configuration text; no nesting, no includes.  Values
    stay text (surrounding quotes stripped) until ``resolve_config`` casts them."""
    cfg: dict = {}
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
        cfg[key] = value.strip("'\"")
    return cfg


def _checked(cast, ok, why: str):
    """``cast``, then reject a value that fails ``ok`` for the reason ``why``."""
    def checked(text: str):
        value = cast(text)
        if not ok(value):
            raise ValueError(why)
        return value
    return checked


def _one_of(*names):
    return _checked(str, names.__contains__, f"expected one of {', '.join(names)}")


def _defaults(obj, **casts) -> dict:
    """Schema entries for parameters of ``obj`` (a dataclass or a function),
    each default read from ``obj``'s own signature."""
    params = inspect.signature(obj).parameters
    return {key: (cast, params[key].default) for key, cast in casts.items()}


_finite = _checked(float, math.isfinite, "must be finite")
_finite_positive = _checked(float, lambda v: 0 < v < math.inf, "must be finite and positive")
_count = _checked(integral, lambda v: v >= 1, "must be at least 1")

# Per subcommand, every key it reads: key -> (cast, default).  A key without a
# default is required; any key not listed is a typo or belongs elsewhere.
_GRID = {"dim": (integral,), "sigma": (_finite,), "b": (_finite,), "extent": (_finite_positive,),
         "n": (integral,)}
_FAMILY = {"family_T": (_finite_positive, 1.0), "family_lambda": (_finite_positive, 1.0),
           "family_gamma": (_finite, SFamilyParams.gamma)}
SCHEMAS = {
    "ground-state": {**_GRID, **_defaults(solve_ground_state,
                                          dtype=_one_of("float64", "longdouble"), max_iter=_count)},
    "evolve": {
        **_GRID, **_FAMILY,
        "initial": (_one_of("ground_state_multiple", "gaussian", "s_family", "file"),),
        "initial_c": (_finite, 1.0), "initial_amplitude": (_finite, 1.0),
        "initial_width": (_finite_positive, 1.0), "initial_path": (str, None),
        "family_t0": (_finite, 0.0),
        **_defaults(StepPolicy, dt0=_finite, c_dt=_finite, t_end=_finite, theta=_finite,
                    sample_every=integral, snapshot_every=integral),
    },
    "analyze": {
        "run_dir": (str,),
        "alpha": (_checked(float, lambda v: 0 < v < 0.5, "must lie in (0, 1/2)"), 0.25),
        "mode": (_one_of(*WINDOW_MODES), "fint"),
        **_defaults(sigma_c_window_series, c0=_finite_positive, c0_tilde=_finite_positive),
    },
    "verify": {**_GRID, "trials": (_count, 1000)},
    "exact": {**_GRID, **_FAMILY,
              "times": (lambda text: [_finite(t) for t in text.split(",")], [0.0])},
    "reproduce": {"name": (str,)},
}


def resolve_config(command: str, raw: dict) -> dict:
    """``raw`` (key -> value text) as ``command`` reads it: each value cast once
    and each absent key given its default.  An unknown key, a missing required
    key or a value its cast rejects is bad input (exit 2)."""
    schema = SCHEMAS[command]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ValidationError(f"config: unknown key(s) for {command}: {', '.join(unknown)}")
    cfg = {}
    for key, (cast, *default) in schema.items():
        if key not in raw and not default:
            raise ValidationError(f"config: missing required key '{key}'")
        try:
            cfg[key] = cast(raw[key]) if key in raw else default[0]
        except ValueError as exc:
            raise ValidationError(f"config: bad value for '{key}': {raw[key]!r} ({exc})") from exc
    return cfg


def _git_hash() -> str:
    """HEAD of the checkout this package runs from, whatever the working
    directory; "unknown" outside a checkout."""
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


def _params_grid(cfg: dict):
    params = make_params(cfg["dim"], cfg["sigma"], cfg["b"])
    return params, grid_for(params, cfg["extent"], cfg["n"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_ground_state(cfg, out, seed):
    params, grid = _params_grid(cfg)
    _setup(cfg, out, params, grid, "ground_state")
    gs = solve_ground_state(params, grid, dtype=cfg["dtype"], max_iter=cfg["max_iter"])
    write_field(out / "Q.fld", gs.profile)
    sidecar = {
        "params": params.as_dict(),
        "residual": gs.residual,
        "pohozaev_r1": gs.pohozaev_r1,
        "pohozaev_r2": gs.pohozaev_r2,
        "k_opt": gs.k_opt,
        "q_mass": gs.q_mass,
        "iterations": gs.iterations,
        "float64_iterations": gs.float64_iterations,
        "longdouble_iterations": gs.longdouble_iterations,
        "regime_label": "proven" if params.proven_regime else "unproven-regime",
    }
    (out / "ground_state.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"ground state: residual={gs.residual:.3e} r1={gs.pohozaev_r1:.3e} "
          f"r2={gs.pohozaev_r2:.3e} [{sidecar['regime_label']}]")
    return 0


def _initial_field(cfg, params, grid, family) -> Field:
    kind = cfg["initial"]
    if kind == "gaussian":
        amp, width = cfg["initial_amplitude"], cfg["initial_width"]
        vals = amp * np.exp(-grid.nodes ** 2 / (2.0 * width ** 2)).astype(complex)
        return Field(vals, grid, params)
    if kind == "file":
        if cfg["initial_path"] is None:
            raise ValidationError("config: initial = file needs key 'initial_path'")
        return read_field(cfg["initial_path"], grid, params)
    gs = solve_ground_state(params, grid)
    if kind == "s_family":
        return s_profile(family, gs, cfg["family_t0"])
    return gs.profile.with_values(cfg["initial_c"] * gs.profile.values.astype(complex))


def cmd_evolve(cfg, out, seed):
    params, grid = _params_grid(cfg)
    policy = StepPolicy(**{f.name: cfg[f.name] for f in fields(StepPolicy) if f.name in cfg})
    family = SFamilyParams(cfg["family_T"], cfg["family_lambda"], cfg["family_gamma"])
    u0 = _initial_field(cfg, params, grid, family)
    if not np.isfinite(u0.values).all():
        raise ValidationError(f"initial field ({cfg['initial']}) holds non-finite values")
    _setup(cfg, out, params, grid, "evolve")
    try:
        traj = evolve(u0, policy)
    except NumericsError as exc:
        if exc.trajectory is not None:    # keep what the run recorded before failing
            _write_trajectory(exc.trajectory, out, policy)
        raise
    final = _write_trajectory(traj, out, policy)
    print(f"evolve: {traj.termination} at t={final['t']:.5f}, "
          f"|grad u|={final['grad_norm_sq'] ** 0.5:.3f}, samples={len(traj.samples)}")
    return 0


def _write_trajectory(traj, out: Path, policy: StepPolicy) -> dict | None:
    """trajectory.csv, the snapshots and summary.json; returns the summary's final state."""
    trajectory_to_csv(traj, out / "trajectory.csv")
    if policy.snapshot_every is not None:
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
    floor, series = None, []
    snaps = traj.snapshots()
    if params.mass_critical and snaps:
        series = mass_concentration_series(traj, cfg["alpha"], fit)
        floor = min(r.value for r in series)
        verdicts["final_window_mass"] = series[-1].value
    elif params.intercritical and snaps:
        series = sigma_c_window_series(traj, fit, cfg["mode"],
                                       c0=cfg["c0"], c0_tilde=cfg["c0_tilde"])
        floor = series[-1].running_extreme
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
    params, grid = _params_grid(cfg)
    _setup(cfg, out, params, grid, "verify")
    trials = cfg["trials"]
    gs = solve_ground_state(params, grid)
    reports = [run_gagliardo_report(params, grid, gs.k_opt, trials=trials, seed=seed)]
    if params.mass_critical:
        reports.append(run_banica_report(params, grid, gs.q_mass, trials=trials, seed=seed))
    if grid.geometry == "radial":
        reports.append(run_strauss_report(params, grid, trials=trials, seed=seed))
        if params.sigma < 2.0:
            reports.append(run_radial_gn_report(params, grid, trials=trials, seed=seed))
        if params.intercritical:
            reports.append(run_critical_gn_report(
                params, grid, check_critical_gn(gs.profile), trials=trials, seed=seed))
    for rep in reports:
        (out / f"inequality_{rep.name}.json").write_text(
            json.dumps(rep.as_dict(), indent=2) + "\n")
        if not rep.passed:
            write_field(out / f"witness_{rep.name}.fld", rep.witness)
        status = "ok" if rep.passed else "VIOLATION"
        print(f"{rep.name}: max_violation={rep.max_violation:.3e} [{status}]")
    return 0 if all(rep.passed for rep in reports) else 3


def cmd_exact(cfg, out, seed):
    params, grid = _params_grid(cfg)
    family = SFamilyParams(cfg["family_T"], cfg["family_lambda"], cfg["family_gamma"])
    if not all(t < family.T for t in cfg["times"]):
        raise ValidationError(f"config: 'times' must all precede family_T = {family.T}, "
                              f"got {cfg['times']}")
    _setup(cfg, out, params, grid, "exact")
    gs = solve_ground_state(params, grid)
    for i, t in enumerate(cfg["times"]):
        fld = s_profile(family, gs, t)
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
        if name == "reproduce":
            p.add_argument("name", nargs="?", default=None,
                           help=f"one of: {', '.join(sorted(REGISTRY))}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = parse_config(args.config)
        if getattr(args, "name", None):
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
