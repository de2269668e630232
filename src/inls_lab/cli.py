"""Command-line runner: configuration-driven experiments with persisted
artifacts.

Subcommands: ground-state, evolve, analyze, verify, exact, reproduce.
Every run writes manifest.json (resolved config, package and library
versions, git hash) into its output directory, then its own artifacts:
field binaries, trajectory.csv, summary.json, analysis.csv, report JSONs.

Exit codes: 0 success, 2 validation/config error, 3 numerical failure or a
failed acceptance reproduction.

Config files are flat ``key = value`` text ('#' starts a comment) holding
only the keys their subcommand reads (``CONFIG_KEYS``); the --snapshots flag
overrides snapshot_every.  A failed evolve still writes trajectory.csv and
summary.json (termination "numerics_error") before exiting 3.
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
    attach_snapshots, params_grid_from_manifest, read_field, trajectory_from_csv,
    trajectory_to_csv, write_field, write_manifest, write_snapshots,
)
from .ground_state import SolverOptions, solve_ground_state
from .inequalities import (
    DEFAULT_SEED, check_critical_gn, run_banica_report, run_critical_gn_report,
    run_gagliardo_report, run_radial_gn_report, run_strauss_report,
)


def _input_file(path) -> Path:
    """``path`` as an existing input file; a missing one is bad input (exit 2)."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"input file not found: {path}")
    return path


_GRID_KEYS = {"dim", "sigma", "b", "extent", "n"}
_FAMILY_KEYS = {"family_T", "family_lambda", "family_gamma"}
# The keys each subcommand reads; any other key is a typo or belongs elsewhere.
CONFIG_KEYS = {
    "ground-state": _GRID_KEYS | {"dtype", "max_iter"},
    "evolve": _GRID_KEYS | _FAMILY_KEYS | {
        "initial", "initial_c", "initial_amplitude", "initial_width", "initial_path",
        "family_t0", "dt0", "c_dt", "t_end", "theta", "sample_every", "snapshot_every",
    },
    "analyze": {"run_dir", "alpha", "mode", "c0", "c0_tilde"},
    "verify": _GRID_KEYS | {"trials"},
    "exact": _GRID_KEYS | _FAMILY_KEYS | {"times"},
    "reproduce": {"name"},
}
DTYPES = {"float64": np.float64, "longdouble": np.longdouble}


def _check_config_keys(cfg: dict, command: str) -> None:
    """Reject keys that ``command`` does not read (bad input, exit 2)."""
    unknown = sorted(set(cfg) - CONFIG_KEYS[command])
    if unknown:
        raise ValidationError(f"config: unknown key(s) for {command}: {', '.join(unknown)}")


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


_REQUIRED = object()


def _get(cfg: dict, key: str, cast, default=_REQUIRED):
    """``cast(cfg[key])``, or ``default`` when the key is absent.  A missing
    required key, or a value ``cast`` rejects, is bad input (exit 2)."""
    if key not in cfg:
        if default is _REQUIRED:
            raise ValidationError(f"config: missing required key '{key}'")
        return default
    try:
        return cast(cfg[key])
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"config: bad value for '{key}': {cfg[key]!r}") from exc


def _present(cfg: dict, casts: dict) -> dict:
    """The keys of ``casts`` that ``cfg`` sets, each cast; an absent key keeps
    the default of the dataclass the result is passed to."""
    return {key: _get(cfg, key, cast) for key, cast in casts.items() if key in cfg}


def _int(value) -> int:
    """An integer value: a boolean or a non-integral number is rejected, an
    integral float such as ``1e3`` is accepted."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _dtype(name) -> type:
    if name not in DTYPES:
        raise ValidationError(f"config: dtype must be one of {', '.join(DTYPES)}, got {name!r}")
    return DTYPES[name]


def _times(value) -> list[float]:
    return [float(t) for t in str(value).split(",")]


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
    params = make_params(_get(cfg, "dim", _int), _get(cfg, "sigma", float), _get(cfg, "b", float))
    grid = grid_for(params, _get(cfg, "extent", float), _get(cfg, "n", _int))
    return params, grid


_POLICY_KEYS = {
    "dt0": float, "c_dt": float, "t_end": float, "theta": float,
    "sample_every": _int, "snapshot_every": _int,
}


def _policy(cfg: dict, snapshots_flag: int | None) -> StepPolicy:
    kwargs = _present(cfg, _POLICY_KEYS)
    if snapshots_flag is not None:
        kwargs["snapshot_every"] = snapshots_flag
    return StepPolicy(**kwargs)


def _family(cfg: dict) -> SFamilyParams:
    """The blow-up family member set by the family_* keys."""
    return SFamilyParams(
        T=_get(cfg, "family_T", float, 1.0),
        lam=_get(cfg, "family_lambda", float, 1.0),
        gamma=_get(cfg, "family_gamma", float, 0.0),
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_ground_state(cfg, out, seed, snapshots):
    params, grid = _params_grid(cfg)
    _setup(cfg, out, params, grid, "ground_state")
    opts = SolverOptions(**_present(cfg, {"dtype": _dtype, "max_iter": _int}))
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
    kind = _get(cfg, "initial", str)
    if kind == "ground_state_multiple":
        c = _get(cfg, "initial_c", float, 1.0)
        gs = solve_ground_state(params, grid)
        return gs.profile.with_values(c * gs.profile.values.astype(complex))
    if kind == "gaussian":
        amp = _get(cfg, "initial_amplitude", float, 1.0)
        width = _get(cfg, "initial_width", float, 1.0)
        vals = amp * np.exp(-grid.nodes ** 2 / (2.0 * width ** 2)).astype(complex)
        return Field(vals, grid, params)
    if kind == "s_family":
        fam, t0 = _family(cfg), _get(cfg, "family_t0", float, 0.0)
        return s_profile(fam, solve_ground_state(params, grid), t0)
    if kind == "file":
        return read_field(_input_file(_get(cfg, "initial_path", str)), grid, params)
    raise ValidationError(f"config: unknown initial '{kind}'")


def cmd_evolve(cfg, out, seed, snapshots):
    params, grid = _params_grid(cfg)
    _setup(cfg, out, params, grid, "evolve")
    u0 = _initial_field(cfg, params, grid, out)
    policy = _policy(cfg, snapshots)
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


def cmd_analyze(cfg, out, seed, snapshots):
    run_dir = Path(_get(cfg, "run_dir", str))
    manifest = json.loads(_input_file(run_dir / "manifest.json").read_text())
    params, grid = params_grid_from_manifest(manifest)
    _setup(cfg, out, params, grid, "analyze")
    traj = trajectory_from_csv(_input_file(run_dir / "trajectory.csv"))
    snap_dir = run_dir / "snapshots"
    if snap_dir.exists():
        attach_snapshots(traj, snap_dir, grid, params)
    fit = estimate_blowup_time(traj, params.s_c)
    rows = ["t,T_hat_minus_t,grad_norm,window_radius,concentration"]
    verdicts = {"rate_exponent_below_bound": fit.exponent <= -(1.0 - params.s_c) / 2.0 + 0.05}
    floor, series = None, []
    snaps = traj.snapshots()
    if params.mass_critical and snaps:
        series = mass_concentration_series(traj, _get(cfg, "alpha", float, 0.25), fit)
        floor = min(r.value for r in series)
        verdicts["final_window_mass"] = series[-1].value
    elif params.intercritical and snaps:
        series = sigma_c_window_series(traj, fit, _get(cfg, "mode", str, "fint"),
                                       **_present(cfg, {"c0": float, "c0_tilde": float}))
        floor = series[-1].running_extreme
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


def cmd_verify(cfg, out, seed, snapshots):
    params, grid = _params_grid(cfg)
    _setup(cfg, out, params, grid, "verify")
    trials = _get(cfg, "trials", _int, 1000)
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


def cmd_exact(cfg, out, seed, snapshots):
    params, grid = _params_grid(cfg)
    _setup(cfg, out, params, grid, "exact")
    fam, times = _family(cfg), _get(cfg, "times", _times, [0.0])
    gs = solve_ground_state(params, grid)
    for i, t in enumerate(times):
        fld = s_profile(fam, gs, t)
        write_field(out / f"s_profile_{i:03d}.fld", fld)
        print(f"s_profile t={t}: mass={fn.mass(fld):.8f}")
    return 0


def cmd_reproduce(cfg, out, seed, snapshots):
    name = _get(cfg, "name", str)
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
        _check_config_keys(cfg, args.command)
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
