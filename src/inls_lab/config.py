"""Run configurations, one description of a run for the CLI and the acceptance
suite: each subcommand's keys, their resolution, and what a config builds."""

from __future__ import annotations

import inspect
import math
from dataclasses import fields

import numpy as np

from .analysis import WINDOW_MODES, sigma_c_window_series
from .core import Field, grid_for, make_params
from .errors import ValidationError
from .evolution import STRANG, SUZUKI4, StepPolicy
from .exact import SFamilyParams, s_profile
from .fieldio import integral, read_field
from .ground_state import solve_ground_state


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

WEIGHTS = {"strang": STRANG, "suzuki4": SUZUKI4}    # the ``weights`` key's compositions

# Per subcommand, every key it reads: key -> (cast, default).  A key without a
# default is required; any key not listed is a typo or belongs elsewhere.
_GRID = {"dim": (integral,), "sigma": (_finite,), "b": (_finite,), "extent": (_finite_positive,),
         "n": (integral,)}
_FAMILY = {"family_T": (_finite_positive, 1.0), "family_lambda": (_finite_positive, 1.0),
           "family_gamma": (_finite, SFamilyParams.gamma)}
SCHEMAS = {
    # dtype, recorded in the manifest, selects nothing: older configs still run
    "ground-state": {**_GRID, "dtype": (_one_of("float64", "longdouble"), "float64"),
                     **_defaults(solve_ground_state, max_iter=_count)},
    "evolve": {
        **_GRID, **_FAMILY,
        "initial": (_one_of("ground_state_multiple", "gaussian", "s_family", "file"),),
        "initial_c": (_finite, 1.0), "initial_amplitude": (_finite, 1.0),
        "initial_width": (_finite_positive, 1.0), "initial_path": (str, None),
        "family_t0": (_finite, 0.0),
        **_defaults(StepPolicy, dt0=_finite, c_dt=_finite, t_end=_finite, theta=_finite,
                    sample_every=integral, snapshot_every=integral),
        "weights": (_one_of(*WEIGHTS), "strang"),
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
    """``raw`` (key -> value, as text or as the value) as ``command`` reads it: each
    value cast once and each absent key given its default.  An unknown key, a
    missing required key or a value its cast rejects is bad input (exit 2)."""
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


def params_grid(cfg: dict):
    """The problem parameters and the grid of a config's grid keys."""
    params = make_params(cfg["dim"], cfg["sigma"], cfg["b"])
    return params, grid_for(params, cfg["extent"], cfg["n"])


def family(cfg: dict) -> SFamilyParams:
    """The config's blow-up family, which exists on mass-critical params only."""
    params = make_params(cfg["dim"], cfg["sigma"], cfg["b"])
    if not params.mass_critical:
        raise ValidationError(f"config: the blow-up family needs 'sigma' = (2 - b)/dim = "
                              f"{(2.0 - params.b) / params.dim!r}, got {params.sigma!r}")
    return SFamilyParams(cfg["family_T"], cfg["family_lambda"], cfg["family_gamma"])


def step_policy(cfg: dict) -> StepPolicy:
    """The march of an evolve config; ``weights`` names the composition."""
    keys = [f.name for f in fields(StepPolicy) if f.name != "weights"]
    return StepPolicy(**{key: cfg[key] for key in keys}, weights=WEIGHTS[cfg["weights"]])


def initial_field(cfg: dict, solve) -> Field:
    """An evolve config's initial field.  The ``s_family`` and
    ``ground_state_multiple`` fields lie on the grid of ``solve(cfg)``, the
    ground state on the config's grid keys, called after every config check."""
    kind = cfg["initial"]
    if kind == "s_family":     # the family is checked first: the arguments run in order
        return s_profile(family(cfg), solve(cfg), cfg["family_t0"])
    if kind == "ground_state_multiple":
        gs = solve(cfg)
        return gs.profile.with_values(cfg["initial_c"] * gs.profile.values.astype(complex))
    params, grid = params_grid(cfg)
    if kind == "gaussian":
        amp, width = cfg["initial_amplitude"], cfg["initial_width"]
        vals = amp * np.exp(-grid.nodes ** 2 / (2.0 * width ** 2)).astype(complex)
        return Field(vals, grid, params)
    if cfg["initial_path"] is None:
        raise ValidationError("config: initial = file needs key 'initial_path'")
    return read_field(cfg["initial_path"], grid, params)


__all__ = ["SCHEMAS", "WEIGHTS", "resolve_config", "params_grid", "family", "step_policy",
           "initial_field"]
