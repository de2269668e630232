"""On-disk formats: binary fields, grid/params manifests, trajectory CSV.

Field binary layout (little endian): 32-byte header = 8-byte magic
"INLSFLD1", u64 node count, 8-byte geometry tag ("line" / "radial", zero
padded), 8 reserved zero bytes; then n interleaved (re, im) float64 pairs.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .core import Field, Grid, ProblemParams, grid_for, make_params
from .errors import ValidationError
from .evolution import Trajectory, TrajectorySample

MAGIC = b"INLSFLD1"
CSV_COLUMNS = ("t", "dt", "mass", "energy", "grad_norm_sq", "variance", "boundary_frac")


def write_field(path, field: Field) -> None:
    path = Path(path)
    tag = field.grid.geometry.encode().ljust(8, b"\0")
    header = MAGIC + struct.pack("<Q", field.grid.n) + tag + b"\0" * 8
    path.write_bytes(header + field.values.astype("<c16").tobytes())


def read_field_values(path) -> tuple[np.ndarray, str]:
    raw = Path(path).read_bytes()
    if len(raw) < 32 or raw[:8] != MAGIC:
        raise ValidationError(f"{path}: not a field binary (bad magic)")
    (n,) = struct.unpack("<Q", raw[8:16])
    tag = raw[16:24].rstrip(b"\0").decode()
    expected = 32 + 16 * n
    if len(raw) != expected:
        raise ValidationError(f"{path}: expected {expected} bytes for n={n}, got {len(raw)}")
    # the (re, im) pairs read as complex directly: summing re + 1j*im would
    # turn -0.0 into 0.0 and an infinite imaginary part into a NaN real part
    return np.frombuffer(raw, dtype="<c16", offset=32).astype(complex), tag


def read_field(path, grid: Grid, params: ProblemParams) -> Field:
    vals, tag = read_field_values(path)
    if tag != grid.geometry:
        raise ValidationError(f"{path}: geometry {tag!r} does not match grid {grid.geometry!r}")
    if len(vals) != grid.n:
        raise ValidationError(f"{path}: n={len(vals)} does not match grid n={grid.n}")
    return Field(vals, grid, params)


def manifest_dict(params: ProblemParams, grid: Grid) -> dict:
    return {
        "dim": params.dim,
        "sigma": params.sigma,
        "b": params.b,
        "geometry": grid.geometry,
        "L_or_Rmax": grid.extent,
        "n": grid.n,
    }


def write_manifest(path, params: ProblemParams, grid: Grid, **extra) -> None:
    doc = manifest_dict(params, grid)
    doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def params_grid_from_manifest(doc: dict) -> tuple[ProblemParams, Grid]:
    try:
        params = make_params(int(doc["dim"]), float(doc["sigma"]), float(doc["b"]))
        grid = grid_for(params, float(doc["L_or_Rmax"]), int(doc["n"]))
    except KeyError as exc:
        raise ValidationError(f"manifest missing key {exc}") from exc
    if doc.get("geometry") and doc["geometry"] != grid.geometry:
        raise ValidationError(
            f"manifest geometry {doc['geometry']!r} inconsistent with dim={doc['dim']}"
        )
    return params, grid


# ---------------------------------------------------------------------------
# trajectory CSV + snapshot sidecars


def trajectory_to_csv(traj: Trajectory, path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for s in traj.samples:
        lines.append(
            ",".join(
                repr(v) for v in (
                    s.time, s.dt, s.mass, s.energy, s.grad_norm_sq, s.variance, s.boundary_frac
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def trajectory_from_csv(path) -> Trajectory:
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0].split(",") != list(CSV_COLUMNS):
        raise ValidationError(f"{path}: unexpected trajectory CSV header")
    traj = Trajectory()
    for line in text[1:]:
        vals = [float(v) for v in line.split(",")]
        traj.samples.append(TrajectorySample(*vals))
    if traj.samples:
        traj.initial_mass = traj.samples[0].mass
    return traj


def write_snapshots(traj: Trajectory, out_dir) -> list[dict]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = []
    for i, s in enumerate(traj.snapshots()):
        name = f"snap_{i:05d}.fld"
        write_field(out_dir / name, s.snapshot)
        index.append({"time": s.time, "file": name})
    (out_dir / "snapshots.json").write_text(json.dumps(index, indent=2) + "\n")
    return index


def attach_snapshots(traj: Trajectory, snap_dir, grid: Grid, params: ProblemParams) -> None:
    """Re-attach snapshot fields (written by write_snapshots) to the nearest
    trajectory samples by time."""
    snap_dir = Path(snap_dir)
    index = json.loads((snap_dir / "snapshots.json").read_text())
    times = traj.times()
    for entry in index:
        fld = read_field(snap_dir / entry["file"], grid, params)
        j = int(np.argmin(np.abs(times - entry["time"])))
        traj.samples[j].snapshot = fld


__all__ = [
    "MAGIC", "CSV_COLUMNS",
    "write_field", "read_field", "read_field_values",
    "manifest_dict", "write_manifest", "params_grid_from_manifest",
    "trajectory_to_csv", "trajectory_from_csv",
    "write_snapshots", "attach_snapshots",
]
