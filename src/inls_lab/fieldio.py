"""On-disk formats: binary fields, grid/params manifests, trajectory CSV.
The readers raise ValidationError on malformed content, text that is not
UTF-8 included, and ``read_field`` and ``trajectory_from_csv`` on a value
that is not finite; a file that cannot be read at all raises its OSError.

Field binary layout (little endian): 32-byte header = 8-byte magic
"INLSFLD1", u64 node count, 8-byte geometry tag ("line" / "radial", zero
padded), 8 reserved zero bytes; then n interleaved (re, im) float64 pairs.
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import Field, Grid, ProblemParams, grid_for, make_params
from .errors import ValidationError
from .evolution import Trajectory, TrajectorySample

MAGIC = b"INLSFLD1"
GEOMETRIES = ("line", "radial")    # the geometry tags a field binary carries
CSV_COLUMNS = ("t", "dt", "mass", "energy", "grad_norm_sq", "variance", "boundary_frac")
# the TrajectorySample fields behind the columns, in column order
_SAMPLE_FIELDS = [f.name for f in fields(TrajectorySample)][:len(CSV_COLUMNS)]


def write_field(path, field: Field) -> None:
    if field.grid.geometry not in GEOMETRIES:
        raise ValidationError(f"a field binary has no tag for a {field.grid.geometry} grid")
    path = Path(path)
    tag = field.grid.geometry.encode().ljust(8, b"\0")
    header = MAGIC + struct.pack("<Q", field.grid.n) + tag + b"\0" * 8
    path.write_bytes(header + field.values.astype("<c16").tobytes())


def read_field_values(path) -> tuple[np.ndarray, str]:
    raw = Path(path).read_bytes()
    if len(raw) < 32 or raw[:8] != MAGIC:
        raise ValidationError(f"{path}: not a field binary (bad magic)")
    (n,) = struct.unpack("<Q", raw[8:16])
    tag = raw[16:24].rstrip(b"\0")
    if tag.decode("latin-1") not in GEOMETRIES:
        raise ValidationError(f"{path}: unknown geometry tag {tag!r}")
    expected = 32 + 16 * n
    if len(raw) != expected:
        raise ValidationError(f"{path}: expected {expected} bytes for n={n}, got {len(raw)}")
    # the (re, im) pairs read as complex directly: summing re + 1j*im would
    # turn -0.0 into 0.0 and an infinite imaginary part into a NaN real part
    return np.frombuffer(raw, dtype="<c16", offset=32).astype(complex), tag.decode()


def read_field(path, grid: Grid, params: ProblemParams) -> Field:
    vals, tag = read_field_values(path)
    if tag != grid.geometry:
        raise ValidationError(f"{path}: geometry {tag!r} does not match grid {grid.geometry!r}")
    if len(vals) != grid.n:
        raise ValidationError(f"{path}: n={len(vals)} does not match grid n={grid.n}")
    if not np.isfinite(vals).all():
        raise ValidationError(f"{path}: holds a value that is not finite")
    return Field(vals, grid, params)


def write_manifest(path, params: ProblemParams, grid: Grid, **extra) -> None:
    doc = {"dim": params.dim, "sigma": params.sigma, "b": params.b, "geometry": grid.geometry,
           "L_or_Rmax": grid.extent, "n": grid.n, **extra}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_text(path) -> str:
    """The UTF-8 text in ``path``; bytes that do not decode are bad input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc


def _read_json(path):
    """The JSON document in ``path``; text that is not JSON is bad input."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"{path}: not a JSON document ({exc})") from exc


def integral(value) -> int:
    """``value`` as an integer: ``256``, ``"1e3"`` and ``2.0`` are accepted; a
    bool, ``256.7``, ``inf`` and ``"two"`` are rejected with ``ValueError``."""
    if isinstance(value, bool):
        raise ValueError("a bool is not an integer")
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    if not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def read_manifest(path) -> tuple[ProblemParams, Grid]:
    """The problem parameters and grid recorded in the manifest at ``path``."""
    return params_grid_from_manifest(_read_json(path))


def params_grid_from_manifest(doc: dict) -> tuple[ProblemParams, Grid]:
    try:
        params = make_params(integral(doc["dim"]), float(doc["sigma"]), float(doc["b"]))
        grid = grid_for(params, float(doc["L_or_Rmax"]), integral(doc["n"]))
    except KeyError as exc:
        raise ValidationError(f"manifest missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"manifest has a malformed grid or parameter value ({exc})") from exc
    if doc.get("geometry") and doc["geometry"] != grid.geometry:
        raise ValidationError(
            f"manifest geometry {doc['geometry']!r} inconsistent with dim={doc['dim']}"
        )
    return params, grid


# ---------------------------------------------------------------------------
# trajectory CSV + snapshot sidecars


def trajectory_to_csv(traj: Trajectory, path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(repr(getattr(s, name)) for name in _SAMPLE_FIELDS) for s in traj.samples]
    Path(path).write_text("\n".join(lines) + "\n")


def trajectory_from_csv(path) -> Trajectory:
    text = read_text(path).strip().splitlines()
    if not text or text[0].split(",") != list(CSV_COLUMNS):
        raise ValidationError(f"{path}: unexpected trajectory CSV header")
    traj = Trajectory()
    for lineno, line in enumerate(text[1:], 2):
        try:
            vals = [float(v) for v in line.split(",")]
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: non-numeric trajectory row") from exc
        if len(vals) != len(CSV_COLUMNS):
            raise ValidationError(
                f"{path}:{lineno}: expected {len(CSV_COLUMNS)} values, got {len(vals)}"
            )
        for name, v in zip(CSV_COLUMNS, vals):
            if not np.isfinite(v):      # evolve never records one
                raise ValidationError(f"{path}:{lineno}: {name} = {v} is not finite")
        traj.samples.append(TrajectorySample(*vals))
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
    index = _read_json(snap_dir / "snapshots.json")
    try:
        entries = [(snap_dir / entry["file"], float(entry["time"])) for entry in index]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{snap_dir / 'snapshots.json'}: malformed snapshot index") from exc
    if not np.isfinite([t for _, t in entries]).all():
        raise ValidationError(f"{snap_dir / 'snapshots.json'}: a snapshot time is not finite")
    if entries and not traj.samples:
        raise ValidationError(f"{snap_dir}: snapshots but no trajectory samples to attach them to")
    times = traj.times()
    for path, t in entries:
        fld = read_field(path, grid, params)
        j = int(np.argmin(np.abs(times - t)))
        traj.samples[j].snapshot = fld


__all__ = [
    "MAGIC", "CSV_COLUMNS", "read_text",
    "write_field", "read_field", "read_field_values",
    "write_manifest", "read_manifest", "params_grid_from_manifest",
    "trajectory_to_csv", "trajectory_from_csv",
    "write_snapshots", "attach_snapshots",
]
