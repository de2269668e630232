import json
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from inls_lab import Field, StepPolicy, ValidationError, evolve, make_params
from inls_lab.core import line_grid, radial_grid
from inls_lab.evolution import Trajectory, TrajectorySample
from inls_lab.exact import standing_wave
from inls_lab.fieldio import (
    CSV_COLUMNS, MAGIC, attach_snapshots,
    params_grid_from_manifest, read_field, read_field_values,
    trajectory_from_csv, trajectory_to_csv, write_field, write_manifest,
    write_snapshots,
)


def test_field_binary_roundtrip_line(tmp_path, mc_line, rng):
    params, grid = mc_line
    vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    u = Field(vals, grid, params)
    write_field(tmp_path / "u.fld", u)
    back = read_field(tmp_path / "u.fld", grid, params)
    assert np.array_equal(back.values, vals)


def test_field_binary_roundtrip_radial(tmp_path, ic_radial, rng):
    params, grid = ic_radial
    vals = (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    write_field(tmp_path / "u.fld", Field(vals, grid, params))
    got, tag = read_field_values(tmp_path / "u.fld")
    assert tag == "radial"
    assert np.array_equal(got, vals)


def test_field_binary_header_layout(tmp_path, mc_line):
    params, grid = mc_line
    write_field(tmp_path / "u.fld", Field(np.zeros(grid.n, dtype=complex), grid, params))
    raw = (tmp_path / "u.fld").read_bytes()
    assert raw[:8] == MAGIC == b"INLSFLD1"
    assert len(raw) == 32 + 16 * grid.n
    assert raw[16:24].rstrip(b"\0") == b"line"


def test_field_binary_rejects_corruption(tmp_path, mc_line):
    params, grid = mc_line
    path = tmp_path / "u.fld"
    write_field(path, Field(np.zeros(grid.n, dtype=complex), grid, params))
    raw = bytearray(path.read_bytes())
    raw[0] = 0x58
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError, match="magic"):
        read_field_values(path)
    path.write_bytes(bytes(raw[:40]))
    with pytest.raises(ValidationError):
        read_field_values(path)


def test_half_grid_field_is_rejected_before_writing(tmp_path, mc_line):
    """A half-grid field has no geometry tag ("half_line" would overrun its 8
    bytes and give an unreadable file): bad input, and no file is written."""
    params, grid = mc_line
    half = grid.half
    with pytest.raises(ValidationError, match="half_line"):
        write_field(tmp_path / "u.fld", Field(np.zeros(half.n, dtype=complex), half, params))
    assert not (tmp_path / "u.fld").exists()


def test_geometry_mismatch_rejected(tmp_path, mc_line, ic_radial):
    p1, g1 = mc_line
    p2, g2 = ic_radial
    write_field(tmp_path / "u.fld", Field(np.zeros(g1.n, dtype=complex), g1, p1))
    with pytest.raises(ValidationError):
        read_field(tmp_path / "u.fld", g2, p2)


def test_manifest_roundtrip(tmp_path):
    params = make_params(2, 0.75, 0.5)
    grid = radial_grid(2, 14.0, 512, 0.5)
    write_manifest(tmp_path / "manifest.json", params, grid, experiment="x")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert set(doc) >= {"dim", "sigma", "b", "geometry", "L_or_Rmax", "n"}
    p2, g2 = params_grid_from_manifest(doc)
    assert p2 == params
    assert g2.n == grid.n and g2.extent == grid.extent and g2.geometry == "radial"


def test_manifest_missing_key(tmp_path):
    with pytest.raises(ValidationError):
        params_grid_from_manifest({"dim": 1, "sigma": 1.5})


def test_trajectory_csv_roundtrip_and_determinism(tmp_path, quintic_gs):
    u0 = standing_wave(quintic_gs, 0.0)
    traj = evolve(u0, StepPolicy(dt0=1e-3, c_dt=1e9, theta=1e9, t_end=0.02, sample_every=5))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    trajectory_to_csv(traj, p1)
    trajectory_to_csv(traj, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
    back = trajectory_from_csv(p1)
    assert len(back.samples) == len(traj.samples)
    assert back.times()[-1] == traj.times()[-1]
    assert back.samples[3].mass == traj.samples[3].mass


def test_snapshot_write_and_attach(tmp_path, quintic_gs):
    u0 = standing_wave(quintic_gs, 0.0)
    traj = evolve(u0, StepPolicy(dt0=1e-3, c_dt=1e9, theta=1e9, t_end=0.02,
                                 sample_every=5, snapshot_every=1))
    trajectory_to_csv(traj, tmp_path / "trajectory.csv")
    index = write_snapshots(traj, tmp_path / "snapshots")
    assert len(index) == len(traj.snapshots())
    bare = trajectory_from_csv(tmp_path / "trajectory.csv")
    attach_snapshots(bare, tmp_path / "snapshots", u0.grid, u0.params)
    assert len(bare.snapshots()) == len(index)
    orig = traj.snapshots()[0].snapshot.values
    assert np.array_equal(bare.snapshots()[0].snapshot.values, orig)


GRIDS = {
    "line": (make_params(1, 2.0, 0.0), line_grid(8.0, 16)),
    "radial": (make_params(2, 1.0, 0.5), radial_grid(2, 8.0, 16, 0.5)),
}
# every float64 but NaN: signed zeros, subnormals and infinities must survive
floats = st.floats(allow_nan=False, width=64)


@settings(max_examples=60, deadline=None)
@given(geometry=st.sampled_from(sorted(GRIDS)), kind=st.sampled_from(["real", "complex"]),
       data=st.data())
def test_field_binary_round_trip_property(tmp_path_factory, geometry, kind, data):
    params, grid = GRIDS[geometry]
    draw = lambda: data.draw(hnp.arrays(np.float64, grid.n, elements=floats))
    if kind == "real":
        vals = draw()
    else:               # re + 1j*im would itself lose -0.0 and inf parts
        vals = np.empty(grid.n, dtype=complex)
        vals.real, vals.imag = draw(), draw()
    path = tmp_path_factory.mktemp("fld") / "u.fld"
    write_field(path, Field(vals, grid, params))
    back, tag = read_field_values(path)
    assert tag == geometry and back.dtype == complex
    assert np.array_equal(back.real, np.real(vals))
    assert np.array_equal(back.imag, np.imag(vals))
    assert np.array_equal(np.signbit(back.real), np.signbit(np.real(vals)))
    assert np.array_equal(np.signbit(back.imag), np.signbit(np.imag(vals)))
    # the field reader takes the same values, or rejects an infinite one
    if np.isfinite(vals).all():
        assert np.array_equal(read_field(path, grid, params).values, back)
    else:
        with pytest.raises(ValidationError, match="not finite"):
            read_field(path, grid, params)


# a trajectory row holds finite values only (the reader rejects the others)
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
sample_rows = st.lists(st.tuples(*[finite_floats] * len(CSV_COLUMNS)),
                       min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(rows=sample_rows)
def test_trajectory_csv_round_trip_property(tmp_path_factory, rows):
    traj = Trajectory(samples=[TrajectorySample(*row) for row in rows])
    path = tmp_path_factory.mktemp("csv") / "trajectory.csv"
    trajectory_to_csv(traj, path)
    back = trajectory_from_csv(path)
    assert [astuple(s)[:len(CSV_COLUMNS)] for s in back.samples] == rows
    assert back.initial_mass == rows[0][2]


@settings(max_examples=10, deadline=None)
@given(geometry=st.sampled_from(sorted(GRIDS)), kind=st.sampled_from(["real", "complex"]),
       amplitude=st.floats(min_value=0.1, max_value=1.5))
def test_evolved_trajectory_csv_and_snapshots_round_trip(tmp_path_factory, geometry, kind,
                                                         amplitude):
    params, grid = GRIDS[geometry]
    vals = amplitude * np.exp(-grid.nodes ** 2 / 2)
    u0 = Field(vals if kind == "real" else vals * np.exp(0.3j * grid.nodes), grid, params)
    traj = evolve(u0, StepPolicy(dt0=1e-2, c_dt=1e9, theta=1e9, t_end=0.1,
                                 sample_every=3, snapshot_every=1))
    out = tmp_path_factory.mktemp("run")
    trajectory_to_csv(traj, out / "trajectory.csv")
    write_snapshots(traj, out / "snapshots")
    back = trajectory_from_csv(out / "trajectory.csv")
    attach_snapshots(back, out / "snapshots", grid, params)
    for s, b in zip(traj.samples, back.samples, strict=True):
        assert astuple(b)[:len(CSV_COLUMNS)] == astuple(s)[:len(CSV_COLUMNS)]
        assert np.array_equal(b.snapshot.values, s.snapshot.values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_snapshot_time_is_rejected(tmp_path, bad):
    """A snapshot time that is not finite is nearest to no sample: the index is
    rejected, not attached by argmin to the first sample."""
    params, grid = GRIDS["line"]
    u0 = Field(np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    traj = evolve(u0, StepPolicy(dt0=1e-2, c_dt=1e9, theta=1e9, t_end=0.05,
                                 sample_every=1, snapshot_every=2))
    trajectory_to_csv(traj, tmp_path / "trajectory.csv")
    index = write_snapshots(traj, tmp_path / "snapshots")
    back = trajectory_from_csv(tmp_path / "trajectory.csv")
    attach_snapshots(back, tmp_path / "snapshots", grid, params)
    assert [s.time for s in back.snapshots()] == [entry["time"] for entry in index]
    index[-1]["time"] = bad
    (tmp_path / "snapshots" / "snapshots.json").write_text(json.dumps(index))  # NaN, Infinity
    with pytest.raises(ValidationError, match="not finite"):
        attach_snapshots(trajectory_from_csv(tmp_path / "trajectory.csv"),
                         tmp_path / "snapshots", grid, params)


def test_mass_drift_survives_the_csv_round_trip(tmp_path, plain_line, leaky_flow):
    params, grid = plain_line
    u0 = Field(0.3 * np.exp(-grid.nodes ** 2 / 2).astype(complex), grid, params)
    traj = evolve(u0, StepPolicy(dt0=0.01, c_dt=1e9, theta=1e9, t_end=0.1))
    trajectory_to_csv(traj, tmp_path / "trajectory.csv")
    back = trajectory_from_csv(tmp_path / "trajectory.csv")
    assert traj.mass_drift_flag is back.mass_drift_flag is True
    assert back.initial_mass == traj.initial_mass
