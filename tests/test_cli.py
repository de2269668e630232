import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inls_lab
from inls_lab import cli
from inls_lab.cli import _params_grid, main, parse_config, resolve_config
from inls_lab.core import Field, grid_for, make_params
from inls_lab.errors import ValidationError
from inls_lab.fieldio import (
    CSV_COLUMNS, read_field, trajectory_from_csv, write_field, write_manifest,
)
from inls_lab.ground_state import solve_ground_state
from inls_lab.inequalities import InequalityReport
from inls_lab import functionals as fn


def write_cfg(path, **kv):
    path.write_text("\n".join(f"{k} = {v}" for k, v in kv.items()) + "\n")
    return str(path)


def test_parse_config_types(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("a = 3\nb = 0.5  # trailing comment\nname = hello\nflag = true\n\n# comment\n")
    cfg = parse_config(str(p))
    assert cfg == {"a": "3", "b": "0.5", "name": "hello", "flag": "true"}


def test_parse_config_rejects_garbage(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("not a key value line\n")
    with pytest.raises(ValidationError):
        parse_config(str(p))


def test_ground_state_subcommand(tmp_path):
    cfg = write_cfg(tmp_path / "gs.cfg", dim=1, sigma=2.0, b=0.0, extent=16.0, n=2048)
    out = tmp_path / "run"
    rc = main(["ground-state", "--config", cfg, "--out", str(out)])
    assert rc == 0
    sidecar = json.loads((out / "ground_state.json").read_text())
    assert sidecar["pohozaev_r1"] < 1e-6
    # a float64 solve is all float64 phase
    assert sidecar["float64_iterations"] == sidecar["iterations"] > 0
    assert sidecar["longdouble_iterations"] == 0
    assert (out / "Q.fld").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "ground_state"
    assert "git_hash" in manifest and "versions" in manifest
    assert manifest["config"]["dtype"] == "float64"
    assert manifest["config"]["max_iter"] == 2000


def test_malformed_config_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", dim=1, sigma=1.5, b=2.5, extent=12.0, n=256)
    rc = main(["ground-state", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "b" in capsys.readouterr().err


def test_missing_key_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", dim=1, sigma=1.5)
    rc = main(["ground-state", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "b" in err or "extent" in err


def test_evolve_subcommand_and_determinism(tmp_path):
    cfg = write_cfg(
        tmp_path / "ev.cfg",
        dim=1, sigma=2.0, b=0.0, extent=16.0, n=1024,
        initial="gaussian", initial_amplitude=0.3, initial_width=1.0,
        dt0=1e-3, c_dt=1e6, theta=1e6, t_end=0.05, sample_every=5,
    )
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = main(["evolve", "--config", cfg, "--out", str(out), "--seed", "7"])
        assert rc == 0
        outs.append((out / "trajectory.csv").read_bytes())
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "t_end"
        assert not summary["mass_drift_flag"]
    assert outs[0] == outs[1]


def test_evolve_with_snapshots_then_analyze(tmp_path):
    cfg = write_cfg(
        tmp_path / "ev.cfg",
        dim=1, sigma=2.0, b=0.0, extent=20.0, n=4096,
        initial="ground_state_multiple", initial_c=1.05,
        dt0=5e-4, c_dt=5e-3, theta=0.15, t_end=10.0,
        sample_every=10, snapshot_every=40,
    )
    run = tmp_path / "run"
    rc = main(["evolve", "--config", cfg, "--out", str(run)])
    assert rc == 0
    assert (run / "snapshots" / "snapshots.json").exists()
    summary = json.loads((run / "summary.json").read_text())
    assert summary["termination"] == "resolution_limit"

    an_cfg = write_cfg(tmp_path / "an.cfg", run_dir=str(run), alpha=0.25)
    out = tmp_path / "analysis"
    rc = main(["analyze", "--config", an_cfg, "--out", str(out)])
    assert rc == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["T_hat"] > summary["final"]["t"]
    assert (out / "analysis.csv").read_text().startswith("t,")


def test_exact_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path / "ex.cfg",
        dim=1, sigma=2.0, b=0.0, extent=16.0, n=2048,
        family_T=1.0, family_lambda=1.0, family_gamma=0.0,
        times="0.0,0.5",
    )
    out = tmp_path / "exact"
    rc = main(["exact", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert (out / "s_profile_000.fld").exists()
    assert (out / "s_profile_001.fld").exists()


def test_evolve_from_s_family(tmp_path):
    # at family_t0 = 0 with T = lambda = 1 the initial field is exp(i) Q
    cfg = write_cfg(
        tmp_path / "ev.cfg",
        dim=1, sigma=2.0, b=0.0, extent=16.0, n=1024,
        initial="s_family", family_T=1.0, family_lambda=1.0,
        dt0=1e-3, t_end=0.01, sample_every=5,
    )
    out = tmp_path / "run"
    rc = main(["evolve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    params = make_params(1, 2.0, 0.0)
    q_mass = fn.mass(solve_ground_state(params, grid_for(params, 16.0, 1024)).profile)
    first = trajectory_from_csv(out / "trajectory.csv").samples[0]
    assert first.time == 0.0
    assert first.mass == pytest.approx(q_mass, rel=1e-12)


def test_verify_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path / "v.cfg",
        dim=1, sigma=1.5, b=0.5, extent=15.0, n=1024, trials=40,
    )
    out = tmp_path / "verify"
    rc = main(["verify", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "inequality_gagliardo.json").read_text())
    assert rep["max_violation"] <= 1e-6
    assert (out / "inequality_banica.json").exists()


def test_verify_violation_exit_3_with_witness(tmp_path, capsys, monkeypatch):
    """A corpus that finds a violation: exit 3, VIOLATION printed, and its
    witness field written next to the report."""
    params = make_params(1, 1.5, 0.5)
    grid = grid_for(params, 15.0, 1024)
    witness = Field(np.exp(-grid.nodes ** 2 + 0.5j * grid.nodes), grid, params)
    monkeypatch.setattr(cli, "run_gagliardo_report", lambda *args, **kwargs: InequalityReport(
        "gagliardo", trials=1, max_violation=1e-3, witness=witness))
    cfg = write_cfg(tmp_path / "v.cfg", dim=1, sigma=1.5, b=0.5, extent=15.0, n=1024, trials=4)
    out = tmp_path / "verify"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    assert "gagliardo: max_violation=1.000e-03 [VIOLATION]" in capsys.readouterr().out
    assert not json.loads((out / "inequality_gagliardo.json").read_text())["passed"]
    back = read_field(out / "witness_gagliardo.fld", grid, params)
    assert np.array_equal(back.values, witness.values)


def test_evolve_reports_mass_drift(tmp_path, leaky_flow):
    cfg = write_cfg(tmp_path / "ev.cfg", dim=1, sigma=2.0, b=0.0, extent=16.0, n=256,
                    initial="gaussian", initial_amplitude=0.3, dt0=0.01, c_dt=1e9,
                    theta=1e9, t_end=0.1)
    out = tmp_path / "run"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "t_end"
    assert summary["mass_drift_flag"] is True


def test_numerical_failure_exit_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "gs.cfg", dim=1, sigma=1.5, b=0.5,
                    extent=12.0, n=512, max_iter=2)
    rc = main(["ground-state", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "converge" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    rc = main(["ground-state", "--config", str(missing), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "nope.cfg" in capsys.readouterr().err


def test_analyze_without_manifest_exit_2(tmp_path, capsys):
    run = tmp_path / "empty_run"
    run.mkdir()
    cfg = write_cfg(tmp_path / "an.cfg", run_dir=str(run))
    rc = main(["analyze", "--config", cfg, "--out", str(tmp_path / "an")])
    assert rc == 2
    assert "manifest.json" in capsys.readouterr().err


def test_analyze_without_trajectory_exit_2(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    params = make_params(1, 2.0, 0.0)
    write_manifest(run / "manifest.json", params, grid_for(params, 16.0, 256))
    cfg = write_cfg(tmp_path / "an.cfg", run_dir=str(run))
    out = tmp_path / "an"
    rc = main(["analyze", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "trajectory.csv" in capsys.readouterr().err
    assert not out.exists()


def _rewrite(*names_and_texts):
    """Overwrite run files with text (str) or raw bytes."""
    def corrupt(run):
        for name, text in zip(names_and_texts[::2], names_and_texts[1::2]):
            (run / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    return corrupt


def _remove(name):
    def corrupt(run):
        (run / name).unlink()
    return corrupt


def _manifest_with(**changes):
    def corrupt(run):
        doc = json.loads((run / "manifest.json").read_text())
        (run / "manifest.json").write_text(json.dumps({**doc, **changes}))
    return corrupt


HEADER, ROW = ",".join(CSV_COLUMNS), "0.0,0.001,1.0,0.5,1.0,1.0,0.0"
# |grad u|^2 = 1/(1 - t), sampled toward t = 1: a trajectory analyze can fit
FITTABLE = "".join(f"{1 - 2 ** (-i / 4)!r},0.001,1.0,0.5,{2 ** (i / 4)!r},1.0,0.0\n"
                   for i in range(40))
# a field binary of the right size for n = 256 whose geometry tag is not ASCII
BAD_TAG_FLD = b"INLSFLD1" + (256).to_bytes(8, "little") + b"lin\xe9" + bytes(12 + 16 * 256)
# a well-formed n = 256 line field binary whose first value is inf
INF_FLD = (b"INLSFLD1" + (256).to_bytes(8, "little") + b"line" + bytes(12)
           + np.r_[np.inf, np.ones(255)].astype("<c16").tobytes())


@pytest.mark.parametrize("command, corrupt", [
    pytest.param("analyze", _rewrite("manifest.json", "{not json"), id="manifest-not-json"),
    pytest.param("analyze", _manifest_with(dim="two"), id="manifest-dim-two"),
    pytest.param("analyze", _manifest_with(dim=None), id="manifest-dim-null"),
    pytest.param("analyze", _manifest_with(dim=1.9), id="manifest-dim-non-integral"),
    pytest.param("analyze", _manifest_with(dim=True), id="manifest-dim-bool"),
    pytest.param("analyze", _manifest_with(n=256.7), id="manifest-n-non-integral"),
    pytest.param("analyze", _rewrite("trajectory.csv", f"{HEADER}\n{ROW}\n0.1,x,1,1,1,1,0\n"),
                 id="trajectory-non-numeric-row"),
    pytest.param("analyze", _rewrite("trajectory.csv", f"{HEADER}\n{ROW}\n0.1,0.001\n"),
                 id="trajectory-short-row"),
    pytest.param("analyze", _rewrite("snapshots/snapshots.json", "[{"),
                 id="snapshot-index-not-json"),
    pytest.param("analyze", _rewrite("snapshots/snapshots.json", '[{"file": "s.fld"}]'),
                 id="snapshot-index-without-time"),
    pytest.param("analyze", _rewrite("trajectory.csv", f"{HEADER}\n", "snapshots/snapshots.json",
                                     '[{"file": "../u0.fld", "time": 0.0}]'),
                 id="snapshots-without-trajectory-rows"),
    pytest.param("analyze", _rewrite("trajectory.csv", f"{HEADER}\n{ROW}\n"),
                 id="trajectory-too-short-to-fit"),
    pytest.param("analyze", _remove("snapshots/snapshots.json"), id="snapshot-index-missing"),
    pytest.param("analyze", _rewrite("snapshots/snapshots.json", '[{"file": "no.fld", "time": 0}]'),
                 id="snapshot-file-missing"),
    pytest.param("analyze", _rewrite("snapshots/snapshots.json", '[{"file": ".", "time": 0}]'),
                 id="snapshot-file-is-directory"),
    pytest.param("analyze", _rewrite("trajectory.csv", f"{HEADER}\n{ROW}\n".encode() + b"\xff"),
                 id="trajectory-not-utf8"),
    pytest.param("analyze", _rewrite("snapshots/s.fld", BAD_TAG_FLD, "snapshots/snapshots.json",
                                     '[{"file": "s.fld", "time": 0}]'),
                 id="snapshot-tag-not-ascii"),
    pytest.param("evolve", _rewrite("u0.fld", "INLSFLD1 but not a field"), id="evolve-bad-fld"),
    pytest.param("evolve", _rewrite("u0.fld", BAD_TAG_FLD), id="evolve-fld-tag-not-ascii"),
    pytest.param("evolve", _remove("u0.fld"), id="evolve-fld-missing"),
    pytest.param("evolve", _rewrite("u0.fld", INF_FLD), id="evolve-fld-holds-inf"),
])
def test_malformed_run_input_exit_2(tmp_path, capsys, command, corrupt):
    """A malformed or unusable run input exits 2 before the output directory exists.
    Uncorrupted, the run is one analyze accepts, so each case fails on its own input."""
    run = tmp_path / "run"
    (run / "snapshots").mkdir(parents=True)
    params = make_params(1, 2.0, 0.0)
    grid = grid_for(params, 16.0, 256)
    write_manifest(run / "manifest.json", params, grid)
    (run / "trajectory.csv").write_text(f"{HEADER}\n{FITTABLE}")
    (run / "snapshots" / "snapshots.json").write_text("[]\n")
    write_field(run / "u0.fld", Field(np.ones(grid.n, dtype=complex), grid, params))
    corrupt(run)
    if command == "analyze":
        cfg = write_cfg(tmp_path / "an.cfg", run_dir=str(run))
    else:
        cfg = write_cfg(tmp_path / "ev.cfg", dim=1, sigma=2.0, b=0.0, extent=16.0, n=256,
                        initial="file", initial_path=str(run / "u0.fld"), t_end=0.01)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_inft_outside_its_regime_exit_2(tmp_path, capsys):
    """mode = inft on an N = 1 run has no decomposition radius: analyze exits 2
    before the output directory exists."""
    run = tmp_path / "run"
    (run / "snapshots").mkdir(parents=True)
    params = make_params(1, 3.0, 0.0)
    grid = grid_for(params, 16.0, 256)
    write_manifest(run / "manifest.json", params, grid)
    (run / "trajectory.csv").write_text(f"{HEADER}\n{FITTABLE}")
    write_field(run / "snapshots" / "s.fld",
                Field(np.exp(-grid.nodes ** 2).astype(complex), grid, params))
    (run / "snapshots" / "snapshots.json").write_text('[{"file": "s.fld", "time": 0.0}]')
    cfg = write_cfg(tmp_path / "an.cfg", run_dir=str(run), mode="inft")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_out_naming_a_file_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "gs.cfg", dim=1, sigma=2.0, b=0.0, extent=16.0, n=256)
    out = tmp_path / "taken"
    out.write_text("keep\n")
    assert main(["ground-state", "--config", cfg, "--out", str(out)]) == 2
    assert "taken" in capsys.readouterr().err
    assert out.read_text() == "keep\n"


def test_config_not_utf8_exit_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("dim = 1  # d\u00e9j\u00e0\n".encode("latin-1"))
    out = tmp_path / "x"
    assert main(["ground-state", "--config", str(cfg), "--out", str(out)]) == 2
    assert "latin1.cfg" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_git_hash_is_the_package_checkout(tmp_path, monkeypatch):
    """The manifest records the commit of the code that ran, also when the run
    starts outside the checkout."""
    pkg = Path(inls_lab.__file__).resolve().parent
    head = subprocess.run(["git", "-C", str(pkg), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path / "gs.cfg", dim=1, sigma=2.0, b=0.0, extent=16.0, n=256)
    assert main(["ground-state", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["git_hash"] == (head.stdout.strip() if head.returncode == 0 else "unknown")


def test_reproduce_unknown_name_exit_2(tmp_path, capsys):
    rc = main(["reproduce", "does_not_exist", "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "registered" in capsys.readouterr().err


def test_reproduce_cmm(tmp_path):
    out = tmp_path / "rep"
    rc = main(["reproduce", "cmm_exactness", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "report_cmm_exactness.json").read_text())
    assert rep["passed"] is True


def test_intercritical_evolve_analyze_verify_roundtrip(tmp_path):
    """Radial intercritical pipeline: evolve to the resolution limit, then
    the critical-norm window analysis and the radial inequality reports."""
    cfg = write_cfg(
        tmp_path / "ev.cfg",
        dim=2, sigma=1.0, b=0.5, extent=10.0, n=2048,
        initial="gaussian", initial_amplitude=1.9, initial_width=1.0,
        dt0=5e-4, c_dt=5e-3, theta=0.2, t_end=5.0,
        sample_every=10, snapshot_every=4,
    )
    run = tmp_path / "run"
    assert main(["evolve", "--config", cfg, "--out", str(run)]) == 0
    summary = json.loads((run / "summary.json").read_text())
    assert summary["termination"] == "resolution_limit"

    an_cfg = write_cfg(tmp_path / "an.cfg", run_dir=str(run), mode="fint", c0=10.0)
    out = tmp_path / "an"
    assert main(["analyze", "--config", an_cfg, "--out", str(out)]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["concentration_floor"] > 0
    assert s["verdicts"]["rate_exponent_below_bound"]
    lines = (out / "analysis.csv").read_text().strip().splitlines()
    assert lines[0] == "t,T_hat_minus_t,grad_norm,window_radius,concentration"
    assert len(lines) > 3

    v_cfg = write_cfg(tmp_path / "v.cfg", dim=2, sigma=1.0, b=0.5,
                      extent=12.0, n=1024, trials=30)
    vout = tmp_path / "verify"
    assert main(["verify", "--config", v_cfg, "--out", str(vout)]) == 0
    for name in ("gagliardo", "strauss", "radial_gn", "critical_gn"):
        assert (vout / f"inequality_{name}.json").exists()


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "ev.cfg", dim=1, sigma=2.0, b=0.0, extent=16.0, n=256,
                    initial="gaussian", t_end=0.01, sampel_every=5)
    rc = main(["evolve", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "sampel_every" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    # a key valid for another subcommand is unknown here
    cfg = write_cfg(tmp_path / "gs.cfg", dim=1, sigma=2.0, b=0.0, extent=16.0, n=256, trials=5)
    assert main(["ground-state", "--config", cfg, "--out", str(tmp_path / "y")]) == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("dtype", ["long_double", "float32", 64])
def test_unknown_dtype_exit_2(tmp_path, capsys, dtype):
    cfg = write_cfg(tmp_path / "gs.cfg", dim=1, sigma=2.0, b=0.0, extent=16.0, n=256,
                    dtype=dtype)
    rc = main(["ground-state", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "dtype" in capsys.readouterr().err


@pytest.fixture
def solve_calls(monkeypatch):
    """The calls the CLI makes to solve_ground_state, counted."""
    calls = []
    solve = cli.solve_ground_state

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_ground_state", counting)
    return calls


@pytest.mark.parametrize("command, key, value", [
    ("ground-state", "dim", "two"),
    ("ground-state", "max_iter", "lots"),
    ("ground-state", "n", "inf"),
    ("ground-state", "n", 256.7),
    ("ground-state", "dim", 1.9),
    ("ground-state", "dim", True),
    ("ground-state", "extent", "nan"),
    ("ground-state", "extent", "inf"),
    ("ground-state", "sigma", "inf"),
    ("exact", "times", "0.1,abc"),
    ("exact", "times", "0.2,1.5"),
    ("exact", "family_T", 0),
    ("exact", "family_T", "inf"),
    ("evolve", "family_lambda", "inf"),
    ("ground-state", "max_iter", 0),
    ("evolve", "initial_width", 0),
    ("evolve", "sample_every", 0),
    ("evolve", "initial", "bogus"),
    pytest.param("evolve", "dt0", {"initial": "ground_state_multiple", "dt0": -1},
                 id="evolve-dt0-ground_state_multiple"),
    pytest.param("evolve", "initial_path", {"initial": "file"}, id="evolve-initial_path-missing"),
    ("evolve", "t_end", -1),
    ("evolve", "dt0", "nan"),
    ("evolve", "dt0", "inf"),
    ("evolve", "c_dt", "nan"),
    pytest.param("evolve", "theta", {"theta": "nan", "t_end": None},
                 id="evolve-theta-nan-no-t_end"),
    ("verify", "trials", 0),
    ("verify", "trials", -5),
    ("analyze", "c0_tilde", -1),
    ("analyze", "alpha", 0.7),
    ("analyze", "alpha", "nan"),
    ("analyze", "alpha", 0),
    ("exact", "family_gamma", "nan"),
    ("exact", "times", "0.1,-inf"),
    ("evolve", "initial_amplitude", "nan"),
    pytest.param("evolve", "initial_c", {"initial": "ground_state_multiple", "initial_c": "inf"},
                 id="evolve-initial_c-inf-ground_state_multiple"),
    pytest.param("evolve", "family_t0", {"initial": "s_family", "family_t0": "-inf"},
                 id="evolve-family_t0-inf-s_family"),
    ("evolve", "c_dt", "inf"),
    ("analyze", "c0", "inf"),
])
def test_malformed_value_exit_2(tmp_path, capsys, solve_calls, command, key, value):
    """A bad config exits 2 naming the key, before any solve or output directory."""
    kv = dict(dim=1, sigma=2.0, b=0.0, extent=16.0, n=256)
    if command == "evolve":
        kv.update(initial="gaussian", t_end=0.01)
    if command == "analyze":
        kv = dict(run_dir=str(tmp_path))
    kv.update(value if isinstance(value, dict) else {key: value})
    cfg = write_cfg(tmp_path / "bad.cfg", **{k: v for k, v in kv.items() if v is not None})
    out = tmp_path / "x"
    rc = main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not out.exists()
    assert not solve_calls


@pytest.mark.parametrize("command", ["ground-state", "evolve"])
def test_snapshots_flag_is_rejected(tmp_path, capsys, solve_calls, command):
    """snapshot_every is set in the config only; the flag is an argparse error."""
    cfg = write_cfg(tmp_path / "c.cfg", dim=1, sigma=2.0, b=0.0, extent=16.0, n=256,
                    **({"initial": "gaussian", "t_end": 0.01} if command == "evolve" else {}))
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(out), "--snapshots", "3"])
    assert exc.value.code == 2
    assert "--snapshots" in capsys.readouterr().err
    assert not out.exists()
    assert not solve_calls


def test_config_error_exit_status_of_process(tmp_path):
    cfg = write_cfg(tmp_path / "gs.cfg", dim=1, sigma=2.0, b=0.0, extent=16.0, n=256,
                    max_itr=5)
    out = tmp_path / "x"
    src = str(Path(inls_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "inls_lab.cli", "ground-state", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "max_itr" in proc.stderr
    assert not out.exists()


def test_manifest_records_resolved_config(tmp_path):
    cfg = write_cfg(tmp_path / "ev.cfg", dim=1, sigma=2.0, b=0.0, extent=16.0, n=256,
                    initial="gaussian", t_end=0.01)
    out = tmp_path / "run"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["sample_every"] == 10
    assert config["theta"] == 0.5
    assert config["initial_amplitude"] == 1.0
    assert config["t_end"] == 0.01


def test_evolve_from_file_keeps_path_text(tmp_path, monkeypatch):
    """initial_path = 0123 names the file 0123, not 123."""
    monkeypatch.chdir(tmp_path)
    params = make_params(1, 2.0, 0.0)
    grid = grid_for(params, 16.0, 256)
    write_field(Path("0123"), Field(np.exp(-grid.nodes ** 2).astype(complex), grid, params))
    cfg = write_cfg(tmp_path / "ev.cfg", dim=1, sigma=2.0, b=0.0, extent=16.0, n=256,
                    initial="file", initial_path="0123", t_end=0.01)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "run")]) == 0


def test_integral_float_value_accepted(tmp_path):
    cfg = parse_config(write_cfg(tmp_path / "c.cfg", dim=2.0, sigma=1.0, b=0.5,
                                 extent=12.0, n="1e3"))
    params, grid = _params_grid(resolve_config("ground-state", cfg))
    assert (params.dim, grid.n) == (2, 1000)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_evolve_numerics_error_keeps_partial_artifacts(tmp_path, capsys):
    # |u|^4 overflows in the first potential kick; theta keeps the resolution
    # stop from ending the run before it
    cfg = write_cfg(tmp_path / "ev.cfg", dim=1, sigma=2.0, b=0.0, extent=16.0, n=256,
                    initial="gaussian", initial_amplitude=1e100, theta=1e300, t_end=1.0)
    out = tmp_path / "run"
    rc = main(["evolve", "--config", cfg, "--out", str(out)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "numerics_error"
    assert summary["final"]["t"] == 0.0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0.0,")
