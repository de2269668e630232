import json

import pytest

from inls_lab.cli import main, parse_config
from inls_lab.errors import ValidationError


def write_cfg(path, **kv):
    path.write_text("\n".join(f"{k} = {v}" for k, v in kv.items()) + "\n")
    return str(path)


def test_parse_config_types(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("a = 3\nb = 0.5  # trailing comment\nname = hello\nflag = true\n\n# comment\n")
    cfg = parse_config(str(p))
    assert cfg == {"a": 3, "b": 0.5, "name": "hello", "flag": True}


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
    assert (out / "Q.fld").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "ground_state"
    assert "git_hash" in manifest and "versions" in manifest


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
