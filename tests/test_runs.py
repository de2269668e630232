"""The acceptance suite's run tables are configs of the CLI's schemas: written
to a file, a row builds and marches in ``inls-lab evolve`` as in the suite."""

import json
import re
from dataclasses import fields
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from inls_lab import cli, experiments as exp
from inls_lab.cli import main, parse_config, resolve_config
from inls_lab.evolution import TrajectorySample
from inls_lab.fieldio import trajectory_from_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def write_row(path: Path, row: dict) -> str:
    path.write_text("".join(f"{key} = {value}\n" for key, value in row.items()))
    return str(path)


def samples(traj) -> list:
    """Every recorded value of each sample but its snapshot."""
    names = [f.name for f in fields(TrajectorySample) if f.name != "snapshot"]
    return [[getattr(s, name) for name in names] for s in traj.samples]


class Handed(Exception):
    """What a stubbed ``evolve`` was handed: (initial field, step policy)."""


def handed_to_evolve(module, call, monkeypatch):
    """The initial field and step policy that ``call()`` hands to ``evolve``
    as ``module`` looks it up; the march itself never runs."""
    def stub(u0, policy):
        raise Handed(u0, policy)

    with monkeypatch.context() as m:
        m.setattr(module, "evolve", stub)
        with pytest.raises(Handed) as info:
            call()
    return info.value.args


@pytest.mark.parametrize("run", list(exp.TRAJECTORIES))
def test_cli_builds_the_suite_start(run, tmp_path, monkeypatch):
    """``inls-lab evolve`` on a row written as a config file hands ``evolve``
    the initial field of ``trajectory(run)`` bit for bit, built on a ground
    state the CLI solves itself, and the same step policy."""
    u0, policy = handed_to_evolve(exp, lambda: exp.trajectory.__wrapped__(run), monkeypatch)
    path = write_row(tmp_path / "run.cfg", exp.TRAJECTORIES[run])
    start, cli_policy = handed_to_evolve(
        cli, lambda: main(["evolve", "--config", path, "--out", str(tmp_path / "out")]),
        monkeypatch)
    assert start.params == u0.params
    assert (start.grid.geometry, start.grid.n) == (u0.grid.geometry, u0.grid.n)
    assert np.array_equal(start.grid.nodes, u0.grid.nodes)
    assert np.array_equal(start.values, u0.values)
    assert cli_policy == policy


@pytest.mark.parametrize("run", ["quintic_collapse", "intercritical_radial"])
def test_cli_evolve_of_a_row_writes_the_suite_trajectory(run, tmp_path):
    """``inls-lab evolve`` on a row's config writes the samples and the
    termination of ``trajectory(run)``, value for value."""
    out = tmp_path / "run"
    assert main(["evolve", "--config", write_row(tmp_path / "run.cfg", exp.TRAJECTORIES[run]),
                 "--out", str(out)]) == 0
    traj = exp.trajectory(run)
    assert samples(trajectory_from_csv(out / "trajectory.csv")) == samples(traj)
    assert json.loads((out / "summary.json").read_text())["termination"] == traj.termination


def test_a_run_and_its_case_solve_once(monkeypatch):
    """With the suite's memos empty, a run and the ``GROUND_STATES`` case whose
    grid keys it shares solve that case once, whichever comes first, and the
    run starts on that case's ground state; the Gaussian run solves nothing."""
    session = {case: exp.ground_state(case) for case in ("quintic_tracking", "quintic", "line_b")}
    solves = []

    def counting(params, grid):
        solves.append(next(case for case, gs in session.items()
                           if (gs.params, gs.profile.grid.n) == (params, grid.n)))
        return session[solves[-1]]

    monkeypatch.setattr(exp, "solve_ground_state", counting)
    monkeypatch.setattr(exp, "_solved", lru_cache(maxsize=None)(exp._solved.__wrapped__))
    monkeypatch.setattr(exp, "trajectory", lru_cache(maxsize=None)(exp.trajectory.__wrapped__))
    monkeypatch.setattr(exp, "evolve", lambda u0, policy: u0)      # the start, unmarched
    for _ in range(2):
        assert exp.trajectory("s_family_quintic").grid is session["quintic_tracking"].profile.grid
        assert exp.ground_state("quintic_tracking") is session["quintic_tracking"]
        assert exp.ground_state("quintic") is session["quintic"]
        assert exp.trajectory("quintic_collapse").grid is session["quintic"].profile.grid
        assert exp.trajectory("inls_collapse").grid is session["line_b"].profile.grid
        exp.trajectory("intercritical_radial")
        assert exp.ground_state("line_b") is session["line_b"]
    assert solves == ["quintic_tracking", "quintic", "line_b"]


def test_readme_reruns_the_inls_collapse_row(tmp_path):
    """The README's ``inls_collapse.cfg`` resolves to the suite's row."""
    text = README.read_text()
    block = re.search(r"^cat > inls_collapse\.cfg <<EOF\n(.*?)^EOF$", text, re.M | re.S).group(1)
    (tmp_path / "inls_collapse.cfg").write_text(block)
    assert resolve_config("evolve", parse_config(str(tmp_path / "inls_collapse.cfg"))) == \
        resolve_config("evolve", exp.TRAJECTORIES["inls_collapse"])
