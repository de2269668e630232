import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import inls_lab

pytest_plugins = ["pytester"]
ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    """``from inls_lab.<module> import *`` works: each ``__all__`` name exists."""
    modules = [inls_lab] + [
        importlib.import_module(f"inls_lab.{info.name}")
        for info in pkgutil.iter_modules(inls_lab.__path__)
    ]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names missing attributes: {missing}"


def _dispatched(fn: ast.FunctionDef) -> bool:
    """A dispatch signature: an ``_experiment(...)`` body or a ``cmd_*``
    command, called uniformly through ``REGISTRY`` or ``COMMANDS``."""
    if fn.name.startswith("cmd_"):
        return True
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_experiment"
               for d in fn.decorator_list)


def _unread_parameters(path: Path) -> list[str]:
    found = []
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or _dispatched(fn):
            continue
        a = fn.args
        params = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
        params += [arg.arg for arg in (a.vararg, a.kwarg) if arg is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [f"{path.name}:{fn.lineno} {fn.name}({name})" for name in params
                  if name not in read and name not in ("self", "cls")
                  and not name.startswith("_")]
    return found


def test_no_unread_parameters():
    """Every parameter of a function in the package is read by its body,
    but for self/cls, _-prefixed names and the dispatch signatures."""
    found = []
    for path in sorted(Path(inls_lab.__file__).parent.glob("*.py")):
        found += _unread_parameters(path)
    assert not found, f"parameters their function never reads: {found}"


def _attributes(names):
    """The reads of attributes ``names`` off anything but NumPy (``np.full``)."""
    def found(node):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and not (isinstance(node.value, ast.Name) and node.value.id == "np")):
            return [f".{node.attr}"]
        return []
    return found


def _scipy_fft_imports(node):
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        return []
    return [name for name in names if name == "scipy.fft" or name.startswith("scipy.fft.")]


def _private_core_names(node):
    """A ``_``-prefixed name of ``core``, imported from it or read off the module."""
    if isinstance(node, ast.ImportFrom) and node.module in ("core", "inls_lab.core"):
        return [f"import {alias.name}" for alias in node.names if alias.name.startswith("_")]
    if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name) and node.value.id == "core"):
        return [f"core.{node.attr}"]
    return []


def _negative_step_slices(node):
    step = node.step if isinstance(node, ast.Slice) else None
    if isinstance(step, ast.UnaryOp) and isinstance(step.op, ast.USub):
        return [f"[{ast.unparse(node)}]"]
    return []


# what only ``core`` may do: every other module goes through the grids' operators
CORE_ONLY = {
    # core's private names: every other module goes through its public ones
    "private_core_names": (_private_core_names, "private core name used outside core"),
    # the radial operator's face data and flux factors: the flux-form discretization
    "radial_discretization": (_attributes(("face_alpha", "surf", "flux_factors")),
                              "face data read outside core"),
    # the pieces the grid classes' operators are built from: the operators reach them
    "operator_internals": (_attributes(("parseval", "propagator", "_propagators", "bands",
                                        "factor", "k2")),
                           "grid operator internals read outside core"),
    # a line's half grid or a half grid's line: even_grid, fold and unfold reach them
    "half_grid_layout": (_attributes(("half", "full")),
                         "half-grid layout read outside core"),
    # the spectral transforms: the operators' one spectral path
    "spectral_transforms": (_scipy_fft_imports, "scipy.fft imported outside core"),
    # a reversed array: ``mirror`` makes a line field even, ``unfold`` mirrors a half
    "negative_step_slices": (_negative_step_slices, "negative-step slice outside core"),
}


@pytest.mark.parametrize("rule", sorted(CORE_ONLY))
def test_stays_in_core(rule):
    """No module but ``core`` does what the rule's row names."""
    match, message = CORE_ONLY[rule]
    found = []
    for path in sorted(Path(inls_lab.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        found += [f"{path.name}:{node.lineno} {label}"
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  for label in match(node)]
    assert not found, f"{message}: {found}"


def test_failing_property_test_is_reported_and_the_session_goes_on(pytester):
    """Under this project's pytest configuration, which turns DeprecationWarning
    into an error, a failing ``@given`` test is reported as a failure and the
    tests after it still run.  Hypothesis imports libcst to report the failing
    example, and that import warns; unfiltered, it aborted the session."""
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    pytester.mkdir("tests")
    (pytester.path / "tests" / "test_sample.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n\n"
        "def test_after():\n"
        "    pass\n")
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.no_fnmatch_line("*INTERNALERROR*")


# scipy.spatial and scipy.sparse.linalg come with scipy.interpolate and scipy.optimize
START_UP = ("scipy.interpolate", "scipy.optimize", "scipy.spatial", "scipy.sparse.linalg")
PRELUDE = f"""import json, sys
import inls_lab, inls_lab.cli
loaded = lambda: [m for m in {START_UP!r} if m in sys.modules]
"""


def _fresh_python(code: str):
    """The JSON on the last line a fresh interpreter prints running ``code``."""
    src = str(Path(inls_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_the_spline_and_fit_packages_unloaded():
    """Importing the package and its CLI loads neither scipy.interpolate nor
    scipy.optimize, nor the sparse solvers they bring.  Nor multiprocessing,
    which only a pool of corpus workers loads."""
    assert _fresh_python("print(json.dumps([loaded(), 'multiprocessing' in sys.modules]))") \
        == [[], False]


def test_rescaling_and_fitting_load_no_spline_or_fit_package():
    """A cubic rescaled sample, the quintic S-family profiles and a blow-up fit
    run on the package's own spline and bounded search: after them, none of
    SciPy's spline and fit packages, nor what they bring, is loaded."""
    spline_error, T_hat, masses, after = _fresh_python("""
import numpy as np
from inls_lab import (Field, SFamilyParams, Trajectory, estimate_blowup_time, line_grid,
                      make_params, mass, solve_ground_state)
from inls_lab.core import sample_scaled
from inls_lab.evolution import TrajectorySample
from inls_lab.exact import s_profiles

grid = line_grid(16.0, 256)
u = Field(np.exp(-grid.nodes ** 2), grid, make_params(1, 2.0, 0.0))
gs = solve_ground_state(u.params, grid)
# |grad u|^2 = 1/(1 - t), sampled toward t = 1
traj = Trajectory([TrajectorySample(1 - 2 ** (-i / 4), 1e-3, 1.0, 0.5, 2 ** (i / 4), 1.0, 0.0)
                   for i in range(40)])
print(json.dumps([float(np.max(np.abs(sample_scaled(u, 1.0) - u.values))),
                  estimate_blowup_time(traj, 0.0).T_hat,
                  [mass(f) / gs.q_mass for f in s_profiles(SFamilyParams(1.0, 1.0), gs, [0.0, 0.5])],
                  loaded()]))
""")
    assert spline_error < 1e-12 and abs(T_hat - 1.0) < 1e-6
    assert masses == pytest.approx([1.0, 1.0], abs=1e-6)
    assert after == []
