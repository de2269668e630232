import ast
import importlib
import pkgutil
from pathlib import Path

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
