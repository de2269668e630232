import importlib
import pkgutil

import inls_lab


def test_every_exported_name_resolves():
    """``from inls_lab.<module> import *`` works: each ``__all__`` name exists."""
    modules = [inls_lab] + [
        importlib.import_module(f"inls_lab.{info.name}")
        for info in pkgutil.iter_modules(inls_lab.__path__)
    ]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names missing attributes: {missing}"
