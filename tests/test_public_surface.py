"""The package's public names.

Every name in a module's ``__all__`` exists, and every name that
``trackscore`` re-exports is public in the module it comes from, so a
deleted function cannot leave a stale entry in either list.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import trackscore

MODULES = {
    info.name: importlib.import_module(f"trackscore.{info.name}")
    for info in pkgutil.iter_modules(trackscore.__path__)
}


def test_every_all_entry_exists():
    missing = [
        f"{name}.{attr}"
        for name, mod in MODULES.items()
        for attr in getattr(mod, "__all__", ())
        if not hasattr(mod, attr)
    ]
    assert not missing, missing


def test_package_exports_are_public_in_their_home_module():
    tree = ast.parse(Path(trackscore.__file__).read_text())
    exports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    private = [
        f"{home}.{name}" for home, name in exports if name not in MODULES[home].__all__
    ]
    assert exports and not private, private
