"""Package surface: every name each ``__all__`` exports resolves, and no import is unused."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import vortexlab

MODULES = ["vortexlab"] + [
    f"vortexlab.{info.name}" for info in pkgutil.iter_modules(vortexlab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # A stale entry, left behind when its definition is deleted, fails here
    # and not first in a user's ``from vortexlab.x import *``.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    assert len(set(exported)) == len(exported)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # An import left behind when its last use is deleted fails here.  A name
    # counts as used if the module's code reads it or its ``__all__`` lists it.
    module = importlib.import_module(name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(module, "__all__", []))
    assert sorted(f"line {line}: {key}" for key, line in imported.items() if key not in used) == []
