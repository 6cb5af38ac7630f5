"""Package surface: every name each ``__all__`` exports resolves."""

import importlib
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
