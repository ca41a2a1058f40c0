"""Every name a module exports must resolve.

Tools that walk the public surface (``getattr`` on each ``__all__`` entry)
crash on a stale name, so a removal must take its export with it.
"""

import importlib
import pkgutil

import pytest

import bimodalskew

MODULES = ["bimodalskew"] + [
    f"bimodalskew.{info.name}" for info in pkgutil.iter_modules(bimodalskew.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing
