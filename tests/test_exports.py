"""Every name a module lists in __all__ exists in it.

The benchmark's tracer looks up each of these names with getattr, so a
stale entry left behind by a deletion breaks a traced run."""

import importlib
import pkgutil

import pytest

import agbounds

MODULES = ["agbounds"] + [
    f"agbounds.{info.name}"
    for info in pkgutil.iter_modules(agbounds.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    mod = importlib.import_module(name)
    names = mod.__all__
    assert len(names) == len(set(names)), f"duplicate entries in {name}.__all__"
    assert [a for a in names if not hasattr(mod, a)] == []
