import importlib
import pkgutil

import pytest

import pwsis


def test_package_exports_what_the_submodules_export():
    owner = {}
    for info in pkgutil.iter_modules(pwsis.__path__):
        mod = importlib.import_module("pwsis." + info.name)
        for name in getattr(mod, "__all__", ()):
            assert name not in owner, "%s exported by %s and %s" % (name, owner[name], info.name)
            owner[name] = info.name
    assert pwsis.__all__ == sorted(owner)
    for name, sub in owner.items():
        assert getattr(pwsis, name) is getattr(importlib.import_module("pwsis." + sub), name)
        assert name in dir(pwsis)


def test_removed_names_are_not_exported():
    with pytest.raises(AttributeError):
        pwsis.pair_permutations
