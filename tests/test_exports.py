import ast
import importlib
import pathlib
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


def test_only_spectral_knows_how_samples_are_stored():
    # every other module reads samples through SpectralDataset's readers
    # (_take, _fibers, _squares) or its dense values, never its storage:
    # dense values, pairs or a band's source and bits
    storage = {"_band", "_pairs", "_stored", "_values"}
    src = pathlib.Path(pwsis.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in storage:
                found.append("%s:%d: .%s" % (path.name, node.lineno, node.attr))
    assert not found, found


def test_only_block_cells_sizes_a_block():
    # one block rule: fibers._block_cells alone reads the block budget and
    # says that a block holds its matrices twice; no function takes a count
    # of copies, and no dataset reports one
    src = pathlib.Path(pwsis.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None) \
                    or getattr(node, "name", None)
                where = "%s:%d" % (path.name, node.lineno) if hasattr(node, "lineno") else path.name
                if isinstance(node, ast.arg) and node.arg == "copies":
                    found.append("%s: argument copies" % where)
                if name == "_fiber_copies":
                    found.append("%s: _fiber_copies" % where)
                if (name == "_BLOCK_BYTES" and isinstance(node.ctx, ast.Load)
                        and owner != ("fibers.py", "_block_cells")):
                    found.append("%s: _BLOCK_BYTES" % where)
    assert not found, found
