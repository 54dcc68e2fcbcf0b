"""The package's public names: each one in __all__ resolves, from the
package and from the module it is imported from."""

import ast
import importlib

import mafem


def _imported_from():
    """{name: module} for the `from .module import name` lines of the
    package's __init__."""
    with open(mafem.__file__) as fh:
        tree = ast.parse(fh.read())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                out[alias.asname or alias.name] = "mafem." + node.module
    return out


def test_all_names_resolve_from_their_home_module():
    homes = _imported_from()
    assert len(set(mafem.__all__)) == len(mafem.__all__)
    for name in mafem.__all__:
        assert hasattr(mafem, name), name
        assert name in homes, name
        home = importlib.import_module(homes[name])
        assert getattr(home, name) is getattr(mafem, name), name


def test_every_import_is_exported():
    assert sorted(_imported_from()) == sorted(mafem.__all__)
