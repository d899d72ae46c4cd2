"""The public names: what the package and each submodule list in __all__."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import urysohn

MODULES = ["urysohn"] + [f"urysohn.{m.name}" for m in pkgutil.iter_modules(urysohn.__path__)]


def test_star_import_gives_exactly_the_listed_names():
    namespace = {}
    exec("from urysohn import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(urysohn.__all__)


def test_package_lists_the_library_modules_names_once_in_module_order():
    library = [name for name in MODULES[1:] if name != "urysohn.cli"]
    assert len(library) == 8
    joined = [n for name in library for n in importlib.import_module(name).__all__]
    assert urysohn.__all__ == joined
    assert len(joined) == len(set(joined))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves_and_is_listed_once(name):
    module = importlib.import_module(name)
    listed = module.__all__
    assert len(listed) == len(set(listed))
    assert [n for n in listed if not hasattr(module, n)] == []



# The dead-code guard, on the syntax trees of the package's modules.
SOURCES = sorted(Path(urysohn.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text()) for path in SOURCES}


def _read_names(tree):
    """Every name the tree reads: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


# __init__.py imports its modules' names to re-export them
@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__.py"}))
def test_every_imported_name_is_used_in_its_module(name):
    imported = set()
    for node in ast.walk(TREES[name]):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    assert sorted(imported - _read_names(TREES[name])) == []


def test_every_private_module_level_name_is_read_in_the_package():
    read = set().union(*map(_read_names, TREES.values()))
    unread = []
    for name, tree in sorted(TREES.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private = [d for d in defined if d.startswith("_") and not d.startswith("__")]
            unread += [f"{name}:{d}" for d in private if d not in read]
    assert unread == []
