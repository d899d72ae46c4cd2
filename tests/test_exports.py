"""The public names: what the package and each submodule list in __all__."""

import importlib
import pkgutil

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
