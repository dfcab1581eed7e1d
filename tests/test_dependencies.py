"""The package runs on the standard library alone and keeps no module
state.

Every import in ``src/price_display_auctions``, function-local ones
included, is relative or names a standard-library module, and
``pyproject.toml`` declares no runtime dependency, so a third-party
import cannot creep back unnoticed.  No function rebinds a module
global, so every object the package builds is safe to share across
threads.  A private name crosses one layer of the stack at most: it is
imported only from the module directly below the importer.  Every
private function or class is used by the package itself, so none is
kept for the tests alone, and every module reads every name it imports,
bar ``__init__.py``, whose imports are its re-exports.
"""

import ast
import sys
from pathlib import Path

import pytest

from price_display_auctions import __version__

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "price_display_auctions"
# The layered stack, bottom first.
LAYERS = ("quality", "model", "allocation", "mechanisms", "equilibrium",
          "scenarios", "cli")


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(), str(path)))


def _absolute_imports(path):
    """The module names of every absolute import in the file at ``path``."""
    for node in _nodes(path):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _is_private(name):
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__"))


def _private_imports(path):
    """(module, name) of every private name, dunders aside, that the file
    at ``path`` imports from the package."""
    for node in _nodes(path):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if _is_private(alias.name):
                    yield node.module, alias.name


def _private_definitions(path):
    """(name, line) of every private ``def`` or ``class``, dunders aside,
    at the module level or in a class body of the file at ``path``."""
    bodies = [ast.parse(path.read_text(), str(path)).body]
    while bodies:
        for node in bodies.pop():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if _is_private(node.name):
                    yield node.name, node.lineno
                if isinstance(node, ast.ClassDef):
                    bodies.append(node.body)


def _referenced_names(path):
    """Every name the code of the file at ``path`` reads, as a name, an
    attribute or an import; docstrings and comments are not code."""
    for node in _nodes(path):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _unused_imports(path):
    """(name, line) of every name that an import in the file at ``path``
    binds and its code never reads; ``from __future__`` binds none."""
    nodes = list(_nodes(path))
    read = {node.id for node in nodes
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in nodes:
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0]
                     for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        yield from ((name, node.lineno) for name in bound
                    if name not in read)


def test_every_imported_name_is_read():
    sources = [path for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    assert sources
    unused = [(path.name, name, line) for path in sources
              for name, line in _unused_imports(path)]
    assert not unused


def test_every_private_definition_is_used_by_the_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    used = {name for path in sources for name in _referenced_names(path)}
    unused = [(path.name, name, line) for path in sources
              for name, line in _private_definitions(path)
              if name not in used]
    assert not unused


def test_private_names_come_only_from_the_layer_below():
    below = dict(zip(LAYERS[1:], LAYERS))
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    crossing = [(path.stem, module, name) for path in sources
                for module, name in _private_imports(path)
                if module != below.get(path.stem)]
    assert not crossing


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [(path.name, name) for path in sources
               for name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside


def test_package_declares_no_global_statement():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [(path.name, node.lineno) for path in sources
             for node in _nodes(path) if isinstance(node, ast.Global)]
    assert not found


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == __version__
