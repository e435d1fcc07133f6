"""Static checks on the package source."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "coxsph"


def test_no_assert_statements():
    # `python -O` strips asserts, so a correctness check must raise instead;
    # pytest rewrites asserts only in test_*.py and conftest.py, so the tests'
    # helper modules are held to the same rule
    helpers = [
        path for path in sorted(TESTS.glob("*.py"))
        if not path.name.startswith("test_") and path.name != "conftest.py"
    ]
    paths = sorted(SRC.glob("*.py")) + helpers
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.glob("*.py")) and helpers
    assert found == []


def _package_imports(path: Path) -> set[str]:
    """The coxsph modules that `path` imports relatively, at any depth."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import words, spherical
                imported.update(alias.name for alias in node.names)
            else:  # from .coxeter import Element
                imported.add(node.module.split(".")[0])
    return imported


def test_coxeter_is_the_bottom_layer_and_imports_have_no_cycle():
    # the weak-order record lives in coxeter.py, which every other module
    # reads, so coxeter.py may import none of them
    graph = {path.stem: _package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert set().union(*graph.values()) <= set(graph)
    assert graph["coxeter"] == set()
    assert "coxeter" in graph["spherical"]
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, " -> ".join([*path, module])
        if module not in done:
            for imported in sorted(graph[module]):
                visit(imported, [*path, module])
            done.add(module)

    for module in graph:
        visit(module, [])


def test_all_lists_exactly_the_imported_names():
    # a stale `__all__` entry breaks `from coxsph import *`; every name the
    # package imports is one it exports
    import coxsph

    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert all(hasattr(coxsph, name) for name in coxsph.__all__)
    assert len(set(coxsph.__all__)) == len(coxsph.__all__)
    assert set(coxsph.__all__) == set(imported)
