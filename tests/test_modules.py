"""Static checks of the package's imports, read from each module's source with ``ast``."""

import ast
import re
from pathlib import Path

import pytest

import wtnrank

SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in Path(wtnrank.__file__).parent.glob("*.py")}
# Names a module imports without reading them: __init__ re-exports its
# __all__, and imports numpy so that numpy loads its BLAS on one thread.
UNREAD = {"__init__": {*wtnrank.__all__, "numpy"}}


def imports(tree):
    """(name bound, dotted name imported) for each import of ``tree``, relative ones from ``wtnrank``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = ".".join(filter(None, ["wtnrank" if node.level else None, node.module]))
            for alias in node.names:
                yield alias.asname or alias.name, f"{base}.{alias.name}"


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_every_imported_name_is_read(module):
    tree = SOURCES[module]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = {name for name, _ in imports(tree)} - read - UNREAD.get(module, set())
    assert not unread, f"{module} imports {sorted(unread)} without reading them"


def test_every_public_name_resolves():
    # a name left in __all__ after its object is gone breaks ``from wtnrank import *``
    missing = [name for name in wtnrank.__all__ if not hasattr(wtnrank, name)]
    assert not missing, f"__all__ names {missing}, which wtnrank does not define"


def test_readme_library_block_imports_public_names():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n+```python\n(.*?)```", readme, re.S).group(1)
    names = {alias.name for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "wtnrank" for alias in node.names}
    assert names and names <= set(wtnrank.__all__), sorted(names - set(wtnrank.__all__))


def test_only_testkit_imports_testkit():
    # the oracles and fixtures serve the tests; no command may come to rest on them
    importers = [
        module for module, tree in SOURCES.items()
        if any(target == "wtnrank.testkit" or target.startswith("wtnrank.testkit.") for _, target in imports(tree))
    ]
    assert importers == []


def test_only_the_block_solver_calls_linalg_solve():
    # one exact solve: PageRank, its perturbed operators and REGOMAX all go through gmatrix._solve_links;
    # testkit's dense oracles share no code with it
    callers = [
        f"{module}.{getattr(top, 'name', '<module>')}"
        for module, tree in SOURCES.items() if module != "testkit"
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "solve" and ast.unparse(node.value).endswith("linalg")
    ]
    assert callers == ["gmatrix._solve_links"]
