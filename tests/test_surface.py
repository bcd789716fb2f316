"""Every top-level function and class of the package is read somewhere
outside its own definition: in the package (not counting the re-exports of
`trajmatch/__init__.py`), in `demos/`, or in `perfbench/`, where an import
or a target of probe.py's CAPTURED and TRACED tables also counts. A name
only the tests call fails here. The files are read with ast, not imported.
"""

import ast
import functools
from pathlib import Path

import pytest

from test_perfbench_names import PERFBENCH, _tables

ROOT = PERFBENCH.parent
PACKAGE = ROOT / "src" / "trajmatch"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(node: ast.AST, imports: bool = False) -> set[str]:
    """The identifiers node reads as a name or an attribute, and, with
    imports, the names it imports."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif imports and isinstance(n, (ast.Import, ast.ImportFrom)):
            found.update(part for alias in n.names for part in alias.name.split("."))
    return found


@functools.cache
def _package_reads() -> list[tuple[str, str | None, set[str]]]:
    """(module, name or None, reads) of each top-level statement of every
    package module but __init__: name is that of a def or class."""
    return [(path.stem, getattr(node, "name", None), _reads(node))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
            for node in _parse(path).body]


@functools.cache
def _outside_package() -> set[str]:
    """What demos/ and perfbench/ read, with perfbench's imports and probe
    targets."""
    found = set()
    for path in sorted((ROOT / "demos").glob("*.py")):
        found |= _reads(_parse(path))
    for path in sorted(PERFBENCH.glob("*.py")):
        found |= _reads(_parse(path), imports=True)
    tables = _tables()
    targets = [*tables["CAPTURED"].values(),
               *(target for targets in tables["TRACED"].values() for target in targets)]
    found.update(part for _, attr in targets for part in attr.split("."))
    return found


@pytest.mark.parametrize("qualname", [f"{module}.{name}" for module, name, _ in _package_reads()
                                      if name is not None])
def test_definition_is_read_outside_tests(qualname):
    module, name = qualname.split(".")
    assert name in _outside_package() or any(
        name in reads for other, defined, reads in _package_reads()
        if (other, defined) != (module, name)), \
        f"{qualname} is read only by its own definition or the tests"
