"""Every top-level function and class of the package is read somewhere
outside its own definition: in the package (not counting the re-exports of
`trajmatch/__init__.py`), in `demos/`, or in `perfbench/`, where an import
or a target of probe.py's CAPTURED and TRACED tables also counts. Every
field of a package class, an annotated class attribute or an attribute a
method assigns on self, is read as an attribute somewhere in the package,
`demos/` or `perfbench/`; NamedTuple classes are left out, since
`write_match_result` reads `MatchedPoint` by position. A name or field
only the tests read fails here. The files are read with ast, not imported.
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


def _reads(node: ast.AST, imports: bool = False, names: bool = True) -> set[str]:
    """The identifiers node reads as an attribute (a load), with names as a
    name, and, with imports, the names it imports."""
    found = set()
    for n in ast.walk(node):
        if names and isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
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


def _fields(cls: ast.ClassDef) -> set[str]:
    """The annotated class attributes of cls and the attributes its methods
    assign on self."""
    found = {n.target.id for n in cls.body
             if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}
    found.update(n.attr for method in cls.body if isinstance(method, ast.FunctionDef)
                 for n in ast.walk(method)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                 and isinstance(n.value, ast.Name) and n.value.id == "self")
    return found


@functools.cache
def _attribute_reads() -> set[str]:
    """Every attribute read in the package, demos/ and perfbench/."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *PERFBENCH.glob("*.py")]
    return set().union(*(_reads(_parse(path), names=False) for path in paths))


@pytest.mark.parametrize("qualname", [
    f"{path.stem}.{node.name}.{field}"
    for path in sorted(PACKAGE.glob("*.py"))
    for node in _parse(path).body
    if isinstance(node, ast.ClassDef)
    and not any("NamedTuple" in _reads(base) for base in node.bases)
    for field in sorted(_fields(node))])
def test_field_is_read_outside_tests(qualname):
    assert qualname.rsplit(".", 1)[1] in _attribute_reads(), \
        f"{qualname} is read only by the tests"
