"""Every trajmatch name the benchmark harness reaches resolves.

`perfbench/probe.py` wraps functions by (module, name) in its CAPTURED and
TRACED tables, and the harness scripts import from trajmatch. A rename or a
removal breaks neither at import time: the traced run fails, or wraps
nothing. The harness files are read with ast, neither imported nor run.
"""

import ast
import importlib
from functools import reduce
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tables():
    """CAPTURED and TRACED of probe.py, as the literals they are."""
    tables = {}
    for node in ast.parse((PERFBENCH / "probe.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and getattr(node.targets[0], "id", None) in ("CAPTURED", "TRACED"):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def _wrapped():
    tables = _tables()
    assert sorted(tables) == ["CAPTURED", "TRACED"]
    return sorted({*tables["CAPTURED"].values(),
                   *(target for targets in tables["TRACED"].values() for target in targets)})


def _imported():
    """(module, name) of every `from trajmatch... import name` in the harness
    scripts, and (module, None) of every `import trajmatch...`."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "trajmatch":
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "trajmatch")
    return sorted(found, key=str)


@pytest.mark.parametrize("module, name", _wrapped(), ids=lambda v: v)
def test_probe_target_resolves(module, name):
    # a "Class.method" target is wrapped on its class
    assert callable(reduce(getattr, name.split("."), importlib.import_module(module)))


@pytest.mark.parametrize("module, name", _imported(), ids=str)
def test_harness_import_resolves(module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")  # a submodule
