import builtins
import math
import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def index_builds(monkeypatch):
    """The (lines, owners) of every spatial index built since the fixture
    began: RoadNetwork.index calls io.index_build by its module name."""
    from trajmatch import io

    builds = []
    index_build = io.index_build

    def counting(*args):
        builds.append(args)
        return index_build(*args)

    monkeypatch.setattr(io, "index_build", counting)
    return builds


BUILTIN_SUM = builtins.sum


def compensated_sum(values, start=0):
    """The builtin sum as Python 3.12 and later compute it over floats:
    compensated (Neumaier) summation; other values go to the builtin."""
    values = list(values)
    if not all(type(v) is float for v in values):
        return BUILTIN_SUM(values, start)
    total, c = start, 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


@pytest.fixture
def compensated_builtin_sum(monkeypatch):
    """The builtin sum replaced by Python 3.12's, whatever the interpreter:
    a result that must not depend on how sum rounds is checked under it."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) == 1.0  # 0.9999999999999999 left to right


@contextmanager
def piped(data: bytes):
    """A /dev/fd path that reads data from a pipe. A thread writes it, since
    a pipe holds 64 KiB and some inputs are longer: writing them before the
    read would block for good."""
    read, write = os.pipe()

    def feed():
        try:
            with open(write, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader closed early
            pass

    thread = threading.Thread(target=feed)
    thread.start()
    try:
        yield f"/dev/fd/{read}"
    finally:
        os.close(read)
        thread.join(timeout=60)
    assert not thread.is_alive()
