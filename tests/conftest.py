import sys
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
