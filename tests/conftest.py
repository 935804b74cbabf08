import os
from pathlib import Path

import pytest

from schur_clusters import Quiver

# pytest's `pythonpath` setting puts src/ on this process's path; the CLI
# tests start `python -m schur_clusters` in subprocesses, which need it too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def a1():
    return Quiver(1, [])


@pytest.fixture
def a2():
    return Quiver(2, [(1, 2)])


@pytest.fixture
def a2rev():
    return Quiver(2, [(2, 1)])


@pytest.fixture
def a3():
    return Quiver(3, [(1, 2), (2, 3)])


@pytest.fixture
def a3alt():
    return Quiver(3, [(1, 2), (3, 2)])


@pytest.fixture
def a4():
    return Quiver(4, [(1, 2), (2, 3), (3, 4)])


@pytest.fixture
def d4():
    return Quiver(4, [(1, 2), (1, 3), (1, 4)])


@pytest.fixture
def kronecker():
    return Quiver(2, [(1, 2), (1, 2)])


@pytest.fixture
def wild():
    return Quiver(3, [(1, 2), (1, 2), (2, 3)])


@pytest.fixture
def e6():
    return Quiver(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)])
