import pytest

from nearhex import (
    build_dsp62,
    build_h3,
    build_h3_partitions,
    build_w2,
    debruyn_census,
)


@pytest.fixture(scope="session")
def w2():
    return build_w2()


@pytest.fixture(scope="session")
def h3():
    return build_h3()


@pytest.fixture(scope="session")
def dsp(h3):
    return build_dsp62(h3)


@pytest.fixture(scope="session")
def h3_partitions():
    return build_h3_partitions()


@pytest.fixture(scope="session")
def debruyn():
    return debruyn_census()


@pytest.fixture(scope="session")
def h3_debruyn(debruyn):
    return debruyn.geometry


@pytest.fixture(scope="session")
def grid33():
    """A 3x3 grid: 9 points, 3 rows and 3 columns, the (2,1)-GQ."""
    from nearhex import Geometry

    rows = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    cols = [(0, 3, 6), (1, 4, 7), (2, 5, 8)]
    return Geometry(9, tuple(rows + cols))


@pytest.fixture
def guides(monkeypatch):
    """Counts the first paths walked, by wrapping ``nearhex.iso._guide``."""
    import nearhex.iso

    calls = []
    original = nearhex.iso._guide

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(nearhex.iso, "_guide", counting)
    return calls
