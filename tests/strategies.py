"""Hypothesis strategies shared by the differential tests."""

from hypothesis import strategies as st

from nearhex import Geometry


@st.composite
def small_geometries(draw):
    """Geometries of at most 8 points with lines of 2 to 4 points, so
    disconnected spaces and spaces where two points share several lines
    (not partial linear spaces) are included."""
    n = draw(st.integers(1, 8))
    if n < 2:
        return Geometry(n, ())
    line = st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True)
    return Geometry(n, tuple(draw(st.lists(line, max_size=10))))
