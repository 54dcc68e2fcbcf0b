"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from mafem.geometry import ConvexPolygon


@st.composite
def convex_polygons(draw):
    """3 to 8 vertices on an ellipse, at angles at least 0.3 apart."""
    n = draw(st.integers(3, 8))
    gaps = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=n,
                                  max_size=n)))
    theta = np.cumsum(gaps / gaps.sum() * 2.0 * np.pi)
    ax = draw(st.floats(0.5, 2.0))
    ay = draw(st.floats(0.5, 2.0))
    return ConvexPolygon(np.column_stack([ax * np.cos(theta),
                                          ay * np.sin(theta)]))
