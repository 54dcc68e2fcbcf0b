"""Hypothesis settings shared by the test modules.

A drawn ConvexPolygon prints as its vertex count and area, so a failure
report alone cannot rebuild the draw.  print_blob adds the
@reproduce_failure line that replays it exactly.  Example counts and
randomization stay as each test sets them.
"""

from hypothesis import settings

settings.register_profile("mafem", print_blob=True)
settings.load_profile("mafem")
