"""Suite-wide Hypothesis settings.

Tier-1 checks exact results and deterministic work counters, never wall
time, so the per-example deadline is off: on a slow or busy host a correct
example must not fail for taking long.
"""

from hypothesis import settings

settings.register_profile("denumerant", deadline=None)
settings.load_profile("denumerant")
