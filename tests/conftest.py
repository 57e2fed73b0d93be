"""One Hypothesis profile for the suite: every property draws the same
examples on every run, and no example has a deadline (a run's first
example pays for imports and warm caches)."""

from hypothesis import settings

settings.register_profile("honeysplice", derandomize=True, deadline=None)
settings.load_profile("honeysplice")
