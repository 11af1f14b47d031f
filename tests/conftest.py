"""One hypothesis profile for the whole suite: derandomized, so every run
draws the same examples, and without a deadline, so a slow machine cannot
fail a property on time alone.  Each test keeps its own max_examples."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
