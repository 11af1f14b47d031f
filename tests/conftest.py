"""One hypothesis profile for the whole suite: derandomized, so every run
draws the same examples, and without a deadline, so a slow machine cannot
fail a property on time alone.  Each test keeps its own max_examples.

random_points is the tests' one-surface stack of seeded points."""

from hypothesis import settings

from surface_qp.repspace import random_stacks

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def random_points(ctx, spec, seeds):
    """The points random_point draws at each seed, as one stacked point."""
    return random_stacks(ctx, [spec], seeds)[0]
