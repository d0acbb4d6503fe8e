"""Shared test settings: one Hypothesis profile for every property test.

Examples are derived from each test's source (``derandomize``), so a run
is reproducible and a failure replays; nothing is stored between runs
(``database=None``), and no per-example deadline applies, since the
examples run pairwise sums of varying size.  Each test sets its own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("raresig", deadline=None, derandomize=True, database=None)
settings.load_profile("raresig")
