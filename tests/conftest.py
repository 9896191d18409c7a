"""Shared test settings.

Hypothesis runs under one fixed profile: examples are derived from each
test's source instead of a random seed, no example database is kept, and
the example count is bounded, so the suite gives the same result every
run and its time stays bounded.  A test's own ``@settings`` still
overrides single fields.  Hypothesis's remaining on-disk cache (constants
read from the source) goes to a temporary directory that is removed when
the test session ends, so no ``.hypothesis/`` directory is written into
the working tree and none is left behind in the temporary directory.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("wresbd", derandomize=True, database=None,
                          deadline=None, max_examples=100)
settings.load_profile("wresbd")

_HOME = tempfile.TemporaryDirectory(prefix="wresbd-hypothesis-")
set_hypothesis_home_dir(_HOME.name)


def pytest_sessionfinish(session, exitstatus):
    # explicit, so the interpreter does not warn about an implicit cleanup
    _HOME.cleanup()
