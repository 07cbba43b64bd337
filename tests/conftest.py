"""Hypothesis settings for the test suite: derandomized, so every run draws
the same examples, with a small example budget and no example database.
Hypothesis also caches the constants it reads from the source; that cache
goes to a temporary directory, removed explicitly when pytest unconfigures,
so a test run leaves no .hypothesis/ directory behind and no implicit
cleanup warning."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_storage.name)

settings.register_profile("suite", derandomize=True, deadline=None,
                          database=None, max_examples=50)
settings.load_profile("suite")


def pytest_unconfigure(config):
    _storage.cleanup()
