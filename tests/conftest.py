"""Shared test settings.

Property tests run derandomized, so every run draws the same examples, and
without a per-example deadline, since timing varies on a loaded host.
"""

from hypothesis import settings

settings.register_profile("microfreq", deadline=None, derandomize=True)
settings.load_profile("microfreq")
