"""Shared test settings.

Property tests run a fixed, derandomized set of examples with no time
limit, so tier-1 gives the same result on every run and on a busy machine.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
