"""Shared test settings.

Property tests run a fixed, derandomized set of examples with no time
limit, so tier-1 gives the same result on every run and on a busy machine.
"""

import warnings

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# A failing property makes hypothesis import its patch writer, whose libcst
# import warns (DeprecationWarning); under -W error that warning would end the
# run in INTERNALERROR instead of printing the falsifying example.  So import
# it once here, with that warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
