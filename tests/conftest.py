"""One hypothesis profile for every run, local or CI: a fixed example
sequence and no per-example deadline, so a property test cannot flake on a
slow runner or turn up a new example between two runs."""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, deadline=None)
settings.load_profile("fixed")
