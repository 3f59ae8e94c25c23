"""Suite-wide test settings: every hypothesis test draws the same examples on every run."""

from hypothesis import settings

# derandomize seeds each test from a hash of its own code (and implies no
# example database); each test keeps its own max_examples.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
