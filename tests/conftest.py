"""Test-session settings shared by every test module."""
from hypothesis import settings

# the property tests draw the same examples on every run and keep no example
# database, so a failure reproduces from the source alone
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
