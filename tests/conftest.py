"""Test-session settings shared by every test module."""
import contextlib
import warnings

from hypothesis import settings

# the property tests draw the same examples on every run and keep no example
# database, so a failure reproduces from the source alone
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# Hypothesis imports this module to report a failing property test, and its
# libcst import raises a DeprecationWarning that filterwarnings = ["error"] turns
# into an INTERNALERROR ending the session; imported once here, every failure is
# reported.  Without libcst, Hypothesis skips the import itself.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
