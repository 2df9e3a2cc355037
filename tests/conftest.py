"""Shared test set-up.

When a property fails, the Hypothesis plugin imports
`hypothesis.extra._patching` to explain the failure, and that module's
import of `libcst` raises a DeprecationWarning. Under the suite's
`filterwarnings = ["error"]` that warning would end the run with an
INTERNALERROR in place of the falsifying example. Importing the module once
here, with DeprecationWarning ignored for that import alone, keeps the
report; every other warning still fails the suite.
"""
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
