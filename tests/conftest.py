"""Test-wide settings.

Every hypothesis test draws the same examples on every run: a derandomized
default profile with no example database and no deadline. A test's own
@settings still override these field by field.
"""

from hypothesis import settings

settings.register_profile("solvkit", database=None, derandomize=True,
                          deadline=None)
settings.load_profile("solvkit")
