"""Test-wide settings and shared fixtures.

Every hypothesis test draws the same examples on every run: a derandomized
default profile with no example database and no deadline. A test's own
@settings still override these field by field.
"""

import json

import pytest
from hypothesis import settings

settings.register_profile("solvkit", database=None, derandomize=True,
                          deadline=None)
settings.load_profile("solvkit")


@pytest.fixture
def unreadable_files(tmp_path):
    """(path, SchemaError message) for a missing file and a non-JSON file."""
    missing = str(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    try:
        json.loads("{not json")
    except json.JSONDecodeError as e:
        decode_error = str(e)
    return [(missing, "cannot read %s: [Errno 2] No such file or directory: "
                      "'%s'" % (missing, missing)),
            (str(bad), "%s is not valid JSON: %s" % (bad, decode_error))]
