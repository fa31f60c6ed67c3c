"""The test configuration reports every test, even after a failing
property test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY_THEN_PASSING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5)
@given(st.integers(0, 10))
def test_property_fails(x):
    assert x < 0


def test_plain_passes():
    assert True
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # the hypothesis plugin's report hook raises a DeprecationWarning when
    # a @given test fails; the project's warning filters must let the
    # session go on to the next test
    path = tmp_path / "test_sample.py"
    path.write_text(FAILING_PROPERTY_THEN_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1], done.stdout[-2000:]
    assert done.returncode == 1
