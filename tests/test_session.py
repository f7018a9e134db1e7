"""The test session reports every failure, property tests included."""
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

TWO_FAILURES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_failing_plain_test():
    assert False
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # a failing @given test, then a failing plain one, under this repository's
    # pytest settings and session conftest: both run, and both are reported
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_two.py").write_text(TWO_FAILURES)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_two.py")],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert "2 failed" in run.stdout, run.stdout + run.stderr
    assert run.returncode == 1
