"""The suite's pytest settings, run against a throwaway test file."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_does_not_end_the_session(tmp_path):
    # Hypothesis's failure report warns on import of one of its dependencies;
    # under `filterwarnings = error` that used to abort the session there
    test_file = tmp_path / "test_throwaway.py"
    test_file.write_text(FAILING_PROPERTY)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(test_file)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
