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


REPEATED_IDS = ('import pytest\n@pytest.mark.parametrize("x", [1, 2], ids=["a", "a"])\n'
                'def test_repeated(x):\n    pass\n')


def run_throwaway(tmp_path, source):
    """pytest under the suite's settings on a test file holding `source`."""
    test_file = tmp_path / "test_throwaway.py"
    test_file.write_text(source)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(test_file)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )


def test_failing_property_does_not_end_the_session(tmp_path):
    # Hypothesis's failure report warns on import of one of its dependencies;
    # under `filterwarnings = error` that used to abort the session there
    run = run_throwaway(tmp_path, FAILING_PROPERTY)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_repeated_parametrize_ids_are_a_collection_error(tmp_path):
    # strict mode: without it both cases run, pytest suffixing the ids
    run = run_throwaway(tmp_path, REPEATED_IDS)
    assert run.returncode == 2, run.stdout
    assert "Duplicate parametrization IDs" in run.stdout and "passed" not in run.stdout
