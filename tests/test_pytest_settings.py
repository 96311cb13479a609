"""A failing property-based test stays one failure under the suite's warning filters.

``filterwarnings`` in pyproject.toml turns every warning into an error. To
report a failing ``@given`` test, hypothesis imports libcst, whose import
warns that ``mypy_extensions.TypedDict`` is deprecated; unless that one
warning is ignored, the report raises and pytest ends the whole session
with an INTERNALERROR, running none of the tests after it.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after_it():
    pass
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_given.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
