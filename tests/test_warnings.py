"""The warnings settings of ``pyproject.toml`` turn every warning into an
error, as the suite runs under ``-W error``, and still let a failing
property test report its falsifying example instead of stopping the run."""

import pytest

from conftest import ROOT, run_python

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_failing_property_test_reports_its_falsifying_example(tmp_path):
    pytest.importorskip("hypothesis")
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(FAILING_PROPERTY)
    done = run_python("-W", "error", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                      "-c", str(ROOT / "pyproject.toml"), str(test_file))
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output, output
    assert "Falsifying example" in output, output
    assert "1 failed" in output, output
