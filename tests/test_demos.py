from pathlib import Path

import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


def test_demos_are_found():
    assert DEMOS, "no demos/*.py found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo: Path):
    done = run_python(str(demo))
    assert done.returncode == 0, done.stderr
    # byte for byte the stdout recorded in tests/golden/demo-<name>.txt
    expected = (GOLDEN / f"demo-{demo.stem}.txt").read_text(encoding="utf-8")
    assert done.stdout == expected
