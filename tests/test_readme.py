"""Every ``python`` block of README.md runs as written, each in a fresh
namespace."""

import re

from conftest import ROOT

BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    assert len(BLOCKS) >= 3
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), {})
