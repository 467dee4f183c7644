"""The README's examples run as written."""

import re

from conftest import ROOT

README = ROOT / "README.md"


def test_the_library_use_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    exec(compile(block, f"{README}:Library use", "exec"), {})
