"""The README's Quick start blocks run as written and print what they say."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_START = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick start")[1]
BLOCKS = re.findall(r"```python\n(.*?)```", QUICK_START.split("\n## ")[0], re.S)
PRINTED = [["|00> + |11>", "11"], ["(3, 5)", "True"]]


def test_quick_start_has_two_python_blocks():
    assert len(BLOCKS) == len(PRINTED)


@pytest.mark.parametrize("block, printed", zip(BLOCKS, PRINTED), ids=["state", "factor_search"])
def test_quick_start_block_prints_its_lines(block, printed):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.splitlines() == printed
