"""The library examples of README.md run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    # optimize=0 keeps the examples' asserts under python -O
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec", optimize=0), {})
