"""The README's "Library quickstart" block runs against the current API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Library quickstart'"
    exec(compile(block.group(1), str(README), "exec"), {})
    predicted, measured = map(float, capsys.readouterr().out.split())
    assert predicted > 0 and measured > 0
