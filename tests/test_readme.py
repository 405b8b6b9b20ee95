"""The README's library example runs and prints what it says it prints,
and its Layout block names every module of the package."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_example_runs(capsys):
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    expected = [line[4:] for line in block.splitlines() if line.startswith("#   ")]
    assert expected
    assert capsys.readouterr().out.splitlines() == expected


def test_layout_names_every_module():
    [layout] = re.findall(r"## Layout\n\n```\n(.*?)```", README.read_text(), re.S)
    rows = re.findall(r"^  (\S+\.py) ", layout, re.M)
    modules = sorted(p.name for p in (ROOT / "src" / "rlcgrand").glob("*.py"))
    assert sorted(rows) == modules
