"""The README's library example runs and prints what it says it prints."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    expected = [line[4:] for line in block.splitlines() if line.startswith("#   ")]
    assert expected
    assert capsys.readouterr().out.splitlines() == expected
