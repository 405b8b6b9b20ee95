"""Every module-level function and class of the package has a user.

A definition in ``src/rlcgrand/*.py`` must be referenced from a package
module other than ``__init__.py``, the benchmark (``perfbench/``), the
scripts (``scripts/``), the frozen acceptance tests or the README's
library example.  Being exported in ``rlcgrand.__all__`` does not count:
the re-export is not a use.  Library code that only unit tests call
fails here: it belongs in the tests, or its tests belong on the public
path.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rlcgrand"
USERS = [
    *sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
README = ROOT / "README.md"


def referenced_names(source: str) -> set[str]:
    """Names, attribute names and imported names used in Python source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_definition_has_a_user():
    sources = [p.read_text() for p in USERS]
    sources += re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    used = set().union(*(referenced_names(s) for s in sources))
    unused = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert unused == []
