"""Every module-level function and class of the package has a user.

A definition in ``src/rlcgrand/*.py`` must be exported in
``rlcgrand.__all__`` or referenced from the package itself, the
benchmark (``perfbench/``), the scripts (``scripts/``) or the frozen
acceptance tests.  Library code that only unit tests call fails here: it
belongs in the tests, or its tests belong on the public path.
"""

import ast
from pathlib import Path

import rlcgrand

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rlcgrand"
USERS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def referenced_names(path: Path) -> set[str]:
    """Names, attribute names and imported names used in a file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_definition_has_a_user():
    used = set(rlcgrand.__all__).union(*(referenced_names(p) for p in USERS))
    unused = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert unused == []
