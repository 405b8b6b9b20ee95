"""Every function, class and class member of the package has a user.

A module-level definition in ``src/rlcgrand/*.py``, and every method,
classmethod and property of its classes (dunders excepted), must be
referenced from a package module, the benchmark (``perfbench/``),
the scripts (``scripts/``), the frozen acceptance tests or the README's
library example.  Library code that only unit tests call fails here: it
belongs in the tests, or its tests belong on the public path.

The package root re-exports nothing: ``__init__.py`` holds only its
docstring, and every name is imported from the module that defines it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rlcgrand"
USERS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
README = ROOT / "README.md"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def definitions(module: ast.Module):
    """(qualified name, name) of each module-level function and class, and
    of each non-dunder function defined in a class body."""
    for node in module.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, FUNCTIONS) and not re.fullmatch(r"__\w+__", member.name):
                    yield f"{node.name}.{member.name}", member.name


def test_every_definition_has_a_user():
    sources = [p.read_text() for p in USERS]
    sources += re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    used = set().union(*(referenced_names(s) for s in sources))
    unused = [
        f"{path.name}:{qualified}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, name in definitions(ast.parse(path.read_text(), str(path)))
        if name not in used
    ]
    assert unused == []


def test_package_root_is_only_its_docstring():
    module = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(module)
    assert len(module.body) == 1
