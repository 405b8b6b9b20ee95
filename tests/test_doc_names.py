"""Every backticked dotted name in the package source and the README
resolves, when its head is a package module or a package class.

A name such as `gf2.Echelon` or `SyndromeSystem.search` in a docstring,
a comment or the README must name a module attribute or a class member
that exists, so a rename or a deletion cannot leave it behind.  File
names such as `search.py` are skipped.
"""

import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rlcgrand"
SOURCES = [*sorted(PACKAGE.glob("*.py")), ROOT / "README.md"]
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")

MODULES = {
    path.stem: importlib.import_module(f"rlcgrand.{path.stem}")
    for path in PACKAGE.glob("*.py")
    if path.stem != "__init__"
}
CLASSES = {
    name: cls
    for module in MODULES.values()
    for name, cls in inspect.getmembers(module, inspect.isclass)
    if cls.__module__.startswith("rlcgrand.")
}


def doc_names():
    """(file name, dotted name) of each backticked name with a package head."""
    for path in SOURCES:
        for name in DOTTED.findall(path.read_text()):
            head, *rest = name.split(".")
            if rest[-1] != "py" and (head in MODULES or head in CLASSES):
                yield path.name, name


def resolves(name: str) -> bool:
    head, *rest = name.split(".")
    obj = MODULES[head] if head in MODULES else CLASSES[head]
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_dotted_doc_names_resolve():
    names = list(doc_names())
    assert names
    assert [f"{file}: {name}" for file, name in names if not resolves(name)] == []


def test_a_stale_name_is_caught():
    # The names the benchmark's notes kept after their functions went.
    assert not resolves("simcli._trial_batch")
    assert not resolves("pipeline.repair_and_redecode")
    assert resolves("SyndromeSystem.search")
