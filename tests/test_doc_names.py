"""Every backticked name in the package source, the scripts, the test
oracles and the README that names package code resolves.

A dotted name such as `gf2.Echelon` or `SyndromeSystem.search` in a
docstring, a comment or the README, whose head is a package module or a
package class, must name a module attribute or a class member that
exists.  A bare CamelCase or UPPER_CASE name such as `LikelihoodOrder`,
`MEMO_MASKS` or `ValueError` must be an attribute of a package module or
a builtin.  So a rename or a deletion cannot leave a name behind.  File
names such as `search.py` are skipped.
"""

import builtins
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rlcgrand"
SOURCES = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    ROOT / "tests" / "oracles.py",
    ROOT / "README.md",
]
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
BARE = re.compile(r"`([A-Z](?:[a-z]\w*|[A-Z0-9]+(?:_[A-Z0-9]+)*))`")

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


def bare_names():
    """(file name, name) of each backticked bare CamelCase or UPPER_CASE name."""
    for path in SOURCES:
        for name in BARE.findall(path.read_text()):
            yield path.name, name


def resolves(name: str) -> bool:
    head, *rest = name.split(".")
    if not rest:
        return hasattr(builtins, head) or any(hasattr(m, head) for m in MODULES.values())
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


def test_bare_doc_names_resolve():
    names = list(bare_names())
    assert names
    assert [f"{file}: {name}" for file, name in names if not resolves(name)] == []


def test_a_stale_name_is_caught():
    # The names the benchmark's notes kept after their functions went, a
    # class folded into another, and the driver's chunk that became a pass.
    assert not resolves("simcli._trial_batch")
    assert not resolves("simcli._run_chunk")
    assert not resolves("simcli._CHUNK")
    assert resolves("simcli._run_pass")
    assert not resolves("pipeline.repair_and_redecode")
    assert not resolves("SearchCore")
    assert BARE.findall("`SearchCore`, ``MEMO_MASKS``, `G_R`, `s`") == ["SearchCore", "MEMO_MASKS"]
    assert resolves("SyndromeSystem.search")
    assert resolves("SyndromeSystem") and resolves("ValueError")
