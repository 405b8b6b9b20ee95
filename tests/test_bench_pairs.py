import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def runs(parent, change):
    """Alternating run dicts with the given digests, one list per side."""
    out = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        out += [{"side": "parent", "pair": pair, "digest": p},
                {"side": "change", "pair": pair, "digest": c}]
    return out


class TestCompareDigests:
    def test_one_digest_on_both_sides_is_identical(self):
        got = load_script()._compare_digests(runs(["a"] * 3, ["a"] * 3))
        assert got == {"identical": True, "parent": {"a": 3}, "change": {"a": 3}}

    def test_change_side_differs(self):
        got = load_script()._compare_digests(runs(["a"] * 3, ["b"] * 3))
        assert got == {"identical": False, "parent": {"a": 3}, "change": {"b": 3}}

    def test_one_run_differs_within_a_side(self):
        got = load_script()._compare_digests(runs(["a", "a", "c"], ["a"] * 3))
        assert got == {"identical": False, "parent": {"a": 2, "c": 1}, "change": {"a": 3}}

    def test_a_run_without_output_is_not_identical(self):
        got = load_script()._compare_digests(runs([None, None], [None, None]))
        assert got == {"identical": False, "parent": {"None": 2}, "change": {"None": 2}}
