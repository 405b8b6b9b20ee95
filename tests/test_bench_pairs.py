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


DECLARED = [
    {"name": "trials_per_s_norm", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def metric_runs(parent_rate, change_rate, pairs=4):
    """Alternating runs with constant metrics; 100 operations each."""
    out = []
    for pair in range(pairs):
        for side, rate in (("parent", parent_rate), ("change", change_rate)):
            out.append({"side": side, "pair": pair, "attempted": 100, "failed": 0,
                        "metrics": {"trials_per_s_norm": rate, "peak_rss_mb": 50.0}})
    return out


class TestVerdict:
    def test_a_shift_within_the_bound_passes(self):
        summary = load_script()._summarise(metric_runs(1000.0, 760.0), DECLARED)
        rate = summary["trials_per_s_norm"]
        assert rate["shift"] == -0.24 and not rate["worse_than_bound"]
        assert summary["peak_rss_mb"]["shift"] == 0.0
        assert summary["worse"] == []
        assert summary["operations"] == {
            "parent": {"attempted": 400, "failed": 0}, "change": {"attempted": 400, "failed": 0}
        }

    def test_a_shift_just_past_the_bound_is_worse(self):
        summary = load_script()._summarise(metric_runs(1000.0, 749.0), DECLARED)
        assert summary["trials_per_s_norm"]["shift"] == -0.251
        assert summary["trials_per_s_norm"]["worse_than_bound"]
        assert summary["worse"] == ["trials_per_s_norm"]

    def test_a_failed_operation_on_the_change_side_is_worse(self):
        runs = metric_runs(1000.0, 1100.0)
        runs[-1]["failed"] = 1
        summary = load_script()._summarise(runs, DECLARED)
        assert summary["trials_per_s_norm"]["shift"] > 0
        assert summary["operations"]["change"] == {"attempted": 400, "failed": 1}
        assert summary["worse"] == ["failed share"]
