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


def paired_runs(parent_rates, change_rates, peak=50.0):
    """Alternating runs with the given trials_per_s_norm values, pair by pair."""
    out = []
    for pair, (p, c) in enumerate(zip(parent_rates, change_rates)):
        for side, rate in (("parent", p), ("change", c)):
            out.append({"side": side, "pair": pair, "attempted": 100, "failed": 0,
                        "metrics": {"trials_per_s_norm": rate, "peak_rss_mb": peak}})
    return out


# Quartiles 101.75 and 107.25 (statistics.quantiles), so the IQR is 5.5.
PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


class TestGainRule:
    """A metric meets the gain rule when the change won at least 9 of 10
    pairs and its median beats the parent's by more than the parent's
    interquartile range."""

    def test_nine_wins_and_a_gap_past_the_iqr_meet_it(self):
        change = [p + 6.0 for p in PARENT]
        change[3] = PARENT[3] - 1.0  # one pair lost
        rate = load_script()._summarise(paired_runs(PARENT, change), DECLARED)["trials_per_s_norm"]
        assert (rate["change_wins"], rate["pairs"]) == (9, 10)
        assert rate["meets_gain_rule"]

    def test_eight_wins_do_not(self):
        change = [p + 10.0 for p in PARENT]
        change[3], change[7] = PARENT[3] - 1.0, PARENT[7] - 1.0
        rate = load_script()._summarise(paired_runs(PARENT, change), DECLARED)["trials_per_s_norm"]
        assert rate["change_wins"] == 8 and rate["shift"] > 0
        assert not rate["meets_gain_rule"]

    def test_a_gap_within_the_iqr_does_not(self):
        change = [p + 5.0 for p in PARENT]  # 10/10 pairs won, gap 5 < IQR 5.5
        rate = load_script()._summarise(paired_runs(PARENT, change), DECLARED)["trials_per_s_norm"]
        assert rate["change_wins"] == 10
        assert not rate["meets_gain_rule"]

    def test_lower_is_better_counts_a_drop_as_the_gain(self):
        runs = paired_runs(PARENT, PARENT)
        for r in runs:
            if r["side"] == "change":
                r["metrics"]["peak_rss_mb"] = 45.0
        summary = load_script()._summarise(runs, DECLARED)
        assert summary["peak_rss_mb"]["meets_gain_rule"]
        assert not summary["trials_per_s_norm"]["meets_gain_rule"]  # all ties

    def test_the_printed_line_states_it(self, capsys):
        script = load_script()
        change = [p + 6.0 for p in PARENT]
        summary = script._summarise(paired_runs(PARENT, change), DECLARED)
        summary["digests"] = script._compare_digests(
            [{**r, "digest": "a"} for r in paired_runs(PARENT, change)]
        )
        script._print_summary("deficit", 1, summary)
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("  trials_per_s_norm") and "gain rule met" in line
                   for line in lines)
        assert any(line.startswith("  peak_rss_mb") and "gain rule not met" in line
                   for line in lines)
