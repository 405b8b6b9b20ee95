"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibration  # noqa: E402
from layers import (  # noqa: E402
    LAYERS,
    check_against_records,
    layer_metrics,
    pass_counts,
    percentiles_ms,
    traced_pass,
)
from rlcgrand.simcli import SimRecord, run_experiment  # noqa: E402
from workloads import WORKLOADS, records_digest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_config():
    return dataclasses.replace(WORKLOADS["headline"].config(seed=3), trials=2)


@pytest.fixture(scope="module")
def records():
    return run_experiment(small_config())


class TestDigest:
    def test_ignores_wall_seconds(self, records):
        changed = [dataclasses.replace(r, wall_seconds=r.wall_seconds + 1.0) for r in records]
        assert records_digest(changed) == records_digest(records)

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(SimRecord) if f.name != "wall_seconds"]
    )
    def test_every_other_field_counts(self, records, field):
        first = records[0]
        value = getattr(first, field)
        other = value + "x" if isinstance(value, str) else value + 1
        changed = [dataclasses.replace(first, **{field: other})] + records[1:]
        assert records_digest(changed) != records_digest(records)

    def test_record_order_counts(self, records):
        assert records_digest(records[::-1]) != records_digest(records)


class TestPercentiles:
    def test_nearest_rank_with_sample_count(self):
        durations = [i / 1e3 for i in range(1, 101)]  # 1..100 ms
        stats = percentiles_ms(durations[::-1])
        assert stats == {"p50_ms": pytest.approx(50.0), "p99_ms": pytest.approx(99.0), "calls": 100}

    def test_single_and_empty_samples(self):
        assert percentiles_ms([0.002]) == {"p50_ms": 2.0, "p99_ms": 2.0, "calls": 1}
        assert percentiles_ms([])["calls"] == 0


class TestTrace:
    def test_two_trial_trace_agrees_with_run_experiment(self, records):
        result = traced_pass(small_config())
        assert result.trials == 2
        assert check_against_records(result, records) == []
        assert sum(result.layer_seconds.values()) <= result.trial_seconds
        assert set(result.layer_seconds) == set(LAYERS)

    def test_disagreement_is_reported(self, records):
        result = traced_pass(small_config())
        bumped = [dataclasses.replace(records[-1], successes=records[-1].successes + 1)]
        assert check_against_records(result, records[:-1] + bumped)
        assert check_against_records(result, records[:-1])

    def test_metric_names_match_benchmark_json(self):
        result = traced_pass(small_config())
        names = set(layer_metrics([result])) | set(pass_counts([result])) | {"simcli.busy_fraction"}
        assert names == {m["name"] for m in SPEC["per_layer"]}


class TestCalibration:
    def test_kernel_checksum_and_no_program_import(self):
        code = (
            "import sys, calibration; calibration.timed_kernel(); "
            "print(any(m.startswith('rlcgrand') for m in sys.modules))"
        )
        out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"
        assert calibration.kernel() == calibration.CHECKSUM


class TestCommand:
    def test_end_to_end_run_prints_declared_metrics(self):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "headline", "--seed", "1",
             "--seconds", "0", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]
        }

    def test_fails_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "headline", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=180,
        )
        assert out.returncode != 0
        assert out.stdout == ""
