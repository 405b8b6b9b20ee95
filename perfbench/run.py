"""rlcgrand benchmark: end-to-end trial throughput, or a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload headline --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: normalised trial
throughput, set-up time and peak memory.  With ``--trace 1`` it reports
the per-layer metrics from a traced replay of the same trials.  Either
way every block of work is checked against the records digest (and, at
the default seed, against the digest in ``digests.json``), the traced
replay must agree with the untraced records, and every successful decode
must return the true source packets.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the raw timings.  README.md beside
this file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

# Fresh interpreters timed for setup_s; one more runs first, untimed, so
# that byte-code compilation of a fresh checkout is not counted.
SETUP_RUNS = 7
# Calibration kernel runs in each set-up interpreter.
SETUP_CALIBRATIONS = 3
CHILD_TIMEOUT_S = 120


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "rlcgrand" / "__init__.py").is_file():
        print(f"error: no rlcgrand package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.role == "setup":
        return _setup_child(args)
    if args.role == "measure":
        return _measure_child(args)
    if not SPEC_PATH.is_file():
        print(f"error: {SPEC_PATH} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if args.trace:
        detail, result = _traced_run(args)
        declared = spec["per_layer"]
    else:
        detail, result = _end_to_end_run(args)
        declared = spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json")
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the benchmark re-runs this file in child processes.
    p.add_argument("--role", choices=("main", "setup", "measure"), default="main",
                   help=argparse.SUPPRESS)
    p.add_argument("--launched", type=float, default=0.0, help=argparse.SUPPRESS)
    return p


def _setup_child(args) -> int:
    """Time from interpreter launch to the end of the workload's first trial."""
    import dataclasses

    from rlcgrand.simcli import run_experiment
    from workloads import WORKLOADS

    config = WORKLOADS[args.workload].configs(args.seed)[0]
    run_experiment(dataclasses.replace(config, n_list=config.n_list[:1], trials=1))
    setup_s = time.monotonic() - args.launched

    from calibration import timed_kernel

    calib = statistics.median(timed_kernel() for _ in range(SETUP_CALIBRATIONS))
    print(json.dumps({"setup_s": setup_s, "calibration_s": calib}))
    return 0


def _measure_child(args) -> int:
    """Alternate calibration kernel and workload blocks for the run's seconds."""
    from calibration import timed_kernel
    from layers import check_against_records, traced_pass
    from rlcgrand.simcli import run_experiment
    from workloads import WORKLOADS, expected_digest, records_digest

    workload = WORKLOADS[args.workload]
    configs = workload.configs(args.seed)
    n = workload.trials_per_block
    problems: list[str] = []
    attempted = failed = 0
    blocks: list[float] = []
    calibration = [timed_kernel()]
    first_cycle: list[list] = []
    try:
        # The replay fills the search caches before timing starts and is
        # the reference the first cycle's records are checked against.
        replays = [traced_pass(config) for config in configs]
        attempted += n * len(configs)
        deadline = time.perf_counter() + args.seconds
        while not first_cycle or time.perf_counter() < deadline:
            for j, config in enumerate(configs):
                attempted += n
                t0 = time.perf_counter()
                records = run_experiment(config)
                blocks.append(time.perf_counter() - t0)
                calibration.append(timed_kernel())
                if len(first_cycle) < len(configs):
                    first_cycle.append(records)
                    mismatches = check_against_records(replays[j], records)
                elif records_digest(records) != records_digest(first_cycle[j]):
                    mismatches = [f"block {len(blocks)} digest differs from its first run"]
                else:
                    mismatches = []
                if mismatches:
                    problems.extend(mismatches)
                    failed += n
    except Exception as exc:  # a block that raises fails the run, reported below
        problems.append(f"{type(exc).__name__}: {exc}")
        failed = attempted
    digest = records_digest([r for records in first_cycle for r in records])
    expected = expected_digest(args.workload, args.seed)
    if expected is not None and digest != expected:
        problems.append(f"records digest {digest} != expected {expected}")
        failed = attempted
    print(json.dumps({
        "digest": digest,
        "blocks_s": blocks,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }))
    return 0


def _run_child(args, role: str) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--role", role,
        "--launched", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S + (args.seconds if role == "measure" else 0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end_run(args):
    from calibration import REFERENCE_SECONDS
    from workloads import WORKLOADS, expected_digest

    workload = WORKLOADS[args.workload]
    _run_child(args, "setup")
    setups = [_run_child(args, "setup") for _ in range(SETUP_RUNS)]
    m = _run_child(args, "measure")

    calib = m["calibration_s"]
    raw = [workload.trials_per_block / b for b in m["blocks_s"]]
    # Each block is rescaled by the mean of the calibrations on either side.
    norm = [
        r * (calib[i] + calib[i + 1]) / 2 / REFERENCE_SECONDS for i, r in enumerate(raw)
    ]
    setup_norm = [s["setup_s"] * REFERENCE_SECONDS / s["calibration_s"] for s in setups]
    attempted, failed = m["attempted"], m["failed"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": m["digest"],
        "expected_digest": expected_digest(args.workload, args.seed),
        "problems": m["problems"],
        "error_rate": failed / attempted,
        "trials_per_block": workload.trials_per_block,
        "blocks_s": m["blocks_s"],
        "calibration_s": calib,
        "trials_per_s_raw": statistics.median(raw),
        "trials_per_s_norm_quartiles": _quartiles(norm),
        "trials_per_s_norm_samples": len(norm),
        "setup_raw_s": [s["setup_s"] for s in setups],
        "setup_calibration_s": [s["calibration_s"] for s in setups],
        "setup_samples": len(setups),
        "manifest": _manifest(),
    }
    result = {
        "correct": failed == 0 and not m["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "trials_per_s_norm": statistics.median(norm),
            "setup_s": statistics.median(setup_norm),
            "peak_rss_mb": m["peak_rss_mb"],
        },
    }
    return detail, result


def _traced_run(args):
    from layers import check_against_records, layer_metrics, pass_counts, traced_pass
    from rlcgrand.simcli import run_experiment
    from workloads import WORKLOADS, expected_digest, records_digest

    workload = WORKLOADS[args.workload]
    configs = workload.configs(args.seed)
    n = workload.trials_per_block
    problems: list[str] = []
    attempted = 0
    passes, busy, untraced_ms = [], [], []
    first_cycle: list[list] = []
    deadline = time.perf_counter() + args.seconds
    try:
        while not first_cycle or time.perf_counter() < deadline:
            cycle = []
            for j, config in enumerate(configs):
                attempted += 2 * n
                t0 = time.perf_counter()
                records = run_experiment(config)
                elapsed = time.perf_counter() - t0
                busy.append(sum(r.wall_seconds for r in records) / (config.workers * elapsed))
                untraced_ms.append(elapsed * 1e3 / n)
                if len(first_cycle) < len(configs):
                    first_cycle.append(records)
                elif records_digest(records) != records_digest(first_cycle[j]):
                    problems.append(f"untraced block {len(busy)} digest differs from its first run")
                p = traced_pass(config)
                problems.extend(check_against_records(p, records))
                cycle.append(p)
            if passes and pass_counts(cycle) != pass_counts(passes[: len(configs)]):
                problems.append("a traced cycle's counts differ from the first cycle's")
            passes.extend(cycle)
    except Exception as exc:  # a block that raises fails the run, reported below
        problems.append(f"{type(exc).__name__}: {exc}")
    if not passes:
        raise RuntimeError(f"no traced cycle completed: {problems}")
    digest = records_digest([r for records in first_cycle for r in records])
    expected = expected_digest(args.workload, args.seed)
    if expected is not None and digest != expected:
        problems.append(f"records digest {digest} != expected {expected}")
    metrics = layer_metrics(passes)
    metrics.update(pass_counts(passes[: len(configs)]))
    metrics["simcli.busy_fraction"] = statistics.median(busy)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": digest,
        "expected_digest": expected,
        "problems": problems,
        "traced_passes": len(passes),
        "trials_per_pass": n,
        "untraced_ms_per_trial": statistics.median(untraced_ms),
        "tracing_overhead_share": metrics["trace.ms_per_trial"] / statistics.median(untraced_ms) - 1,
        "manifest": _manifest(),
    }
    failed = attempted if problems else 0
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def _manifest() -> dict:
    import numpy

    from calibration import REFERENCE_SECONDS

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "calibration_reference_s": REFERENCE_SECONDS,
    }


if __name__ == "__main__":
    sys.exit(main())
