"""Paired benchmark runs: a parent commit against the working tree.

    python3 scripts/bench_pairs.py --base HEAD~1 --pr N --seeds 1,23

The committed files of ``--base`` are exported with ``git archive`` into
a temporary directory, so the parent side runs exactly what its commit
holds and the repository's own ``.git`` is left as it was.  For each
workload named in the working tree's ``BENCHMARK.json`` and each seed,
the script then runs ``perfbench/run.py --trace 0`` at the file's
``run_seconds`` in the parent tree and in the working tree, one process
at a time, for ten pairs, alternating which side runs first (the parent
goes first in even pairs).

For every end-to-end metric declared in ``BENCHMARK.json`` it prints each
side's median and quartiles, the number of pairs the change won (ties
count for neither side), the change's median shift relative to the
parent's (positive is better), whether that shift is worse than the
metric's ``bound``, and whether the change meets the gain rule: it won
at least 9 of every 10 pairs, and its median is better than the
parent's by more than the parent's interquartile range.  It also prints
each side's attempted and failed operations, summed over its runs.  It writes ``BENCH_<pr>.json`` at the
repository root with every run's metrics, digest and correctness.  Each
side is identified by the git tree hash of its ``src/``, which for the
working tree is computed from the files on disk, so a record made before
the change is committed still names the code it measured: it equals
``git rev-parse <commit>:src`` of the commit that holds that code.

Every run of both sides at one (workload, seed) must report the same
records digest: at a seed with no entry in ``perfbench/digests.json``
that comparison is the only proof that the change's records equal the
parent's.  Each benchmark's summary records the outcome under
``digests``; differing digests are printed.  The script exits 1 if any
run was not correct, any (workload, seed) produced more than one digest,
or, at any (workload, seed), a metric is worse than its bound or the
change failed a larger share of its operations than the parent: the
verdict the benchmark's pipeline applies to a change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared, seconds = bench["end_to_end"], bench["run_seconds"]
    base_commit = _git("rev-parse", args.base)
    record = {
        "base": {"ref": args.base, "commit": base_commit,
                 "src_tree": _git("rev-parse", f"{base_commit}:src")},
        "change": {"head": _git("rev-parse", "HEAD"), "src_tree": _worktree_src_tree(),
                   "dirty": bool(_git("status", "--porcelain"))},
        "seconds": seconds,
        "pairs": PAIRS,
        "benchmarks": [],
    }
    all_correct = identical = within_bounds = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        parent = Path(tmp)
        archive = subprocess.run(
            ["git", "archive", base_commit], cwd=ROOT, stdout=subprocess.PIPE, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        trees = {"parent": parent, "change": ROOT}
        for workload in (w["name"] for w in bench["workloads"]):
            for seed in (int(s) for s in args.seeds.split(",")):
                runs = []
                for pair in range(PAIRS):
                    sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                    for side in sides:
                        run = _run(trees[side], workload, seed, seconds)
                        run.update(side=side, pair=pair)
                        all_correct &= run["correct"]
                        runs.append(run)
                        print(f"{workload} seed={seed} pair={pair} {side}: "
                              f"correct={run['correct']} {run['metrics']}", flush=True)
                summary = _summarise(runs, declared)
                summary["digests"] = _compare_digests(runs)
                identical &= summary["digests"]["identical"]
                within_bounds &= not summary["worse"]
                record["benchmarks"].append(
                    {"workload": workload, "seed": seed, "summary": summary, "runs": runs}
                )
                _print_summary(workload, seed, summary)
                record["host"] = runs[-1]["manifest"]
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all_correct and identical and within_bounds else 1


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    p.add_argument("--base", required=True, help="git ref of the parent commit")
    p.add_argument("--pr", required=True, type=int, help="number in the output file name")
    p.add_argument("--seeds", default="1", help="comma-separated workload seeds")
    return p


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    ).stdout.strip()


def _worktree_src_tree() -> str:
    """Git tree hash of ``src/`` as it is on disk, staged or not, built in a
    throwaway index so the repository's own index is left as it was."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        for cmd in (["add", "--", "src"], ["write-tree", "--prefix=src/"]):
            out = subprocess.run(["git", *cmd], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                 text=True, check=True).stdout.strip()
    return out


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its metrics,
    digest and correctness, read from its last two lines of output."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {"correct": False, "returncode": proc.returncode, "metrics": {},
                "digest": None, "manifest": None}
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "correct": result["correct"] and proc.returncode == 0,
        "returncode": proc.returncode,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": detail["digest"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "manifest": detail["manifest"],
    }


def _summarise(runs: list[dict], declared: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the change's wins, its
    median shift against its bound, and whether it meets the gain rule (9
    of 10 pairs won, a median gap above the parent's interquartile range).
    Per side: the operations attempted and failed.  Under ``worse``: each
    metric worse than its bound, and "failed share" if the change failed a
    larger share than the parent."""
    summary = {}
    for m in declared:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        values = {
            side: [r["metrics"][name] for r in runs if r["side"] == side and name in r["metrics"]]
            for side in ("parent", "change")
        }
        by_pair = {}
        for r in runs:
            if name in r["metrics"]:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]
        complete = [p for p in by_pair.values() if len(p) == 2]
        entry = {"better": m["better"], "unit": m["unit"], "pairs": len(complete)}
        entry["change_wins"] = sum(sign * (p["change"] - p["parent"]) > 0 for p in complete)
        entry["parent_wins"] = sum(sign * (p["parent"] - p["change"]) > 0 for p in complete)
        for side, vals in values.items():
            entry[side] = _spread(vals)
        if entry["parent"] and entry["change"]:
            parent, change = entry["parent"]["median"], entry["change"]["median"]
            entry["shift"] = (change - parent if sign > 0 else parent - change) / parent
            entry["worse_than_bound"] = entry["shift"] < -m["bound"]
            entry["meets_gain_rule"] = (
                10 * entry["change_wins"] >= 9 * len(complete)
                and sign * (change - parent) > entry["parent"]["q3"] - entry["parent"]["q1"]
            )
        summary[name] = entry
    ops = {
        side: {key: sum(r.get(key, 0) for r in runs if r["side"] == side)
               for key in ("attempted", "failed")}
        for side in ("parent", "change")
    }
    summary["worse"] = [name for name, e in summary.items() if e.get("worse_than_bound")]
    if _failed_share(ops["change"]) > _failed_share(ops["parent"]):
        summary["worse"].append("failed share")
    summary["operations"] = ops
    return summary


def _failed_share(ops: dict) -> float:
    return ops["failed"] / ops["attempted"] if ops["attempted"] else 0.0


def _compare_digests(runs: list[dict]) -> dict:
    """Whether every run of both sides reported one records digest, and
    how many runs of each side reported each digest."""
    counts = {side: {} for side in ("parent", "change")}
    for r in runs:
        digest = str(r["digest"])
        counts[r["side"]][digest] = counts[r["side"]].get(digest, 0) + 1
    digests = {r["digest"] for r in runs}
    return {"identical": len(digests) == 1 and None not in digests, **counts}


def _spread(values: list[float]) -> dict:
    if not values:
        return {}
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _print_summary(workload: str, seed: int, summary: dict) -> None:
    print(f"== {workload} seed={seed}")
    digests = summary["digests"]
    if digests["identical"]:
        print(f"  records: one digest over {sum(digests['parent'].values())} parent "
              f"and {sum(digests['change'].values())} change runs")
    else:
        for side in ("parent", "change"):
            print(f"  records DIFFER, {side} digests (runs): {digests[side]}")
    for side in ("parent", "change"):
        ops = summary["operations"][side]
        print(f"  {side} operations: {ops['attempted']} attempted, {ops['failed']} failed")
    for name, s in summary.items():
        if name in ("digests", "operations", "worse"):
            continue
        p, c = s["parent"], s["change"]
        if not p or not c:
            print(f"  {name}: incomplete")
            continue
        print(f"  {name} ({s['unit']}, {s['better']} is better): "
              f"parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
              f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
              f"change won {s['change_wins']}/{s['pairs']}  shift {s['shift']:+.1%}  "
              f"gain rule {'met' if s['meets_gain_rule'] else 'not met'}"
              f"{'  WORSE THAN BOUND' if s['worse_than_bound'] else ''}", flush=True)
    if summary["worse"]:
        print(f"  worse than the parent: {', '.join(summary['worse'])}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
