"""Regenerate tests/fixtures/golden_trials.json.

The fixture freezes full traces of two simulator trials so that any
change to the seeded streams, the channel, or the decoders shows up as
a test failure.  Run from the repository root:

    python scripts/regen_golden_fixture.py
"""

import json
from pathlib import Path

from rlcgrand.simcli import SimConfig, _trials, run_trial

CASES = [
    # Minimal configuration, pinned as the primary version-stability probe.
    ("minimal", SimConfig(k=2, n_list=(3,), b=4, eps=0.05, burst_len=4.0, trials=1, master_seed=1), 3, 0),
    # A trial where likelihood-ordered repair rescues the decode but
    # weight-ordered repair does not.
    ("repairing", SimConfig(k=3, n_list=(6,), b=24, eps=0.08, burst_len=3.0, trials=17, master_seed=1), 6, 16),
]


def trace_case(config: SimConfig, n: int, trial_index: int) -> dict:
    gen, batch = next(_trials(config, n, trial_index, trial_index + 1))
    trace = {
        "config": {
            "k": config.k, "n": n, "b": config.b, "eps": config.eps,
            "burst_len": config.burst_len, "master_seed": config.master_seed,
            "trial_index": trial_index,
        },
        "generator": gen.matrix.to_rows(),
        "truth_x": batch.truth_x.to_rows(),
        "received_y": batch.y.to_rows(),
        "clean_rows": list(batch.r),
        "outcomes": {},
    }
    for decoder in ("rlc", "sd", "tgrand"):
        out = run_trial(config, n, decoder, trial_index)
        trace["outcomes"][decoder] = {
            "success": out.success,
            "u_hat": out.u_hat.to_rows() if out.u_hat is not None else None,
            "nu": out.nu,
            "queries_total": out.queries_total,
            "rank_before": out.rank_before,
            "rank_after": out.rank_after,
        }
    return trace


def main():
    fixture = {name: trace_case(cfg, n, t) for name, cfg, n, t in CASES}
    path = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "golden_trials.json"
    path.write_text(json.dumps(fixture, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
