"""The benchmark's workloads and the records digest that proves a run correct.

Every workload is a fixed ``SimConfig`` shape: K=10, B=64, burst length 4
and all three decoders.  A *block* is one ``run_experiment`` call on it.
A block takes well under a second, so one run holds dozens of blocks and
their median is stable.  The cost of a trial varies a lot from trial to
trial, so a run cycles through ``SUB_SEEDS`` master seeds derived from its
``--seed``: the run then covers ``SUB_SEEDS`` times as many distinct trials
as one block, and its median moves far less from one ``--seed`` to the
next.  Each sub-seed's block is identical work every time it recurs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from rlcgrand.simcli import SimConfig, SimRecord

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 1
SUB_SEEDS = 8


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n_list: tuple[int, ...]
    eps: float
    trials: int

    def config(self, seed: int) -> SimConfig:
        """The block configuration for one master seed."""
        return SimConfig(
            k=10,
            n_list=self.n_list,
            b=64,
            eps=self.eps,
            burst_len=4.0,
            decoders=("rlc", "sd", "tgrand"),
            trials=self.trials,
            master_seed=seed,
        )

    def configs(self, seed: int) -> list[SimConfig]:
        """The block configurations one run cycles through."""
        return [self.config(seed * SUB_SEEDS + j) for j in range(SUB_SEEDS)]

    @property
    def trials_per_block(self) -> int:
        """Trials in one block, counting each N separately."""
        return self.trials * len(self.n_list)


# Why each workload is here is recorded in README.md beside this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("headline", n_list=(20,), eps=0.05, trials=100),
        Workload("lowerr_sweep", n_list=tuple(range(10, 21)), eps=0.01, trials=40),
        Workload("deficit", n_list=(11,), eps=0.05, trials=400),
    )
}

_DIGEST_FIELDS = tuple(
    f.name for f in dataclasses.fields(SimRecord) if f.name != "wall_seconds"
)


def records_digest(records: list[SimRecord]) -> str:
    """SHA-256 of the records with every field except ``wall_seconds``."""
    rows = [[getattr(r, name) for name in _DIGEST_FIELDS] for r in records]
    payload = json.dumps({"fields": _DIGEST_FIELDS, "rows": rows})
    return hashlib.sha256(payload.encode()).hexdigest()


def expected_digest(workload: str, seed: int) -> str | None:
    """The digest of one cycle's records recorded for the default seed, or
    None at any other seed."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS_PATH.read_text())[workload]
