"""Monte Carlo experiment driver and command-line interface.

Measures the decoding probability of the three receivers (plain RLC,
RLC with syndrome-decoding repair, RLC with transversal-GRAND repair)
over a grid of packet counts N, and writes one CSV row per
(decoder, N).  Every trial derives its own seeds from
(master_seed, N, trial_index), so all decoders see identical channel
realizations (paired comparison) and results do not depend on worker
count or scheduling.

Each trial runs the plain RLC attempt once.  That outcome is the rlc
decoder's, and it is what the sd and tgrand repairs return whenever no
repair is needed (the attempt succeeded, N == K, or no row is
corrupted).  Otherwise, if sd or tgrand is requested, the trial builds
one syndrome system (S = Hᵀ·Y and H_R̄ᵀ, read from the systematic
generator without building H, eliminated once), and the requested
repairs run on it.  A decoder's ``wall_seconds`` is the time spent on
its outcome: the shared attempt is timed once and charged in full to
every decoder, the syndrome system's build is timed once and charged in
full to each repairing decoder, and each repairing decoder adds its own
repair and re-decode.  The attempt's share includes reducing the clean
rows once; each re-decode extends a copy of that reduction with only its
own promoted rows, and that work is in its decoder's share.  Trial
generation (data, generator, channel) is charged to none.  A search that
sd and tgrand share (`SyndromeSystem.search`) is charged only to the
decoder run first, so the sd and tgrand columns are not standalone
costs.

Trials run in chunks of _CHUNK per N, serially or on a process pool.  A
chunk generates its trials in as few passes of at most _BATCH_BITS
channel bits (trials × N × B) as hold them, with pass sizes differing by
at most one trial (a trial larger than the budget gets a pass of its
own).  Each pass derives the seeds, draws P, U and the noise, and runs
the channel scan for all of its trials in a few array operations whose
cost is linear in the pass's bits; a row is corrupted exactly when its
error row from the channel is nonzero.  A pass's trials are decoded
before the next pass is drawn, so a chunk never holds more than one pass
of generated trials.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from . import channel
from .channel import ChannelParams
from .gf2 import BitMatrix
from .pipeline import DecodeOutcome, ReceivedBatch, attempt_rlc, needs_repair, redecode, syndrome_system
from .rlc import encode, make_generators
from .rng import derive_seed, derive_seeds, random_rows
from .search import DEFAULT_QUERY_CAP
from .syndrome_decoder import sd_repair
from .tgrand import tg_repair

DECODERS = ("rlc", "sd", "tgrand")
CSV_HEADER = "decoder,K,N,B,eps,lambda,trials,successes,decoding_probability,mean_queries,wall_seconds"

# Labels for the per-trial substreams (generator, source data, noise).
_TAG_GEN = 1
_TAG_DATA = 2
_TAG_NOISE = 3
_TAGS = np.array([_TAG_GEN, _TAG_DATA, _TAG_NOISE], dtype=np.uint64)

_CHUNK = 200
# Channel bits (trials × N × B) drawn per array pass of trial generation.
# It bounds the pass's temporary arrays (about 1 MB), and so the driver's
# peak memory.  A pass pays dozens of NumPy calls whatever its size, so a
# larger pass spreads that fixed cost over more trials: 51 at N = 20, B = 64.
_BATCH_BITS = 65536


@dataclass(frozen=True)
class SimConfig:
    """One experiment: a grid of N values for fixed (K, B, channel)."""

    k: int = 10
    n_list: tuple[int, ...] = tuple(range(10, 21))
    b: int = 64
    eps: float = 0.05
    burst_len: float = 4.0
    decoders: tuple[str, ...] = DECODERS
    trials: int = 10000
    master_seed: int = 1
    query_cap: int = DEFAULT_QUERY_CAP
    out_path: str | None = None
    workers: int = 1
    channel_params: ChannelParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Tuples, so the config hashes and cannot change after its checks.
        object.__setattr__(self, "n_list", tuple(self.n_list))
        object.__setattr__(self, "decoders", tuple(self.decoders))
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not self.n_list or any(n < self.k for n in self.n_list):
            raise ValueError("every N must be at least K")
        if len(set(self.n_list)) != len(self.n_list):
            raise ValueError(f"N values must be distinct, got {self.n_list}")
        if self.b < 1:
            raise ValueError("packet length must be at least 1")
        bad = [d for d in self.decoders if d not in DECODERS]
        if bad or not self.decoders:
            raise ValueError(f"decoders must be a non-empty subset of {DECODERS}, got {self.decoders}")
        if len(set(self.decoders)) != len(self.decoders):
            raise ValueError(f"decoders must be distinct, got {self.decoders}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.query_cap < 1:
            raise ValueError("query cap must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        # Rejects an infeasible (eps, burst length) pair here, not in a trial.
        params = ChannelParams.from_eps_lambda(self.eps, self.burst_len)
        object.__setattr__(self, "channel_params", params)


@dataclass(frozen=True)
class SimRecord:
    """Aggregated decoding probability for one (decoder, N) cell."""

    decoder: str
    k: int
    n: int
    b: int
    eps: float
    burst_len: float
    trials: int
    successes: int
    decoding_probability: float
    mean_queries: float
    wall_seconds: float


def _trials(config: SimConfig, n: int, start: int, stop: int):
    """Yield the (G, batch) of each trial in [start, stop), in order.

    Trial t's seed is derive_seed(master_seed, N, t), and its generator,
    source data and noise come from that seed's _TAG_* children.  The
    span is cut into ⌈span / ⌊_BATCH_BITS / (N·B)⌋⌉ passes (at least one
    trial per pass) whose sizes differ by at most one, each pass a few
    array operations over all of its trials, and the trials are yielded
    as each pass completes.
    """
    k, b, params = config.k, config.b, config.channel_params
    span = stop - start
    passes = -(-span // max(1, _BATCH_BITS // (n * b)))
    n_seed = derive_seed(config.master_seed, n)
    for i in range(passes):
        lo, hi = start + span * i // passes, start + span * (i + 1) // passes
        trial_seeds = derive_seeds(n_seed, np.arange(lo, hi))
        # One column per substream: generator, source data, noise.
        seeds = derive_seeds(trial_seeds[:, np.newaxis], _TAGS)
        gens = make_generators(k, n, seeds[:, 0])
        xs = [
            encode(gen, BitMatrix.trusted(k, b, u))
            for gen, u in zip(gens, random_rows(seeds[:, 1], k, b))
        ]
        received = channel.apply_batch(params, xs, seeds[:, 2])
        for gen, x, (y, e) in zip(gens, xs, received):
            yield gen, ReceivedBatch.from_errors(y, x, e.row_ints)


def _trial_outcomes(config: SimConfig, gen, batch, decoders: tuple[str, ...]):
    """Run ``decoders`` on one trial: a list of (decoder, outcome, seconds).

    The plain attempt and, when a requested repair will run, the syndrome
    system are built once and shared, as the module docstring describes.
    """
    t0 = time.perf_counter()
    base = attempt_rlc(batch, gen)
    base_seconds = time.perf_counter() - t0
    repairs = ("sd" in decoders or "tgrand" in decoders) and needs_repair(batch, gen, base)
    system = syndrome_system(batch, gen) if repairs else None
    shared_seconds = time.perf_counter() - t0
    results = []
    for d in decoders:
        if d == "rlc" or system is None:
            results.append((d, base, base_seconds))
            continue
        t0 = time.perf_counter()
        if d == "sd":
            result = sd_repair(system, config.query_cap)
        else:
            result = tg_repair(system, config.channel_params, config.query_cap)
        out = redecode(batch, gen, base, result)
        results.append((d, out, shared_seconds + time.perf_counter() - t0))
    return results


def run_trial(config: SimConfig, n: int, decoder: str, trial_index: int) -> DecodeOutcome:
    """Run one decoder on one trial; deterministic in (master_seed, n, trial_index)."""
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")
    gen, batch = next(_trials(config, n, trial_index, trial_index + 1))
    [(_, out, _)] = _trial_outcomes(config, gen, batch, (decoder,))
    return out


def _run_chunk(config: SimConfig, n: int, start: int, stop: int):
    """(successes, queries, seconds) sums over a trial range, keyed by (decoder, N)."""
    sums = {(d, n): [0, 0, 0.0] for d in config.decoders}
    for gen, batch in _trials(config, n, start, stop):
        for d, out, seconds in _trial_outcomes(config, gen, batch, config.decoders):
            cell = sums[d, n]
            cell[0] += 1 if out.success else 0
            cell[1] += out.queries_total
            cell[2] += seconds
    return sums


def _worker_count(requested: int, spans: int, cpus: int | None) -> int:
    """Processes worth starting: no more than the CPUs or the chunks of work."""
    return max(1, min(requested, cpus or 1, spans))


def run_experiment(config: SimConfig) -> list[SimRecord]:
    """Run the full (decoder × N) grid; one SimRecord per cell.

    Trials are split into chunks and may run on a process pool of at most
    ``_worker_count`` processes; sums are commutative, so records are
    identical for any worker count.
    """
    spans = [
        (n, start, min(start + _CHUNK, config.trials))
        for n in config.n_list
        for start in range(0, config.trials, _CHUNK)
    ]
    columns = list(zip(*spans))
    workers = _worker_count(config.workers, len(spans), os.cpu_count())
    # The records come out in this order: DECODERS order, then ascending N.
    totals: dict[tuple[str, int], list] = {
        (d, n): [0, 0, 0.0] for d in DECODERS if d in config.decoders for n in sorted(config.n_list)
    }
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for sums in (pool.map if pool else map)(_run_chunk, repeat(config), *columns):
            for key, (succ, q, w) in sums.items():
                cell = totals[key]
                cell[0] += succ
                cell[1] += q
                cell[2] += w
    return [
        SimRecord(
            decoder=d,
            k=config.k,
            n=n,
            b=config.b,
            eps=config.eps,
            burst_len=config.burst_len,
            trials=config.trials,
            successes=succ,
            decoding_probability=succ / config.trials,
            mean_queries=q / config.trials,
            wall_seconds=w,
        )
        for (d, n), (succ, q, w) in totals.items()
    ]


def emit_csv(records: list[SimRecord], out_path) -> None:
    """Write records with the fixed header; floats keep full precision.

    The file is replaced atomically: the text goes to a temp file in the
    same directory, which ``os.replace`` then renames over ``out_path``.
    """
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.decoder},{r.k},{r.n},{r.b},{r.eps!r},{r.burst_len!r},{r.trials},"
            f"{r.successes},{r.decoding_probability!r},{r.mean_queries!r},{r.wall_seconds!r}"
        )
    text = "\n".join(lines) + "\n"
    path = Path(out_path)
    if path.exists() and not path.is_file():
        # A device or pipe (e.g. /dev/stdout) cannot be replaced; write through it.
        path.write_text(text)
        return
    target = path.resolve()  # replace a symlink's target, not the link
    # Write a sibling temp file, named by PID and a random token so no killed
    # run can have left it, and rename it over the target: readers see the
    # old file or the new one whole, never a partial write.
    tmp = target.with_name(f".{target.name}.{os.getpid()}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x") as f:
            f.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_config_file(path: str) -> dict:
    """Parse simple key=value lines; '#' starts a comment."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _build_parser() -> argparse.ArgumentParser:
    """The CLI; every flag but --config and --out takes its default, and
    its type, from `SimConfig`."""
    default = SimConfig()
    p = argparse.ArgumentParser(
        prog="rlcgrand-sim",
        description="Decoding-probability simulation for RLC over a burst-error channel.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--config", help="key=value config file; explicit flags override it")
    for flag, value, text in (
        ("--k", default.k, "source packets"),
        ("--n-min", min(default.n_list), "smallest N"),
        ("--n-max", max(default.n_list), "largest N"),
        ("--b", default.b, "bits per packet"),
        ("--eps", default.eps, "bit error probability"),
        ("--burst-len", default.burst_len, "mean error-burst length"),
        ("--decoders", ",".join(default.decoders), "comma-separated subset of rlc,sd,tgrand"),
        ("--trials", default.trials, "trials per (decoder, N)"),
        ("--seed", default.master_seed, "master seed"),
        ("--query-cap", default.query_cap, "max candidates per column before a repair gives up"),
        ("--out", "results.csv", "output CSV path"),
        ("--workers", default.workers, "process-pool size"),
    ):
        p.add_argument(flag, type=type(value), default=value, help=text)
    return p


def config_from_args(argv=None) -> SimConfig:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # Every flag except --help and --config may be set in the file.  The
        # values become string defaults, which argparse converts with the
        # flag's own type, exactly as if they had been given as flags.
        file_values = _read_config_file(args.config)
        unknown = file_values.keys() - (vars(args).keys() - {"config"})
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        parser.set_defaults(**file_values)
        args = parser.parse_args(argv)
    if args.n_max < args.n_min:
        raise ValueError("n-max must be at least n-min")
    decoders = tuple(d.strip() for d in args.decoders.split(",") if d.strip())
    return SimConfig(
        k=args.k,
        n_list=tuple(range(args.n_min, args.n_max + 1)),
        b=args.b,
        eps=args.eps,
        burst_len=args.burst_len,
        decoders=decoders,
        trials=args.trials,
        master_seed=args.seed,
        query_cap=args.query_cap,
        out_path=args.out,
        workers=args.workers,
    )


def main(argv=None) -> int:
    try:
        config = config_from_args(argv)
        records = run_experiment(config)
        emit_csv(records, config.out_path)
    except (ValueError, OSError, BrokenProcessPool) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    print(f"wrote {len(records)} records to {config.out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
