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
corrupted).  Otherwise the trial builds one syndrome system (H, S = Hᵀ·Y,
H_R̄ᵀ, eliminated once), and both repairs run on it.  A decoder's
``wall_seconds`` is the time spent on its outcome: the shared attempt is
timed once and charged in full to every decoder, the syndrome system's
build is timed once and charged in full to each repairing decoder, and
each repairing decoder adds its own repair and re-decode, so the three
columns stay comparable.  Trial generation (data, generator, channel) is
charged to none.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

from . import channel
from .channel import ChannelParams
from .pipeline import DecodeOutcome, attempt_rlc, classify, needs_repair, redecode, syndrome_system
from .rlc import make_generator, encode
from .rng import derive_seed, random_bit_matrix
from .syndrome_decoder import DEFAULT_QUERY_CAP, sd_repair
from .tgrand import tg_repair

DECODERS = ("rlc", "sd", "tgrand")
CSV_HEADER = "decoder,K,N,B,eps,lambda,trials,successes,decoding_probability,mean_queries,wall_seconds"

# Labels for the per-trial substreams (generator, source data, noise).
_TAG_GEN = 1
_TAG_DATA = 2
_TAG_NOISE = 3

_CHUNK = 200


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
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not self.n_list or any(n < self.k for n in self.n_list):
            raise ValueError("every N must be at least K")
        if self.b < 1:
            raise ValueError("packet length must be at least 1")
        bad = [d for d in self.decoders if d not in DECODERS]
        if bad or not self.decoders:
            raise ValueError(f"decoders must be a non-empty subset of {DECODERS}, got {self.decoders}")
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


def _trial_batch(config: SimConfig, n: int, trial_index: int):
    """Generate the (G, batch, params) shared by all decoders of one trial."""
    tseed = derive_seed(config.master_seed, n, trial_index)
    gen = make_generator(config.k, n, derive_seed(tseed, _TAG_GEN))
    u = random_bit_matrix(derive_seed(tseed, _TAG_DATA), config.k, config.b)
    x = encode(gen, u)
    params = config.channel_params
    y, _ = channel.apply(params, x, derive_seed(tseed, _TAG_NOISE))
    return gen, classify(y, x), params


def _trial_outcomes(config: SimConfig, n: int, trial_index: int, decoders: tuple[str, ...]):
    """Run ``decoders`` on one trial: a list of (decoder, outcome, seconds).

    The plain attempt and, when a repair pass will run, the syndrome
    system are built once and shared, as the module docstring describes.
    """
    gen, batch, params = _trial_batch(config, n, trial_index)
    t0 = time.perf_counter()
    base = attempt_rlc(batch, gen)
    base_seconds = time.perf_counter() - t0
    system = syndrome_system(batch, gen) if needs_repair(batch, gen, base) else None
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
            result = tg_repair(system, params, config.query_cap)
        out = redecode(batch, gen, base, result)
        results.append((d, out, shared_seconds + time.perf_counter() - t0))
    return results


def run_trial(config: SimConfig, n: int, decoder: str, trial_index: int) -> DecodeOutcome:
    """Run one decoder on one trial; deterministic in (master_seed, n, trial_index)."""
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")
    [(_, out, _)] = _trial_outcomes(config, n, trial_index, (decoder,))
    return out


def _run_chunk(config: SimConfig, n: int, start: int, stop: int):
    """Per-decoder (successes, queries, seconds) sums over a trial range."""
    sums = {d: [0, 0, 0.0] for d in config.decoders}
    for t in range(start, stop):
        for d, out, seconds in _trial_outcomes(config, n, t, config.decoders):
            cell = sums[d]
            cell[0] += 1 if out.success else 0
            cell[1] += out.queries_total
            cell[2] += seconds
    return n, sums


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
    if workers == 1:
        results = list(map(_run_chunk, repeat(config), *columns))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, repeat(config), *columns))
    totals: dict[tuple[str, int], list] = {
        (d, n): [0, 0, 0.0] for d in config.decoders for n in config.n_list
    }
    for n, sums in results:
        for d, (succ, q, w) in sums.items():
            cell = totals[(d, n)]
            cell[0] += succ
            cell[1] += q
            cell[2] += w
    records = []
    for d in DECODERS:
        if d not in config.decoders:
            continue
        for n in sorted(config.n_list):
            succ, q, w = totals[(d, n)]
            records.append(
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
            )
    return records


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
    # Write a sibling temp file and rename it over the target, so readers
    # see the old file or the new one whole, never a partial write.
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x") as f:
            f.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_csv(path) -> list[SimRecord]:
    """Parse a file produced by emit_csv back into records."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    records = []
    for line in lines[1:]:
        f = line.split(",")
        records.append(
            SimRecord(
                decoder=f[0],
                k=int(f[1]),
                n=int(f[2]),
                b=int(f[3]),
                eps=float(f[4]),
                burst_len=float(f[5]),
                trials=int(f[6]),
                successes=int(f[7]),
                decoding_probability=float(f[8]),
                mean_queries=float(f[9]),
                wall_seconds=float(f[10]),
            )
        )
    return records


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
    p = argparse.ArgumentParser(
        prog="rlcgrand-sim",
        description="Decoding-probability simulation for RLC over a burst-error channel.",
    )
    p.add_argument("--config", help="key=value config file; explicit flags override it")
    p.add_argument("--k", type=int, default=10, help="source packets (default 10)")
    p.add_argument("--n-min", type=int, default=10, help="smallest N (default 10)")
    p.add_argument("--n-max", type=int, default=20, help="largest N (default 20)")
    p.add_argument("--b", type=int, default=64, help="bits per packet (default 64)")
    p.add_argument("--eps", type=float, default=0.05, help="bit error probability (default 0.05)")
    p.add_argument("--burst-len", type=float, default=4.0, help="mean error-burst length (default 4)")
    p.add_argument(
        "--decoders",
        default="rlc,sd,tgrand",
        help="comma-separated subset of rlc,sd,tgrand (default all)",
    )
    p.add_argument("--trials", type=int, default=10000, help="trials per (decoder, N) (default 10000)")
    p.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    p.add_argument(
        "--query-cap", type=int, default=DEFAULT_QUERY_CAP,
        help="max candidates per column before a repair gives up (default 2^20)",
    )
    p.add_argument("--out", default="results.csv", help="output CSV path (default results.csv)")
    p.add_argument("--workers", type=int, default=1, help="process-pool size (default 1)")
    return p


def config_from_args(argv=None) -> SimConfig:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # Every flag except --help and --config may be set in the file.  The
        # values become string defaults, which argparse converts with the
        # flag's own type, exactly as if they had been given as flags.
        keys = {a.dest for a in parser._actions if a.default is not argparse.SUPPRESS}
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - keys - {"config"}
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
