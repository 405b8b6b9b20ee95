"""Traced run: times the calls into each rlcgrand module, trial by trial.

``traced_pass`` replays ``run_experiment``'s trial loop from outside the
package, in the order ``simcli._trial_batch`` and
``pipeline.repair_and_redecode`` make their calls, and times each call
into a module's public functions.  The tail of ``repair_and_redecode``
(verify the repaired rows, promote them, re-decode) is not a function of
its own, so ``_verify_redecode`` mirrors it and is timed as one span.

Because the replay lives outside the code it stands for, every pass is
checked against the untraced records (``check_against_records``), and
every successful decode is checked against the true source packets.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections import Counter

from rlcgrand import channel, gf2
from rlcgrand.pipeline import DecodeOutcome, attempt_rlc, classify
from rlcgrand.rlc import encode, make_generator, parity_check, rlc_decode
from rlcgrand.rng import derive_seed, random_bit_matrix
from rlcgrand.simcli import _TAG_DATA, _TAG_GEN, _TAG_NOISE, SimConfig, SimRecord
from rlcgrand.syndrome_decoder import SyndromeSystem, compute_syndrome, sd_repair
from rlcgrand.tgrand import tg_repair

SEEDS_AND_DATA = "rng.seeds_and_data"
GENERATOR = "rlc.make_generator"
ENCODE = "rlc.encode"
CHANNEL = "channel.apply"
CLASSIFY = "pipeline.classify"
PARITY = "rlc.parity_check"
RANK_SOLVE = "gf2.rank_solve"
SYNDROME = "syndrome_decoder.compute_syndrome"
SD_SEARCH = "syndrome_decoder.sd_repair"
TG_SEARCH = "tgrand.tg_repair"
VERIFY = "pipeline.verify_redecode"
UNTIMED = "untimed"

# Timed layers, in the order a trial reaches them.
LAYERS = (
    SEEDS_AND_DATA, GENERATOR, ENCODE, CHANNEL, CLASSIFY, PARITY,
    RANK_SOLVE, SYNDROME, SD_SEARCH, TG_SEARCH, VERIFY,
)
SEARCH_LAYERS = {"sd": SD_SEARCH, "tgrand": TG_SEARCH}


class Tracer:
    """Accumulates seconds per layer and keeps each search call's duration."""

    def __init__(self):
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.durations = {layer: [] for layer in SEARCH_LAYERS.values()}

    def call(self, layer, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - t0
        self.seconds[layer] += elapsed
        if layer in self.durations:
            self.durations[layer].append(elapsed)
        return out


@dataclasses.dataclass
class PassResult:
    """One traced pass over a configuration."""

    trials: int
    trial_seconds: float
    layer_seconds: dict[str, float]
    search_durations: dict[str, list[float]]
    counts: Counter
    # (decoder, N) -> [successes, queries], to compare with SimRecords.
    totals: dict[tuple[str, int], list[int]]
    wrong_decodes: int


def traced_pass(config: SimConfig) -> PassResult:
    """Run every trial of ``config`` serially with each layer call timed."""
    tracer = Tracer()
    counts: Counter = Counter()
    totals = {(d, n): [0, 0] for d in config.decoders for n in config.n_list}
    trial_seconds = 0.0
    wrong = 0
    for n in config.n_list:
        for t in range(config.trials):
            t0 = time.perf_counter()
            u, outcomes = _trial(tracer, counts, config, n, t)
            trial_seconds += time.perf_counter() - t0
            for d, out in outcomes:
                totals[(d, n)][0] += 1 if out.success else 0
                totals[(d, n)][1] += out.queries_total
                if out.success and out.u_hat != u:
                    wrong += 1
    return PassResult(
        trials=config.trials * len(config.n_list),
        trial_seconds=trial_seconds,
        layer_seconds=tracer.seconds,
        search_durations=tracer.durations,
        counts=counts,
        totals=totals,
        wrong_decodes=wrong,
    )


def _trial(tracer: Tracer, counts: Counter, config: SimConfig, n: int, t: int):
    call = tracer.call
    tseed = call(SEEDS_AND_DATA, derive_seed, config.master_seed, n, t)
    gen = call(GENERATOR, make_generator, config.k, n,
               call(SEEDS_AND_DATA, derive_seed, tseed, _TAG_GEN))
    u = call(SEEDS_AND_DATA, random_bit_matrix,
             call(SEEDS_AND_DATA, derive_seed, tseed, _TAG_DATA), config.k, config.b)
    x = call(ENCODE, encode, gen, u)
    params = config.channel_params
    y, _ = call(CHANNEL, channel.apply, params, x,
                call(SEEDS_AND_DATA, derive_seed, tseed, _TAG_NOISE))
    batch = call(CLASSIFY, classify, y, x)
    counts["corrupted_rows"] += len(batch.rbar)
    h = call(PARITY, parity_check, gen) if any(d != "rlc" for d in config.decoders) else None
    outcomes = []
    for d in config.decoders:
        base = call(RANK_SOLVE, attempt_rlc, batch, gen)
        if d == "rlc" or base.success or gen.n == gen.k or not batch.rbar:
            outcomes.append((d, base))
            continue
        s = call(SYNDROME, compute_syndrome, h, batch.y)
        system = SyndromeSystem(ht=h.matrix.take_rows(batch.rbar).transpose(), s=s)
        if d == "sd":
            result = call(SD_SEARCH, sd_repair, system, config.query_cap)
        else:
            result = call(TG_SEARCH, tg_repair, system, params, config.query_cap)
        out = call(VERIFY, _verify_redecode, batch, gen, base, result)
        counts[f"{d}.repairs"] += 1
        counts[f"{d}.queries"] += result.queries_total
        counts[f"{d}.unresolved"] += len(result.unresolved)
        counts[f"{d}.verified"] += out.nu
        counts[f"{d}.attempted_rows"] += len(batch.rbar)
        counts["rank_deficit"] += gen.k - base.rank_before
        outcomes.append((d, out))
    return u, outcomes


def _verify_redecode(batch, gen, base: DecodeOutcome, result) -> DecodeOutcome:
    """The tail of ``pipeline.repair_and_redecode``, call for call."""
    y_rbar = batch.y.take_rows(batch.rbar)
    x_hat_rbar = gf2.add(y_rbar, result.e_hat)
    verified = [
        idx
        for idx, row in enumerate(batch.rbar)
        if x_hat_rbar.row_ints[idx] == batch.truth_x.row_ints[row]
    ]
    promoted = [batch.rbar[idx] for idx in verified]
    g_new = gen.matrix.take_rows(list(batch.r) + promoted)
    y_new = batch.y.take_rows(batch.r).vstack(x_hat_rbar.take_rows(verified))
    rank_after = gf2.rank(g_new)
    u_hat = rlc_decode(g_new, y_new) if rank_after >= gen.k else None
    return DecodeOutcome(
        success=u_hat is not None,
        u_hat=u_hat,
        nu=len(promoted),
        queries_total=result.queries_total,
        rank_before=base.rank_before,
        rank_after=rank_after,
    )


def check_against_records(result: PassResult, records: list[SimRecord]) -> list[str]:
    """Mismatches between a traced pass and untraced records of the same config."""
    problems = []
    seen = set()
    for r in records:
        seen.add((r.decoder, r.n))
        succ, queries = result.totals.get((r.decoder, r.n), (None, None))
        if succ != r.successes or queries is None or queries / r.trials != r.mean_queries:
            problems.append(
                f"{r.decoder} N={r.n}: traced (successes={succ}, queries={queries}) "
                f"!= records (successes={r.successes}, mean_queries={r.mean_queries})"
            )
    if seen != set(result.totals):
        problems.append(f"traced cells {sorted(result.totals)} != record cells {sorted(seen)}")
    if result.wrong_decodes:
        problems.append(f"{result.wrong_decodes} successful decodes returned the wrong packets")
    return problems


def percentiles_ms(durations: list[float]) -> dict[str, float]:
    """Per-call p50 and p99 in ms (nearest rank), with the sample count."""
    if not durations:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "calls": 0}
    ordered = sorted(durations)

    def rank(q: float) -> float:
        idx = max(0, -(-len(ordered) * q // 100) - 1)
        return ordered[int(idx)] * 1e3

    return {"p50_ms": rank(50), "p99_ms": rank(99), "calls": len(ordered)}


def pass_counts(passes: list[PassResult]) -> dict[str, float]:
    """Exact counts over passes; they repeat exactly for the same configs."""
    c = sum((p.counts for p in passes), Counter())
    trials = sum(p.trials for p in passes)
    out = {}
    for d, layer in SEARCH_LAYERS.items():
        prefix = layer.split(".")[0]
        repairs = c[f"{d}.repairs"]
        out[f"{prefix}.queries_per_repair"] = c[f"{d}.queries"] / repairs if repairs else 0.0
        out[f"{prefix}.unresolved_columns"] = c[f"{d}.unresolved"]
        rows = c[f"{d}.attempted_rows"]
        out[f"{prefix}.verified_ratio"] = c[f"{d}.verified"] / rows if rows else 0.0
    repair_calls = sum(c[f"{d}.repairs"] for d in SEARCH_LAYERS)
    out["pipeline.repair_calls"] = repair_calls
    out["pipeline.corrupted_per_trial"] = c["corrupted_rows"] / trials
    out["pipeline.rank_deficit_mean"] = c["rank_deficit"] / repair_calls if repair_calls else 0.0
    return out


def layer_metrics(passes: list[PassResult]) -> dict[str, float]:
    """Per-layer ms/trial and share of traced trial time, median over passes,
    plus per-call percentiles of the two search layers over all passes."""
    out = {}
    for layer in LAYERS + (UNTIMED,):
        ms, share = [], []
        for p in passes:
            if layer == UNTIMED:
                seconds = p.trial_seconds - sum(p.layer_seconds.values())
            else:
                seconds = p.layer_seconds[layer]
            ms.append(seconds * 1e3 / p.trials)
            share.append(seconds / p.trial_seconds)
        out[f"{layer}.ms_per_trial"] = statistics.median(ms)
        out[f"{layer}.share"] = statistics.median(share)
    for layer in SEARCH_LAYERS.values():
        stats = percentiles_ms([d for p in passes for d in p.search_durations[layer]])
        for key, value in stats.items():
            out[f"{layer}.{key}"] = value
    out["trace.ms_per_trial"] = statistics.median(p.trial_seconds * 1e3 / p.trials for p in passes)
    return out
