"""Brute-force oracles that the implementation is checked against.

Everything here enumerates exhaustively or recomputes from first
principles, independent of the code paths under test.  `from_rows`
builds a BitMatrix from 0/1 lists, and `next_bit` and `next_float` read a
scalar `SplitMix64` stream by the bit and float rules of the `rng`
contract; the library itself needs none of them.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from itertools import combinations
from types import SimpleNamespace
from typing import Iterable, Sequence

from rlcgrand import gf2
from rlcgrand.gf2 import BitMatrix
from rlcgrand import simcli
from rlcgrand.pipeline import DecodeOutcome, ReceivedBatch
from rlcgrand.rlc import rlc_decode
from rlcgrand.rng import SplitMix64, derive_seed
from rlcgrand.search import RepairResult
from rlcgrand.tgrand import sorted_classes


def from_rows(rows: Iterable[Iterable[int]], cols: int | None = None) -> BitMatrix:
    """Build from nested 0/1 lists; `cols` is required when rows is empty."""
    lists = [list(r) for r in rows]
    if lists:
        ncols = len(lists[0])
        if any(len(r) != ncols for r in lists):
            raise ValueError("ragged rows")
        if cols is not None and cols != ncols:
            raise ValueError("cols does not match row length")
    else:
        if cols is None:
            raise ValueError("cols required for an empty row list")
        ncols = cols
    ints = []
    for r in lists:
        v = 0
        for j, bit in enumerate(r):
            if bit not in (0, 1):
                raise ValueError(f"non-binary entry {bit!r}")
            v |= bit << j
        ints.append(v)
    return BitMatrix(len(lists), ncols, ints)


def next_bit(stream: SplitMix64) -> int:
    return stream.next_uint64() >> 63


def next_float(stream: SplitMix64) -> float:
    return (stream.next_uint64() >> 11) * 2.0**-53


def row_span(m: BitMatrix) -> set[int]:
    """Every XOR of a subset of m's rows, built by closing {0} under XOR."""
    span = {0}
    for r in m.row_ints:
        span |= {v ^ r for v in span}
    return span


def rank_by_row_space(m: BitMatrix) -> int:
    """Rank = log2 of the row-space size."""
    return len(row_span(m)).bit_length() - 1


def redecode_by_stacking(batch, gen, base: DecodeOutcome, result) -> DecodeOutcome:
    """The re-decode from scratch: stack the clean rows with the repaired
    rows that verify against the truth, and solve the whole system."""
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
    u_hat = rlc_decode(g_new, y_new)
    return DecodeOutcome(
        success=u_hat is not None,
        u_hat=u_hat,
        nu=len(promoted),
        queries_total=result.queries_total,
        rank_before=base.rank_before,
        rank_after=rank_by_row_space(g_new),
    )


def syndrome_of_mask(ht: BitMatrix, mask: int) -> int:
    cols = ht.col_ints()
    acc = 0
    for j in range(ht.cols):
        if (mask >> j) & 1:
            acc ^= cols[j]
    return acc


def matvec_check(a: BitMatrix, w: Sequence[int], s: Sequence[int]) -> bool:
    """True iff a·wᵀ == s over GF(2); vacuously true for a 0-row matrix."""
    if len(w) != a.cols:
        raise ValueError(f"vector length {len(w)} does not match {a.cols} columns")
    if len(s) != a.rows:
        raise ValueError(f"target length {len(s)} does not match {a.rows} rows")
    w_mask = 0
    for j, bit in enumerate(w):
        w_mask |= (bit & 1) << j
    for i in range(a.rows):
        if bit_parity(a.row_ints[i] & w_mask) != (s[i] & 1):
            return False
    return True


def bit_parity(x: int) -> int:
    return bin(x).count("1") & 1


def first_hit(candidates: Iterable[int], ht: BitMatrix, target: int, cap: int):
    """(mask, queries) of the first candidate with syndrome `target`.

    At most `cap` candidates are tested; a miss returns (None, number
    tested), which is min(2^L, cap) for a complete candidate order.
    """
    queries = 0
    for mask in candidates:
        if queries == cap:
            return None, queries
        queries += 1
        if syndrome_of_mask(ht, mask) == target:
            return mask, queries
    return None, queries


def weight_order(length: int):
    """Weight 0, 1, 2, ...; supports lexicographic within a weight."""
    for w in range(length + 1):
        for combo in combinations(range(length), w):
            yield sum(1 << j for j in combo)


def likelihood_order(prior_mask: int, length: int, params):
    """Transversal GRAND's candidate stream for one prior, as masks.

    All 2^L masks sorted by the index of their (l0, l1) flip class in
    `sorted_classes`, then by the flipped zero positions, then by the
    flipped one positions.
    """
    zeros = [j for j in range(length) if not prior_mask >> j & 1]
    ones = [j for j in range(length) if prior_mask >> j & 1]
    classes = sorted_classes(params, len(zeros), len(ones))
    class_index = {(c.l0, c.l1): i for i, c in enumerate(classes)}

    def key(mask):
        flips = mask ^ prior_mask
        flips0 = tuple(j for j in zeros if flips >> j & 1)
        flips1 = tuple(j for j in ones if flips >> j & 1)
        return class_index[len(flips0), len(flips1)], flips0, flips1

    return iter(sorted(range(1 << length), key=key))


def sd_repair_by_enumeration(ht: BitMatrix, s: BitMatrix, cap: int):
    """Per-column first hits of the weight order: [(mask or None, queries)]."""
    return [first_hit(weight_order(ht.cols), ht, t, cap) for t in s.col_ints()]


def tg_repair_by_enumeration(ht: BitMatrix, s: BitMatrix, params, cap: int):
    """Chained first hits of the likelihood order; a miss resets the prior to zero."""
    out = []
    prior_mask = 0
    for t in s.col_ints():
        mask, queries = first_hit(likelihood_order(prior_mask, ht.cols, params), ht, t, cap)
        out.append((mask, queries))
        prior_mask = mask or 0
    return out


def assert_repair_matches(res, expected) -> None:
    """A RepairResult agrees with per-column (mask or None, queries) first hits."""
    assert res.queries_per_column == tuple(q for _, q in expected)
    assert res.unresolved == tuple(b for b, (mask, _) in enumerate(expected) if mask is None)
    assert res.e_hat.col_ints() == tuple(mask or 0 for mask, _ in expected)


def min_weight_solutions(ht: BitMatrix, target: int) -> tuple[int | None, list[int]]:
    """(minimal weight, all minimal-weight solution masks) over all 2^L vectors."""
    best_w: int | None = None
    best: list[int] = []
    for mask in range(1 << ht.cols):
        if syndrome_of_mask(ht, mask) != target:
            continue
        w = bin(mask).count("1")
        if best_w is None or w < best_w:
            best_w, best = w, [mask]
        elif w == best_w:
            best.append(mask)
    return best_w, best


def vector_probability(bits, prior_bits, p01: float, p10: float) -> float:
    """Transition probability of prior -> bits under L independent chains."""
    prob = 1.0
    for b, prev in zip(bits, prior_bits):
        if prev == 0:
            prob *= p01 if b else 1.0 - p01
        else:
            prob *= p10 if not b else 1.0 - p10
    return prob


def _flip_signature(bits, prior_bits):
    """(l0+l1, l0, zero-side flips, one-side flips) for the tie order."""
    flips0 = tuple(i for i, (b, p) in enumerate(zip(bits, prior_bits)) if p == 0 and b == 1)
    flips1 = tuple(i for i, (b, p) in enumerate(zip(bits, prior_bits)) if p == 1 and b == 0)
    return (len(flips0) + len(flips1), len(flips0), flips0, flips1)


def map_solution(ht: BitMatrix, target: int, prior_bits, p01: float, p10: float):
    """Most likely satisfying vector, ties broken by the documented order."""
    sat = []
    for mask in range(1 << ht.cols):
        if syndrome_of_mask(ht, mask) == target:
            bits = tuple((mask >> j) & 1 for j in range(ht.cols))
            sat.append((vector_probability(bits, prior_bits, p01, p10), _flip_signature(bits, prior_bits), bits))
    if not sat:
        return None

    def cmp(a, b):
        pa, pb = a[0], b[0]
        if abs(pa - pb) > 1e-12 * max(pa, pb, 1e-300):
            return -1 if pa > pb else 1
        return -1 if a[1] < b[1] else (1 if a[1] > b[1] else 0)

    sat.sort(key=cmp_to_key(cmp))
    return sat[0][2]


def markov_error_rows(p01: float, p10: float, n: int, b: int, seed: int) -> list[list[int]]:
    """Scalar re-implementation of the channel's error generation contract."""
    rows = []
    for i in range(n):
        stream = SplitMix64(derive_seed(seed, i))
        state = 0
        bits = []
        for _ in range(b):
            u = next_float(stream)
            state = int(u < p01) if state == 0 else int(u >= p10)
            bits.append(state)
        rows.append(bits)
    return rows


def trial_rows(k: int, n: int, b: int, p01: float, p10: float, master_seed: int, t: int, tags):
    """(G, X, Y, R) of simulator trial t as 0/1 lists, from the scalar contract.

    The trial seed is derive_seed(master_seed, n, t); P's bits come from
    its generator child and U's from its data child, row-major; X = G·U by
    the definition of the product; the noise is `markov_error_rows` on its
    noise child; R lists the rows that the noise left intact.
    """
    tag_gen, tag_data, tag_noise = tags
    tseed = derive_seed(master_seed, n, t)
    gbits = SplitMix64(derive_seed(tseed, tag_gen))
    g = [[int(i == j) for j in range(k)] for i in range(k)]
    g += [[next_bit(gbits) for _ in range(k)] for _ in range(n - k)]
    ubits = SplitMix64(derive_seed(tseed, tag_data))
    u = [[next_bit(ubits) for _ in range(b)] for _ in range(k)]
    x = [[sum(g[i][j] & u[j][c] for j in range(k)) & 1 for c in range(b)] for i in range(n)]
    e = markov_error_rows(p01, p10, n, b, derive_seed(tseed, tag_noise))
    y = [[xb ^ eb for xb, eb in zip(xr, er)] for xr, er in zip(x, e)]
    r = [i for i in range(n) if not any(e[i])]
    return g, x, y, r


def reference_trial(config, n: int, t: int) -> dict:
    """decoder -> (outcome, per-column (mask or None, queries) first hits)
    of simulator trial t at N = n, from the scalar oracles alone; the
    first hits are None where no repair runs.

    The rows come from `trial_rows` and R from the genie comparison.  The
    plain attempt succeeds iff rank_by_row_space(G_R) = K.  When it fails
    with N > K and some row corrupted, each repair solves the syndrome
    system of H = [P | I_{N-K}]ᵀ by enumeration and `redecode_by_stacking`
    re-decodes; otherwise every decoder returns the plain outcome.
    """
    k, b, p = config.k, config.b, config.channel_params
    tags = (simcli._TAG_GEN, simcli._TAG_DATA, simcli._TAG_NOISE)
    g, x, y, r = trial_rows(k, n, b, p.p01, p.p10, config.master_seed, t, tags)
    rbar = [i for i in range(n) if i not in r]
    gen = from_rows(g, k)
    rank = rank_by_row_space(gen.take_rows(r))
    base = DecodeOutcome(
        success=rank == k, u_hat=None, nu=0, queries_total=0, rank_before=rank, rank_after=rank
    )
    out = {"rlc": (base, None)}
    if base.success or n == k or not rbar:
        return {**out, "sd": (base, None), "tgrand": (base, None)}
    # Row i of Hᵀ is (row K+i of G, e_i): it checks parity row K+i against
    # the systematic rows, so Hᵀ·G = 0.
    h_t = [g[k + i] + [int(j == i) for j in range(n - k)] for i in range(n - k)]
    ht = from_rows([[row[j] for j in rbar] for row in h_t], len(rbar))
    s = from_rows(
        [[sum(row[j] & y[j][c] for j in range(n)) & 1 for c in range(b)] for row in h_t], b
    )
    batch = ReceivedBatch(
        y=from_rows(y, b), truth_x=from_rows(x, b), r=tuple(r), rbar=tuple(rbar)
    )
    repairs = {
        "sd": sd_repair_by_enumeration(ht, s, config.query_cap),
        "tgrand": tg_repair_by_enumeration(ht, s, p, config.query_cap),
    }
    for decoder, hits in repairs.items():
        e_hat = from_rows(
            [[(mask or 0) >> j & 1 for mask, _ in hits] for j in range(len(rbar))], b
        )
        queries = tuple(q for _, q in hits)
        result = RepairResult(e_hat=e_hat, unresolved=(), queries_per_column=queries)
        out[decoder] = (redecode_by_stacking(batch, SimpleNamespace(matrix=gen), base, result), hits)
    return out


def reference_records(config) -> list:
    """`simcli.run_experiment`'s records, with wall_seconds 0, from
    `reference_trial` over every (N, trial)."""
    sums = {}
    for n in config.n_list:
        for t in range(config.trials):
            for decoder, (outcome, _) in reference_trial(config, n, t).items():
                cell = sums.setdefault((decoder, n), [0, 0])
                cell[0] += outcome.success
                cell[1] += outcome.queries_total
    return [
        simcli.SimRecord(
            decoder=decoder,
            k=config.k,
            n=n,
            b=config.b,
            eps=config.eps,
            burst_len=config.burst_len,
            trials=config.trials,
            successes=sums[decoder, n][0],
            decoding_probability=sums[decoder, n][0] / config.trials,
            mean_queries=sums[decoder, n][1] / config.trials,
            wall_seconds=0.0,
        )
        for decoder in simcli.DECODERS
        if decoder in config.decoders
        for n in sorted(config.n_list)
    ]


def rlc_success_probability(k: int, n: int, b: int, p01: float) -> float:
    """Exact probability that the plain decoder succeeds, from first principles.

    The chain starts good and bit 0 is already a transition, so a row is
    clean with probability q = (1 - p01)^B, independently of the others.
    Given s clean systematic rows and m clean parity rows, the parity
    rows' projections onto the K - s uncovered coordinates are iid
    uniform, so the clean rows reach rank K with probability
    prod_{i < K-s} (1 - 2^(i-m)) when m >= K - s, and 0 otherwise.  The
    sum runs over the binomial laws of s and m.
    """
    q = (1.0 - p01) ** b

    def binomial(count: int, i: int) -> float:
        return math.comb(count, i) * q**i * (1.0 - q) ** (count - i)

    return sum(
        binomial(k, s)
        * binomial(n - k, m)
        * math.prod(1.0 - 2.0 ** (i - m) for i in range(k - s))
        for s in range(k + 1)
        for m in range(k - s, n - k + 1)
    )
