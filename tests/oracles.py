"""Brute-force oracles that the implementation is checked against.

Everything here enumerates exhaustively or recomputes from first
principles, independent of the code paths under test.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import combinations
from typing import Iterable, Sequence

from rlcgrand.gf2 import BitMatrix
from rlcgrand.rng import SplitMix64, derive_seed
from rlcgrand.tgrand import sorted_classes


def rank_by_row_space(m: BitMatrix) -> int:
    """Rank = log2 of the row-space size, built by closing {0} under XOR."""
    span = {0}
    for r in m.row_ints:
        span |= {v ^ r for v in span}
    return len(span).bit_length() - 1


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
            u = stream.next_float()
            state = int(u < p01) if state == 0 else int(u >= p10)
            bits.append(state)
        rows.append(bits)
    return rows
