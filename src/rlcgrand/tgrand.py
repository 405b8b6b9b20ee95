"""Transversal GRAND: likelihood-ordered error guessing across packets.

One bit position of the corrupted packets is an L-bit column whose bits
are the current states of L independent two-state Markov chains.  Given
the previous column's estimate, candidate columns split into classes by
how many chains flip 0->1 (l0 of the L0 zeros) and 1->0 (l1 of the L1
ones); every vector in a class has probability

    p01^l0 (1-p01)^(L0-l0) p10^l1 (1-p10)^(L1-l1).

Candidates are queried class by class in descending probability, so the
first one satisfying the syndrome constraint is a maximum-likelihood
repair.  Columns are solved left to right, each estimate seeding the
next column's prior; the prior for the first column is all-zero because
the chains start in the good state.

The first hit is found with the shared search core (`search.py`), which
asks the order for the coset member it queries first
(`LikelihoodOrder.first`) when its scan misses.  A candidate's position
is

    offset of class (l0, l1) in sorted_classes
    + lexrank(flips0)·C(L1, l1) + lexrank(flips1) + 1,

where flips0 and flips1 are the flipped zero and one positions, so
`first` looks up every member's class offset and computes full positions
only in the earliest class.  The estimate and the reported query count
equal those of walking the order to the first hit, or to the query cap.

An order is a prior plus its class table (`LikelihoodOrder`); which
searches sd and tgrand share is the rule of `SyndromeSystem.search`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations, takewhile
from typing import Iterator, NamedTuple, Sequence

from .channel import ChannelParams
from .gf2 import BitMatrix
from .search import DEFAULT_QUERY_CAP, RepairResult, SyndromeSystem, repair_columns

# Two class probabilities tie when their logs agree to this tolerance;
# ties fall back to (l0+l1, l0) ordering so runs are reproducible.
TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class TransitionClass:
    """One (l0, l1) flip class: per-vector probability and vector count."""

    l0: int
    l1: int
    prob: float
    count: int


@dataclass(frozen=True)
class ColumnPrior:
    """Previous column's estimate, one bit per corrupted packet."""

    prev: tuple[int, ...]

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "ColumnPrior":
        return cls(prev=_binary(bits, "prior"))

    @property
    def length(self) -> int:
        return len(self.prev)


def class_probability(params: ChannelParams, big_l0: int, big_l1: int, l0: int, l1: int) -> float:
    """Probability of any single vector in class (l0, l1)."""
    if not (0 <= l0 <= big_l0 and 0 <= l1 <= big_l1):
        raise ValueError("flip counts exceed available positions")
    p01, p10 = params.p01, params.p10
    return (
        p01**l0 * (1.0 - p01) ** (big_l0 - l0) * p10**l1 * (1.0 - p10) ** (big_l1 - l1)
    )


def sorted_classes(params: ChannelParams, big_l0: int, big_l1: int) -> list[TransitionClass]:
    """All (L0+1)(L1+1) classes in descending probability.

    Probabilities are compared in the log domain; classes within
    TIE_TOLERANCE of each other order by smaller l0+l1, then smaller l0.
    """
    return [
        TransitionClass(
            l0=l0,
            l1=l1,
            prob=class_probability(params, big_l0, big_l1, l0, l1),
            count=math.comb(big_l0, l0) * math.comb(big_l1, l1),
        )
        for l0, l1 in _class_table(params.p01, params.p10, big_l0, big_l1).pairs
    ]


class ClassTable(NamedTuple):
    """An order's class table, described at `LikelihoodOrder`."""

    pairs: tuple[tuple[int, int], ...]
    offsets: tuple[int, ...]
    kept: int


@lru_cache(maxsize=4096)
def _class_table(p01: float, p10: float, big_l0: int, big_l1: int) -> ClassTable:
    """The class table of a channel shape; its pairs are the classes of
    `sorted_classes`, in the same order."""
    lp01, l1mp01 = _log(p01), _log(1.0 - p01)
    lp10, l1mp10 = _log(p10), _log(1.0 - p10)
    entries = []
    for l0 in range(big_l0 + 1):
        for l1 in range(big_l1 + 1):
            logp = (
                _xlog(l0, lp01)
                + _xlog(big_l0 - l0, l1mp01)
                + _xlog(l1, lp10)
                + _xlog(big_l1 - l1, l1mp10)
            )
            entries.append((logp, l0, l1))
    entries.sort(key=lambda e: -e[0])
    # Cluster near-equal log-probabilities, then apply the tie rule inside
    # each cluster.
    groups: list[list[tuple[float, int, int]]] = []
    for entry in entries:
        if groups and _log_tie(groups[-1][0][0], entry[0]):
            groups[-1].append(entry)
        else:
            groups.append([entry])
    pairs = []
    for group in groups:
        group.sort(key=lambda e: (e[1] + e[2], e[1]))
        pairs.extend((l0, l1) for _, l0, l1 in group)
    kept = 0
    if all(pair == (w, 0) for w, pair in enumerate(pairs)):  # the weight table
        sizes = accumulate(math.comb(big_l0, w) for w in range(big_l0 + 1))
        kept = sum(1 for _ in takewhile(lambda n: n <= MEMO_MASKS, sizes))
    return ClassTable(tuple(pairs), _class_offsets(pairs, big_l0, big_l1), kept)


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else -math.inf


def _xlog(k: int, logp: float) -> float:
    # 0 * -inf must be 0 (empty product), not nan.
    return 0.0 if k == 0 else k * logp


def _log_tie(a: float, b: float) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= TIE_TOLERANCE * max(1.0, abs(a), abs(b))


def enumerate_candidates(
    prior: ColumnPrior, params: ChannelParams
) -> Iterator[tuple[int, ...]]:
    """Yield all 2^L candidate columns in descending likelihood.

    Within a class, the flipped zero positions run lexicographically as
    the outer loop and the flipped one positions as the inner loop.
    The emitted vectors use the original coordinate positions.
    """
    order = likelihood_order(bits_to_mask(prior.prev), prior.length, params.p01, params.p10)
    for mask in order.masks():
        yield mask_to_bits(mask, prior.length)


def tg_solve_column(
    ht: BitMatrix,
    s: Sequence[int],
    prior: ColumnPrior,
    params: ChannelParams,
    query_cap: int = DEFAULT_QUERY_CAP,
) -> tuple[int, ...] | None:
    """First candidate (in likelihood order) with ht·wᵀ = s, or None at the cap."""
    if prior.length != ht.cols:
        raise ValueError(f"prior length {prior.length} does not match {ht.cols} unknowns")
    system = SyndromeSystem(ht=ht, s=BitMatrix.trusted(len(s), 1, _binary(s, "syndrome")))
    order = likelihood_order(bits_to_mask(prior.prev), ht.cols, params.p01, params.p10)
    mask, _ = system.search(order, query_cap).find(system.runs[0][2])
    return None if mask is None else mask_to_bits(mask, ht.cols)


def tg_repair(
    system: SyndromeSystem,
    params: ChannelParams,
    query_cap: int = DEFAULT_QUERY_CAP,
) -> RepairResult:
    """Estimate all B error columns, chaining each estimate into the next prior.

    A capped-out column is left all-zero and the next column restarts
    from the all-zero prior.  Each prior's search is the system's search
    in its likelihood order (`SyndromeSystem.search`).
    """
    l, p01, p10 = system.core.num_unknowns, params.p01, params.p10
    return repair_columns(
        system, lambda prior: system.search(likelihood_order(prior, l, p01, p10), query_cap)
    )


# The bound of the weight order's prefix, per L: at most this many of its
# first masks, in whole classes, kept so that every system reuses them
# instead of generating them again.
MEMO_MASKS = 1 << 10


class LikelihoodOrder:
    """Candidate order for one prior column, given its class table, the
    one cached `_class_table(p01, p10, L0, L1)` per channel shape (L1 is
    the prior's weight and L0 = L - L1):

    - ``pairs``: every (l0, l1) class once, in query order;
    - ``offsets``: the candidates queried before class (l0, l1), at index
      l0·(L1+1) + L1-l1, one popcount on each side of the prior;
    - ``kept``: the leading classes the order keeps as a fixed prefix of
      masks.  Only the weight table, whose classes are the weights 0, 1,
      ..., L (the all-zero prior at p01 <= 1/2), keeps any: every system
      asks for its order, so it keeps the whole weights within
      `MEMO_MASKS` masks.

    `masks` yields the prefix, then generates the rest.  Orders compare by
    identity.
    """

    def __init__(self, prior_mask: int, l: int, table: ClassTable):
        self._prior = prior_mask
        self._zeros = ~prior_mask & ((1 << l) - 1)
        self._zero_bits = [1 << j for j in range(l) if self._zeros >> j & 1]
        self._one_bits = [1 << j for j in range(l) if prior_mask >> j & 1]
        self._stride = len(self._one_bits) + 1
        self._classes, self._offsets, self._kept = table
        self._prefix = tuple(self._walk(self._classes[: self._kept])) if self._kept else ()

    def masks(self) -> Iterator[int]:
        return chain(self._prefix, self._walk(self._classes[self._kept :]))

    def _walk(self, classes: Sequence[tuple[int, int]]) -> Iterator[int]:
        prior, zero_bits, one_bits = self._prior, self._zero_bits, self._one_bits
        for l0, l1 in classes:
            bases = [prior ^ sum(c) for c in combinations(one_bits, l1)]
            for f0 in map(sum, combinations(zero_bits, l0)):
                for base in bases:
                    yield f0 ^ base

    def first(self, masks: Sequence[int]) -> tuple[int, int]:
        zeros, prior, stride, offsets = self._zeros, self._prior, self._stride, self._offsets
        starts = [
            offsets[(m & zeros).bit_count() * stride + (m & prior).bit_count()] for m in masks
        ]
        start = min(starts)
        return min((self.position(m), m) for m, s in zip(masks, starts) if s == start)

    def position(self, mask: int) -> int:
        """1-based query position of `mask`."""
        flips0 = mask & self._zeros
        flips1 = self._prior & ~mask
        l0, l1 = flips0.bit_count(), flips1.bit_count()
        return (
            self._offsets[l0 * self._stride + (mask & self._prior).bit_count()]
            + lex_rank(flips0, self._zeros, l0) * math.comb(self._stride - 1, l1)
            + lex_rank(flips1, self._prior, l1)
            + 1
        )


@lru_cache(maxsize=1024)
def likelihood_order(prior_mask: int, l: int, p01: float, p10: float) -> LikelihoodOrder:
    """The channel's `LikelihoodOrder` for (prior, L); priors recur across systems.
    Where its classes are the weight order's, it is `weight_order(l)` itself."""
    ones = prior_mask.bit_count()
    table = _class_table(p01, p10, l - ones, ones)
    if not prior_mask and table.pairs == weight_order(l)._classes:
        return weight_order(l)
    return LikelihoodOrder(prior_mask, l, table)


@lru_cache(maxsize=None)
def weight_order(l: int) -> LikelihoodOrder:
    """Syndrome decoding's candidate order over L unknowns: weight 0, 1, 2,
    ...; supports in lexicographic order within a weight.  At p01 = p10 =
    1/2 every candidate is equally likely, so every class ties and the tie
    rule orders them by weight."""
    return LikelihoodOrder(0, l, _class_table(0.5, 0.5, l, 0))


def _class_offsets(
    pairs: Sequence[tuple[int, int]], big_l0: int, big_l1: int
) -> tuple[int, ...]:
    """The offsets of a `ClassTable` whose classes are ``pairs``."""
    offsets = [0] * ((big_l0 + 1) * (big_l1 + 1))
    total = 0
    for l0, l1 in pairs:
        offsets[l0 * (big_l1 + 1) + big_l1 - l1] = total
        total += math.comb(big_l0, l0) * math.comb(big_l1, l1)
    return tuple(offsets)


def _binary(bits: Sequence[int], what: str) -> tuple[int, ...]:
    """The 0/1 entries of bits as ints; any other entry raises `ValueError`."""
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"{what} entries must be 0 or 1, got {tuple(bits)}")
    return tuple(int(b) for b in bits)


def bits_to_mask(bits: Sequence[int]) -> int:
    mask = 0
    for i, bit in enumerate(bits):
        mask |= (bit & 1) << i
    return mask


def mask_to_bits(mask: int, length: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(length))


def lex_rank(mask: int, side: int, k: int) -> int:
    """0-based rank of a k-subset of the set bits of `side`, in combinations order.

    `mask` selects k of the n set bits of `side`; the order is that of
    itertools.combinations over those bits taken in ascending position,
    i.e. lexicographic by their index among them.
    """
    n = side.bit_count()
    r = math.comb(n, k) - 1
    while mask:
        low = mask & -mask
        r -= math.comb(n - 1 - (side & (low - 1)).bit_count(), k)
        k -= 1
        mask ^= low
    return r
