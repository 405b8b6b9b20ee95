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

The first hit is found with the shared search core (`search.py`) rather
than by testing every candidate in turn.  The solutions of one column
form a coset of dimension d = L - rank(ht).  The core tests at most 2^d
candidates in likelihood order; if none hits, the first hit is the coset
member with the smallest position

    offset of class (l0, l1) in sorted_classes
    + lexrank(flips0)·C(L1, l1) + lexrank(flips1) + 1,

where flips0 and flips1 are the flipped zero and one positions.  The
estimate and the reported query count equal those of walking the order
to the first hit, or to the query cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from typing import Iterator, Sequence

from .channel import ChannelParams
from .gf2 import BitMatrix
from .search import (
    OrderedSearch, RepairResult, bits_to_mask, lex_rank, mask_to_bits, repair_columns, solve_column,
)
from .syndrome_decoder import DEFAULT_QUERY_CAP, SyndromeSystem

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
        return cls(prev=tuple(b & 1 for b in bits))

    @classmethod
    def all_zero(cls, length: int) -> "ColumnPrior":
        return cls.from_bits((0,) * length)

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
    return list(_sorted_classes_cached(params.p01, params.p10, big_l0, big_l1))


@lru_cache(maxsize=4096)
def _sorted_classes_cached(
    p01: float, p10: float, big_l0: int, big_l1: int
) -> tuple[TransitionClass, ...]:
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
    params = ChannelParams(p01=p01, p10=p10)
    out = []
    for group in groups:
        group.sort(key=lambda e: (e[1] + e[2], e[1]))
        for _, l0, l1 in group:
            out.append(
                TransitionClass(
                    l0=l0,
                    l1=l1,
                    prob=class_probability(params, big_l0, big_l1, l0, l1),
                    count=math.comb(big_l0, l0) * math.comb(big_l1, l1),
                )
            )
    return tuple(out)


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
    order = _LikelihoodOrder(bits_to_mask(prior.prev), prior.length, params)
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
    order = _LikelihoodOrder(bits_to_mask(prior.prev), ht.cols, params)
    return solve_column(ht, s, order, query_cap)


def tg_repair(
    system: SyndromeSystem,
    params: ChannelParams,
    query_cap: int = DEFAULT_QUERY_CAP,
) -> RepairResult:
    """Estimate all B error columns, chaining each estimate into the next prior.

    A capped-out column is left all-zero and the next column restarts
    from the all-zero prior.  Columns with the same prior share one
    search, so a repeated (prior, target) pair is answered from memory.
    """
    l = system.num_unknowns

    @cache
    def search_for(prior: int) -> OrderedSearch:
        return OrderedSearch(system.core, _LikelihoodOrder(prior, l, params), query_cap)

    return repair_columns(system.targets, l, search_for)


class _LikelihoodOrder:
    """Likelihood order of the candidates for one prior column.

    A candidate's position is the offset of its (l0, l1) class in
    `sorted_classes` plus its rank inside the class, where the zero-side
    flips are the major and the one-side flips the minor index.
    """

    def __init__(self, prior_mask: int, l: int, params: ChannelParams):
        self._prior = prior_mask
        self._l = l
        self._params = params
        self._zero_bits = [1 << j for j in range(l) if not prior_mask >> j & 1]
        self._one_bits = [1 << j for j in range(l) if prior_mask >> j & 1]

    def masks(self) -> Iterator[int]:
        p = self._params
        for cls in _sorted_classes_cached(p.p01, p.p10, len(self._zero_bits), len(self._one_bits)):
            for flips0 in combinations(self._zero_bits, cls.l0):
                base = self._prior ^ sum(flips0)
                for flips1 in combinations(self._one_bits, cls.l1):
                    yield base ^ sum(flips1)

    def block(self, mask: int) -> int:
        flips = mask ^ self._prior
        ones = flips & self._prior
        big_l1 = len(self._one_bits)
        offsets = _class_offsets(self._params.p01, self._params.p10, len(self._zero_bits), big_l1)
        return offsets[(flips ^ ones).bit_count() * (big_l1 + 1) + ones.bit_count()]

    def position(self, mask: int) -> int:
        flips = mask ^ self._prior
        flips1 = flips & self._prior
        flips0 = flips ^ flips1
        big_l0, big_l1 = len(self._zero_bits), len(self._one_bits)
        # side_index[j] is j's index among the prior's zeros or among its ones.
        side_index = [0] * self._l
        for side in (self._zero_bits, self._one_bits):
            for i, bit in enumerate(side):
                side_index[bit.bit_length() - 1] = i
        return (
            self.block(mask)
            + lex_rank(flips0, side_index, big_l0, flips0.bit_count())
            * math.comb(big_l1, flips1.bit_count())
            + lex_rank(flips1, side_index, big_l1, flips1.bit_count())
            + 1
        )


@lru_cache(maxsize=4096)
def _class_offsets(p01: float, p10: float, big_l0: int, big_l1: int) -> tuple[int, ...]:
    """Candidates queried before class (l0, l1), at index l0·(L1+1) + l1."""
    offsets = [0] * ((big_l0 + 1) * (big_l1 + 1))
    total = 0
    for cls in _sorted_classes_cached(p01, p10, big_l0, big_l1):
        offsets[cls.l0 * (big_l1 + 1) + cls.l1] = total
        total += cls.count
    return tuple(offsets)
