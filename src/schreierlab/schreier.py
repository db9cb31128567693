"""Schreier sets, chains, and the covering number tau1 with certificates.

A Schreier set is a finite set F of positive integers with |F| <= min F;
the empty set counts as Schreier (min of the empty set is taken as 0).
A Schreier chain is a list of non-empty Schreier sets F_1 < F_2 < ... with
max F_j < min F_{j+1}.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import InvalidInputError, OracleLimitError
from .intset import EMPTY, IntSet, as_intset, covers, successive

ORACLE_BOUND_ENV = "SCHREIER_LAB_ORACLE_BOUND"
DEFAULT_ORACLE_BOUND = 14


def oracle_bound() -> int:
    raw = os.environ.get(ORACLE_BOUND_ENV)
    if raw is None:
        return DEFAULT_ORACLE_BOUND
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"{ORACLE_BOUND_ENV}={raw!r} is not an integer") from exc


def _check_oracle_size(s: IntSet, what: str) -> None:
    bound = oracle_bound()
    if s.size > bound:
        raise OracleLimitError(
            f"{what} needs |S| <= {bound}, got {s.size} "
            f"(override with {ORACLE_BOUND_ENV})"
        )


def as_positive_intset(value) -> IntSet:
    s = as_intset(value)
    if not s.is_empty and s.min < 1:
        raise InvalidInputError(f"elements must be positive, got minimum {s.min}")
    return s


def is_schreier(f) -> bool:
    """True iff F is empty or |F| <= min F."""
    s = as_positive_intset(f)
    return s.is_empty or s.size <= s.min


def is_maximal_schreier(f) -> bool:
    """True iff F is non-empty with |F| = min F.  F must be admissible."""
    s = as_positive_intset(f)
    if not (s.is_empty or s.size <= s.min):
        raise InvalidInputError(f"{s!r} is not a Schreier set")
    return not s.is_empty and s.size == s.min


class SchreierChain:
    """Non-empty list of non-empty, successive Schreier sets."""

    __slots__ = ("_sets",)

    def __init__(self, sets: Iterable):
        parsed = tuple(as_positive_intset(s) for s in sets)
        if not parsed:
            raise InvalidInputError("a Schreier chain must contain at least one set")
        for s in parsed:
            if s.is_empty:
                raise InvalidInputError("chain sets must be non-empty")
            if s.size > s.min:
                raise InvalidInputError(f"{s!r} is not a Schreier set")
        for a, b in zip(parsed, parsed[1:]):
            if not successive(a, b):
                raise InvalidInputError(
                    f"chain sets must be successive: max {a.max} !< min {b.min}"
                )
        self._sets = parsed

    @property
    def sets(self) -> tuple[IntSet, ...]:
        return self._sets

    def union(self) -> IntSet:
        return IntSet(iv for s in self._sets for iv in s.intervals)

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self) -> Iterator[IntSet]:
        return iter(self._sets)

    def __getitem__(self, i):
        return self._sets[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, SchreierChain) and self._sets == other._sets

    def __hash__(self) -> int:
        return hash(self._sets)

    def __repr__(self) -> str:
        return f"SchreierChain({list(self._sets)!r})"

    def to_lists(self) -> list[list[int]]:
        return [s.to_list() for s in self._sets]


@dataclass(frozen=True)
class CoveringCertificate:
    """Witness for tau1: a chain of blocks whose union covers `covered`.

    All blocks except possibly the last are maximal Schreier sets, and the
    chain length equals the reported covering number.
    """

    chain: tuple[IntSet, ...]
    covered: IntSet

    @property
    def count(self) -> int:
        return len(self.chain)

    def verify(self) -> bool:
        """Check the chain, then its coverage of `covered` in O(intervals + blocks).

        The per-block checks run first; once the blocks are successive their
        intervals, taken in chain order, are sorted and disjoint, and joining
        the two pieces that meet at each block boundary makes them the union's
        normalized intervals.  A `tau1` certificate's union is its covered set,
        so one tuple comparison settles it; any other union falls back to the
        merge walk of `covers`.
        """
        joined: list[tuple[int, int]] = []
        for i, block in enumerate(self.chain):
            if block.is_empty or block.size > block.min:
                return False
            if i and not successive(self.chain[i - 1], block):
                return False
            if i < len(self.chain) - 1 and block.size != block.min:
                return False
            ivs = block.intervals
            if joined and joined[-1][1] + 1 == ivs[0][0]:
                joined[-1] = (joined[-1][0], ivs[0][1])
                joined.extend(ivs[1:])
            else:
                joined.extend(ivs)
        covered = self.covered.intervals
        return tuple(joined) == covered or covers(joined, covered)

    def to_json_obj(self) -> dict:
        return {
            "count": self.count,
            "chain": [b.to_list() for b in self.chain],
        }


def tau1(a) -> tuple[int, CoveringCertificate]:
    """Minimal number of successive Schreier sets covering A, with witness.

    Greedy: repeatedly cut the first min(min(remaining), |remaining|)
    elements as the next block.  Any covering chain can be normalized to
    blocks inside A, where coverage plus successiveness force each block to
    be a prefix of what remains; a maximal first prefix dominates because
    tau1 is monotone under spreads.  Optimality is nevertheless contract-
    tested against tau1_oracle rather than trusted.

    Each block costs three bisections of the set's cumulative interval sizes
    and one slice of its intervals, so a call costs O(blocks * log intervals
    + intervals) at any element count.
    """
    s = as_positive_intset(a)
    blocks: list[IntSet] = []
    n, o = s.size, 1  # o: ordinal of the least uncovered element
    while o <= n:
        k = min(s._at(o), n - o + 1)
        blocks.append(IntSet._of(s._slice(o, o + k - 1), k))
        o += k
    cert = CoveringCertificate(chain=tuple(blocks), covered=s)
    return len(blocks), cert


def tau1_oracle(a) -> int:
    """Reference covering number: exhaustive minimum over covering chains.

    A chain covering A stays a covering chain after intersecting every block
    with A (subsets of Schreier sets are Schreier), and then successiveness
    forces each block to be a contiguous prefix of the not-yet-covered part.
    The oracle therefore minimizes over all prefix decompositions with block
    sizes capped by the block minimum; this is independent of the greedy rule
    used by tau1.
    """
    s = as_positive_intset(a)
    _check_oracle_size(s, "tau1_oracle")
    elems = tuple(s.to_list())
    n = len(elems)
    memo: dict[int, int] = {n: 0}

    def best(i: int) -> int:
        if i in memo:
            return memo[i]
        cap = min(elems[i], n - i)
        val = 1 + min(best(i + k) for k in range(1, cap + 1))
        memo[i] = val
        return val

    return best(0)


def _tau1_count_sorted(elems, lo: int, hi: int) -> int:
    """Greedy covering count of elems[lo:hi], a sorted run of positive ints,
    counted in place: each block takes as many points as its minimum allows,
    the last one whatever is left."""
    count = 0
    while lo < hi:
        lo += elems[lo]
        count += 1
    return count


def _blocks(elems, i: int) -> Iterator[tuple[int, ...]]:
    """Every admissible block whose minimum is elems[i], as sorted indices.

    A block is its minimum plus at most min-1 later points.  Blocks come
    smallest first, and blocks of one size in combinations order.
    """
    n = len(elems)
    for r in range(min(elems[i] - 1, n - i - 1) + 1):
        for comb in combinations(range(i + 1, n), r):
            yield (i,) + comb


def enumerate_schreier_subsets(s) -> Iterator[IntSet]:
    """Every Schreier subset of S, exactly once, starting with the empty set."""
    base = as_positive_intset(s)
    _check_oracle_size(base, "enumerate_schreier_subsets")
    elems = tuple(base.to_list())
    yield EMPTY
    for i in range(len(elems)):
        for b in _blocks(elems, i):
            yield IntSet.from_iterable(elems[j] for j in b)


def _chains(elems, start: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All chains (as tuples of index blocks) inside elems[start:]."""
    for i in range(start, len(elems)):
        for b in _blocks(elems, i):
            yield (b,)
            for t in _chains(elems, b[-1] + 1):
                yield (b,) + t


def enumerate_chains(s) -> Iterator[SchreierChain]:
    """Every Schreier chain whose union is contained in S, exactly once."""
    base = as_positive_intset(s)
    _check_oracle_size(base, "enumerate_chains")
    elems = tuple(base.to_list())
    for chain in _chains(elems, 0):
        yield SchreierChain(IntSet.from_iterable(elems[j] for j in b) for b in chain)


def maximal_chain_from(start: int, count: int) -> SchreierChain:
    """`count` successive maximal Schreier intervals, the first being [start, 2*start).

    Each block begins right after the previous one and has size equal to its
    own minimum, so block j is [start*2^(j-1), start*2^j).
    """
    if start < 1 or count < 1:
        raise InvalidInputError("start and count must be positive")
    blocks = []
    lo = start
    for _ in range(count):
        blocks.append(IntSet.interval(lo, 2 * lo - 1))
        lo = 2 * lo
    return SchreierChain(blocks)
