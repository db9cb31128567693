"""Finite integer sets stored as sorted, disjoint closed intervals.

Chains of maximal Schreier sets double in size, so the covering
constructions routinely produce sets with 2^50 and more elements.  Nothing
here costs O(#elements) or materializes elements unless explicitly asked to:
building and comparing sets cost O(#intervals), and ordinal access bisects the
cumulative interval sizes.  The constructor keeps those sums as it merges;
a trusted slice (`_of`) computes them on its first ordinal query.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from typing import Iterable, Iterator

from .errors import InvalidInputError, SizeLimitError

# Refuse to expand interval sets into element lists beyond this size.
MATERIALIZE_LIMIT = 200_000


class IntSet:
    __slots__ = ("_ivs", "_size", "_ends")

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        merged: list[tuple[int, int]] = []
        ends: list[int] = []  # running size after each merged interval
        size = 0
        for lo, hi in sorted(intervals):
            if not isinstance(lo, int) or not isinstance(hi, int):
                raise InvalidInputError("interval endpoints must be integers")
            if lo > hi:
                raise InvalidInputError(f"empty interval [{lo}, {hi}]")
            if merged and lo <= merged[-1][1] + 1:
                plo, phi = merged[-1]
                if hi > phi:
                    merged[-1] = (plo, hi)
                    size += hi - phi
                    ends[-1] = size
            else:
                merged.append((lo, hi))
                size += hi - lo + 1
                ends.append(size)
        self._ivs: tuple[tuple[int, int], ...] = tuple(merged)
        self._size = size
        self._ends: list[int] | None = ends

    @classmethod
    def _of(cls, ivs: tuple[tuple[int, int], ...], size: int) -> "IntSet":
        """Trusted constructor for intervals that are already sorted, disjoint
        and non-adjacent, with `size` their total length (`_slice` output, one
        checked interval).  Its ordinal ends wait for the first ordinal query."""
        s = cls.__new__(cls)
        s._ivs, s._size, s._ends = ivs, size, None
        return s

    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "IntSet":
        return cls((e, e) for e in elements)

    @classmethod
    def interval(cls, lo: int, hi: int) -> "IntSet":
        """Closed integer interval [lo, hi]."""
        if isinstance(lo, int) and isinstance(hi, int) and lo <= hi:
            return cls._of(((lo, hi),), hi - lo + 1)
        return cls(((lo, hi),))  # raises the constructor's error

    @property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        return self._ivs

    @property
    def size(self) -> int:
        return self._size

    @property
    def is_empty(self) -> bool:
        return self._size == 0

    @property
    def min(self) -> int:
        if self.is_empty:
            raise InvalidInputError("empty set has no minimum")
        return self._ivs[0][0]

    @property
    def max(self) -> int:
        if self.is_empty:
            raise InvalidInputError("empty set has no maximum")
        return self._ivs[-1][1]

    def __contains__(self, value: int) -> bool:
        i = bisect_right(self._ivs, (value, math.inf)) - 1
        return i >= 0 and self._ivs[i][0] <= value <= self._ivs[i][1]

    def __bool__(self) -> bool:
        return self._size > 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntSet) and self._ivs == other._ivs

    def __hash__(self) -> int:
        return hash(self._ivs)

    def __repr__(self) -> str:
        if self._size <= 12:
            return f"IntSet({self.to_list()})"
        return f"IntSet(<{self._size} elements in {len(self._ivs)} intervals>)"

    def _ordinal_ends(self) -> list[int]:
        """Ordinal of each interval's last element, computed at most once per set."""
        if self._ends is None:
            self._ends = list(accumulate(hi - lo + 1 for lo, hi in self._ivs))
        return self._ends

    def _at(self, o: int) -> int:
        """The o-th smallest element (1-based); the caller checks 1 <= o <= size."""
        ends = self._ordinal_ends()
        i = bisect_left(ends, o)
        return self._ivs[i][1] - (ends[i] - o)

    def _slice(self, o1: int, o2: int, start: int = 0) -> tuple[tuple[int, int], ...]:
        """Intervals holding the o1-th through o2-th smallest elements (1-based).

        Two bisections, from the interval index `start` (a caller cutting
        successive slices passes the previous one's), and one tuple slice with
        its end intervals trimmed; the caller checks 1 <= o1 <= o2 <= size.
        """
        ends = self._ends or self._ordinal_ends()
        i = bisect_left(ends, o1, start)
        j = bisect_left(ends, o2, i)
        ivs = self._ivs
        first = ivs[i][1] - (ends[i] - o1)
        last = ivs[j][1] - (ends[j] - o2)
        if i == j:
            return ((first, last),)
        return ((first, ivs[i][1]), *ivs[i + 1 : j], (ivs[j][0], last))

    def first_k(self, k: int) -> "IntSet":
        """The k smallest elements."""
        if k < 0 or k > self._size:
            raise InvalidInputError(f"cannot take first {k} of {self._size} elements")
        return IntSet._of(self._slice(1, k), k) if k else EMPTY

    def select_ordinals(self, ordinals: "IntSet") -> "IntSet":
        """Subset at the given 1-based ordinal positions.

        Ordinal intervals with a gap between them select value intervals with
        a gap between them, so the slices join into a normalized set as they are.
        """
        if ordinals.is_empty:
            return EMPTY
        if ordinals.min < 1 or ordinals.max > self._size:
            raise InvalidInputError(
                f"ordinals {ordinals.min}..{ordinals.max} out of range 1..{self._size}"
            )
        ivs = tuple(iv for olo, ohi in ordinals._ivs for iv in self._slice(olo, ohi))
        return IntSet._of(ivs, ordinals._size)

    def union(self, other: "IntSet") -> "IntSet":
        return IntSet(self._ivs + other._ivs)

    def issubset(self, other: "IntSet") -> bool:
        return covers(other._ivs, self._ivs)

    def iter_elements(self) -> Iterator[int]:
        return chain.from_iterable(range(lo, hi + 1) for lo, hi in self._ivs)

    def to_list(self) -> list[int]:
        if self._size > MATERIALIZE_LIMIT:
            raise SizeLimitError(
                f"refusing to materialize {self._size} elements (limit {MATERIALIZE_LIMIT})"
            )
        return list(self.iter_elements())


EMPTY = IntSet()


def as_intset(value) -> IntSet:
    """Coerce an IntSet, iterable of ints, or (lo, hi) interval list."""
    if isinstance(value, IntSet):
        return value
    return IntSet.from_iterable(value)


def successive(a: IntSet, b: IntSet) -> bool:
    """True iff max(a) < min(b); both must be non-empty."""
    return a.max < b.min


def covers(cover: Iterable[tuple[int, int]], ivs: Iterable[tuple[int, int]]) -> bool:
    """True iff the union of the intervals `cover` contains every interval of `ivs`.

    Both are sorted ascending and disjoint; `cover` may hold adjacent
    intervals (the blocks of a chain), which the walk joins as it goes.  One
    merge walk that reads `cover` lazily and returns False at the first
    uncovered point: O(len(ivs) + the cover intervals read).
    """
    it = iter(cover)
    lo = hi = -math.inf  # the joined cover run reached so far
    for a, b in ivs:
        while hi < a:
            nxt = next(it, None)
            if nxt is None:
                return False
            lo, hi = nxt
        if a < lo:
            return False
        while hi < b:
            nxt = next(it, None)
            if nxt is None or nxt[0] != hi + 1:
                return False
            hi = nxt[1]
    return True
