"""Finitely supported coefficient vectors with run-length storage.

A CoeffVector maps positive integer indices to non-zero scalars.  Entries
are stored as maximal runs (lo, hi, value) of consecutive indices sharing
one value, so the flat vectors living on doubling block chains stay cheap
no matter how large their supports get.  Scalars are ints/Fractions (exact
mode) or floats (float mode); mixing the two inside one vector is allowed
but demotes the vector to float mode.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .errors import InvalidInputError, SizeLimitError
from .intset import IntSet

Scalar = Union[int, Fraction, float]

# Guard for operations that expand runs into per-index form.
PAIRS_LIMIT = 100_000


def _check_scalar(v) -> None:
    if not isinstance(v, (int, Fraction, float)):
        raise InvalidInputError(f"unsupported scalar type {type(v).__name__}")
    if isinstance(v, float) and not math.isfinite(v):
        raise InvalidInputError(f"non-finite scalar {v!r}")


class CoeffVector:
    __slots__ = ("_runs", "_size", "_exact")

    def __init__(self, runs: Iterable[tuple[int, int, Scalar]] = ()):
        """Validate, merge and size the runs in one pass; the vector is exact
        unless a non-zero float is the value of one of its runs."""
        out: list[tuple[int, int, Scalar]] = []
        size, exact = 0, True
        for lo, hi, v in sorted(runs, key=lambda r: (r[0], r[1])):
            if not isinstance(lo, int) or not isinstance(hi, int):
                raise InvalidInputError("run endpoints must be integers")
            if lo < 1:
                raise InvalidInputError(f"indices must be >= 1, got {lo}")
            if lo > hi:
                raise InvalidInputError(f"empty run [{lo}, {hi}]")
            _check_scalar(v)
            if v == 0:
                continue
            size += hi - lo + 1
            if out:
                plo, phi, pv = out[-1]
                if lo <= phi:
                    raise InvalidInputError(f"overlapping runs at index {lo}")
                if lo == phi + 1 and pv == v:
                    out[-1] = (plo, hi, pv)
                    continue
            out.append((lo, hi, v))
            if isinstance(v, float):
                exact = False
        self._runs: tuple[tuple[int, int, Scalar], ...] = tuple(out)
        self._size = size
        self._exact = exact

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_entries(cls, entries) -> "CoeffVector":
        """Build from a mapping index -> value or an iterable of (index, value)."""
        items = entries.items() if hasattr(entries, "items") else entries
        return cls((i, i, v) for i, v in items)

    @classmethod
    def from_dense(cls, values: Iterable[Scalar]) -> "CoeffVector":
        """Values at indices 1..n."""
        return cls((i, i, v) for i, v in enumerate(values, start=1))

    @classmethod
    def basis(cls, n: int, coeff: Scalar = 1) -> "CoeffVector":
        return cls(((n, n, coeff),))

    @classmethod
    def zero(cls) -> "CoeffVector":
        return cls()

    # -- structure ----------------------------------------------------------

    @property
    def runs(self) -> tuple[tuple[int, int, Scalar], ...]:
        return self._runs

    @property
    def support_size(self) -> int:
        return self._size

    @property
    def is_zero(self) -> bool:
        return self._size == 0

    @property
    def exact(self) -> bool:
        """True iff every entry is rational (int or Fraction)."""
        return self._exact

    @property
    def min_index(self) -> int:
        if self.is_zero:
            raise InvalidInputError("zero vector has no support")
        return self._runs[0][0]

    @property
    def max_index(self) -> int:
        if self.is_zero:
            raise InvalidInputError("zero vector has no support")
        return self._runs[-1][1]

    def support(self) -> IntSet:
        return IntSet((lo, hi) for lo, hi, _ in self._runs)

    def entry(self, i: int) -> Scalar:
        for lo, hi, v in self._runs:
            if lo <= i <= hi:
                return v
        return 0

    def items(self) -> Iterator[tuple[int, Scalar]]:
        for lo, hi, v in self._runs:
            for i in range(lo, hi + 1):
                yield i, v

    def pairs(self) -> list[tuple[int, Scalar]]:
        if self._size > PAIRS_LIMIT:
            raise SizeLimitError(
                f"refusing to expand {self._size} entries (limit {PAIRS_LIMIT})"
            )
        return list(self.items())

    # -- algebra ------------------------------------------------------------

    def abs(self) -> "CoeffVector":
        return CoeffVector((lo, hi, abs(v)) for lo, hi, v in self._runs)

    def scaled(self, c: Scalar) -> "CoeffVector":
        _check_scalar(c)
        if c == 0:
            return CoeffVector()
        return CoeffVector((lo, hi, c * v) for lo, hi, v in self._runs)

    def __add__(self, other: "CoeffVector") -> "CoeffVector":
        if not isinstance(other, CoeffVector):
            return NotImplemented
        # Merge both run lists over their boundary points, summing values;
        # the constructor drops zero sums and re-joins equal neighbours.
        cuts = sorted({e for lo, hi, _ in self._runs + other._runs for e in (lo, hi + 1)})
        values = zip(_values_at(self._runs, cuts), _values_at(other._runs, cuts))
        return CoeffVector((a, b - 1, u + w) for a, b, (u, w) in zip(cuts, cuts[1:], values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffVector):
            return NotImplemented
        return self._runs == other._runs

    def __repr__(self) -> str:
        if self._size <= 8:
            return f"CoeffVector({dict(self.items())!r})"
        return f"CoeffVector(<{self._size} entries in {len(self._runs)} runs>)"

    def is_nonincreasing_abs(self) -> bool:
        """True iff |entries| are non-increasing along the support order."""
        prev = None
        for _, _, v in self._runs:
            a = abs(v)
            if prev is not None and a > prev:
                return False
            prev = a
        return True


def _values_at(runs, points) -> Iterator[Scalar]:
    """Entry at each of the ascending points, in one pass over the sorted runs."""
    k = 0
    for q in points:
        while k < len(runs) and runs[k][1] < q:
            k += 1
        yield runs[k][2] if k < len(runs) and runs[k][0] <= q else 0


def sup_norm(x: CoeffVector) -> Scalar:
    """max |entry|; 0 for the zero vector.  Exact when the entries are."""
    best: Scalar = 0
    for _, _, v in x.runs:
        a = abs(v)
        if a > best:
            best = a
    return best


class BlockSequence:
    """Ordered list of non-zero vectors with successive supports."""

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterable[CoeffVector]):
        parsed = tuple(blocks)
        if not parsed:
            raise InvalidInputError("a block sequence needs at least one block")
        for b in parsed:
            if not isinstance(b, CoeffVector) or b.is_zero:
                raise InvalidInputError("blocks must be non-zero CoeffVectors")
        for a, b in zip(parsed, parsed[1:]):
            if a.max_index >= b.min_index:
                raise InvalidInputError(
                    f"block supports must be successive: {a.max_index} !< {b.min_index}"
                )
        self._blocks = parsed

    @property
    def blocks(self) -> tuple[CoeffVector, ...]:
        return self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[CoeffVector]:
        return iter(self._blocks)

    def __getitem__(self, i):
        return self._blocks[i]


# -- JSON forms --------------------------------------------------------------


def scalar_from_json(raw) -> Scalar:
    if isinstance(raw, bool):
        raise InvalidInputError("boolean is not a scalar")
    if isinstance(raw, str):
        text = raw.strip()
        try:
            if "/" in text:
                raw = Fraction(text)
            elif any(c in text for c in ".eE"):
                raw = float(text)
            else:
                raw = int(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot parse scalar {raw!r}") from exc
    elif not isinstance(raw, (int, float)):
        raise InvalidInputError(f"cannot parse scalar {raw!r}")
    _check_scalar(raw)
    return raw


def ints_from_json(obj, what: str) -> list[int]:
    """obj, which must be a JSON array of integers (true and false are not)."""
    if not isinstance(obj, list) or not all(type(v) is int for v in obj):
        raise InvalidInputError(f"{what} must be a JSON array of integers")
    return obj


def vector_from_json_obj(obj) -> CoeffVector:
    """Accept the object form or a dense array for indices 1..n."""
    if isinstance(obj, list):
        return CoeffVector.from_dense(scalar_from_json(v) for v in obj)
    if isinstance(obj, dict):
        entries = []
        for key, raw in obj.items():
            try:
                idx = int(key)
            except ValueError as exc:
                raise InvalidInputError(f"bad index {key!r}") from exc
            entries.append((idx, scalar_from_json(raw)))
        return CoeffVector.from_entries(entries)
    raise InvalidInputError("vector JSON must be an array or an object")
