"""Truncated subsequence-domination index with witnesses.

For infinite index sets M, N the index is the supremum of tau1(M(J)) over
finite J with N(J) Schreier, where M(J) = {m_j : j in J}.  A finite
truncation restricts J to {1..K}; the result is a certified lower bound
for the full supremum and is reported as such, never as the supremum
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, Sequence

from .errors import InvalidInputError, SizeLimitError, TruncationError
from .intset import MATERIALIZE_LIMIT, IntSet
from .norms import FLOAT_RTOL, SPACE_BAERNSTEIN, norm, validate_exponent
from .schreier import _tau1_count_sorted, as_positive_intset
from .vectors import CoeffVector, ints_from_json


class IndexSet:
    """Strictly increasing integer sequence, read lazily from one stream.

    Every read of the stream goes through `_pull`, which checks the order and
    appends to one shared cache: `element(j)` pulls up to the j-th element,
    and `elements()` walks the cache and pulls at its end, so any number of
    readers of one set (as in `union(a, a)`) read each element once.
    `limit` is the length when it is known in advance (explicit and interval
    sets and their doubles), None otherwise; a set never extrapolates past
    its end but raises TruncationError there.
    """

    def __init__(self, rule: str, stream: Iterable[int], limit: int | None = None,
                 intset: IntSet | None = None):
        self.rule = rule
        self._stream = iter(stream)
        self._cache: list[int] = []
        self._limit = limit
        self._intset = intset  # interval-backed sets select ordinals directly

    # -- factories ----------------------------------------------------------

    @classmethod
    def explicit(cls, elements: Sequence[int]) -> "IndexSet":
        xs = list(elements)
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise InvalidInputError("index set must be strictly increasing")
        if xs and xs[0] < 1:
            raise InvalidInputError("index set elements must be positive")
        return cls("explicit", xs, limit=len(xs))

    @classmethod
    def arithmetic(cls, a: int, d: int) -> "IndexSet":
        if a < 1 or d < 1:
            raise InvalidInputError("arithmetic rule needs a >= 1, d >= 1")
        return cls(f"arith({a},{d})", count(a, d))

    @classmethod
    def naturals(cls) -> "IndexSet":
        return cls.arithmetic(1, 1)

    @classmethod
    def evens(cls) -> "IndexSet":
        return cls.arithmetic(2, 2)

    @classmethod
    def odds(cls) -> "IndexSet":
        return cls.arithmetic(1, 2)

    @classmethod
    def doubled(cls, base: "IndexSet") -> "IndexSet":
        """2M = {2m : m in M}."""
        return cls(f"2*({base.rule})", (2 * m for m in base.elements()), base._limit)

    @classmethod
    def doubled_minus_one(cls, base: "IndexSet") -> "IndexSet":
        """2M-1 = {2m-1 : m in M}."""
        return cls(f"2*({base.rule})-1", (2 * m - 1 for m in base.elements()), base._limit)

    @classmethod
    def union(cls, a: "IndexSet", b: "IndexSet") -> "IndexSet":
        def merge() -> Iterator[int]:
            ita, itb = a.elements(), b.elements()
            av, bv = next(ita, None), next(itb, None)
            while av is not None or bv is not None:
                e = bv if av is None or (bv is not None and bv < av) else av
                yield e
                if av == e:
                    av = next(ita, None)
                if bv == e:
                    bv = next(itb, None)

        return cls(f"({a.rule})|({b.rule})", merge())

    @classmethod
    def from_intset(cls, s: IntSet, rule: str = "intervals") -> "IndexSet":
        return cls(rule, s.iter_elements(), s.size, s)

    # -- access --------------------------------------------------------------

    def element(self, j: int) -> int:
        if j < 1:
            raise InvalidInputError(f"index {j} must be >= 1")
        if self._limit is not None and j > self._limit:
            raise TruncationError(
                f"index set ({self.rule}) is materialized through {self._limit}, "
                f"requested element {j}"
            )
        while len(self._cache) < j:
            if not self._pull():
                raise TruncationError(
                    f"index set ({self.rule}) ends at length {len(self._cache)}, "
                    f"requested element {j}"
                )
        return self._cache[j - 1]

    def _pull(self) -> bool:
        """Append the stream's next element to the cache; False at its end."""
        nxt = next(self._stream, None)
        if nxt is None:
            return False
        cache = self._cache
        if cache and nxt <= cache[-1]:
            raise InvalidInputError("index set rule is not strictly increasing")
        cache.append(nxt)
        return True

    def elements(self) -> Iterator[int]:
        """The elements in order, stopping exactly where element() would raise
        TruncationError.  Infinite for rule-backed sets, hence not __iter__."""
        cache, limit = self._cache, self._limit
        j = 0
        while j < len(cache) or ((limit is None or j < limit) and self._pull()):
            yield cache[j]
            j += 1

    def prefix(self, k: int) -> tuple[int, ...]:
        """The first k elements; () for k = 0."""
        if k:
            self.element(k)
        return tuple(self._cache[:k])

    @property
    def materialized_limit(self) -> int | None:
        """None means unbounded (rule-generated)."""
        return self._limit

    def select(self, j_set) -> IntSet:
        """M(J) = {m_j : j in J}."""
        js = as_positive_intset(j_set)
        if js.is_empty:
            return IntSet()
        if self._intset is not None:
            return self._intset.select_ordinals(js)
        return IntSet.from_iterable(self.element(j) for j in js.iter_elements())

    def contains(self, value: int) -> bool:
        """Membership test; walks the elements until the value is passed."""
        for e in self.elements():
            if e >= value:
                return e == value
        return False

    def to_json_obj(self, k: int | None = None) -> dict:
        if k is None:
            k = self._limit if self._limit is not None else len(self._cache)
        if k > MATERIALIZE_LIMIT:  # before the stream is read that far
            raise SizeLimitError(
                f"refusing to materialize {k} elements (limit {MATERIALIZE_LIMIT})"
            )
        return {"rule": self.rule, "prefix": list(self.prefix(k))}

    def __repr__(self) -> str:
        return f"IndexSet({self.rule})"


@dataclass(frozen=True)
class TruncatedGLIndex:
    """Lower-bound certificate: tau1(M(witness)) = value with N(witness) Schreier.

    `value` never decreases as K grows; it certifies "the full index is at
    least `value`", not a finite value of the supremum.
    """

    value: int
    witness: IntSet
    k: int

    def to_json_obj(self) -> dict:
        return {"value": self.value, "witness": self.witness.to_list(), "K": self.k}


def gl_index_truncated(m: IndexSet, n: IndexSet, k: int) -> TruncatedGLIndex:
    """Maximize tau1(M(J)) over J within {1..K} such that N(J) is Schreier.

    Fix the smallest index j1.  N(J) Schreier forces |J| <= n_{j1}, and
    enlarging J cannot decrease tau1(M(J)), so J may have size
    cap = min(n_{j1}, K - j1 + 1).  The i-th element of such a J is at least
    j1 + i - 1, so M(J) is a spread of M({j1, ..., j1 + cap - 1}), and tau1
    cannot grow under spreads: that window is optimal for j1.  The index is
    the max over the K windows, each counted in place on the prefix of M in
    one greedy step per block, O(K * value).  The witness is the window at
    the smallest j1 attaining the value, which is the lexicographically
    smallest maximal selection attaining it.
    """
    if k < 1:
        raise InvalidInputError("K must be positive")
    mp = m.prefix(k)
    np_ = n.prefix(k)
    windows = [(j1, j1 + min(np_[j1 - 1], k - j1 + 1) - 1) for j1 in range(1, k + 1)]
    values = [_tau1_count_sorted(mp, lo - 1, hi) for lo, hi in windows]
    best = values.index(max(values))
    return TruncatedGLIndex(values[best], IntSet.interval(*windows[best]), k)


@dataclass(frozen=True)
class DominationCheck:
    lhs: float
    rhs: float
    holds: bool


def check_domination(
    m: IndexSet, n: IndexSet, index: TruncatedGLIndex, p, space: str, coeffs: Sequence
) -> DominationCheck:
    """Evaluate both norms and compare against the constant C from the pair's
    truncated index: C = index for the chain norm, its p-th root for the
    Schreier norm.  The domination proof only inspects selections inside the
    coefficient support, so the truncated value suffices for coefficients on
    1..index.k."""
    validate_exponent(p, space)
    if len(coeffs) > index.k:
        raise TruncationError(f"{len(coeffs)} coefficients exceed K={index.k}")
    if space == SPACE_BAERNSTEIN:  # C and C^p; C^p is exact for integral p
        const, const_pow = float(index.value), index.value**p
    else:
        const, const_pow = float(index.value) ** (1.0 / float(p)), index.value
    xm = CoeffVector.from_entries(
        (m.element(j + 1), c) for j, c in enumerate(coeffs) if c != 0
    )
    xn = CoeffVector.from_entries(
        (n.element(j + 1), c) for j, c in enumerate(coeffs) if c != 0
    )
    rm, rn = norm(xm, p, space), norm(xn, p, space)
    if rm.mode == "exact" and rn.mode == "exact":
        holds = rn.value_pow <= const_pow * rm.value_pow
    else:
        holds = rn.value <= const * rm.value * (1.0 + FLOAT_RTOL)
    return DominationCheck(lhs=rn.value, rhs=const * rm.value, holds=bool(holds))


# Each rule operator nests one more stream, and parsing and reading a
# nested rule both recurse, so the depth is refused before either starts.
MAX_RULE_OPERATORS = 100


def parse_index_rule(text: str) -> IndexSet:
    """Parse CLI-style rules: all|even|odd|arith:a:d|double:R|doubleodd:R|union:R|R
    or an explicit JSON array of integers."""
    t = text.strip().lower()
    ops = sum(t.count(op) for op in ("double:", "doubleodd:", "union:"))
    if ops > MAX_RULE_OPERATORS:
        raise InvalidInputError(
            f"index rule has {ops} operators (double:, doubleodd:, union:), "
            f"more than the {MAX_RULE_OPERATORS} allowed"
        )
    if t in ("all", "naturals", "n"):
        return IndexSet.naturals()
    if t in ("even", "evens"):
        return IndexSet.evens()
    if t in ("odd", "odds"):
        return IndexSet.odds()
    if t.startswith("arith:"):
        parts = t.split(":")
        if len(parts) != 3:
            raise InvalidInputError(f"bad arithmetic rule {text!r}, want arith:a:d")
        try:
            return IndexSet.arithmetic(int(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise InvalidInputError(f"bad arithmetic rule {text!r}") from exc
    if t.startswith("double:"):
        return IndexSet.doubled(parse_index_rule(text.split(":", 1)[1]))
    if t.startswith("doubleodd:"):
        return IndexSet.doubled_minus_one(parse_index_rule(text.split(":", 1)[1]))
    if t.startswith("union:"):
        rest = text.split(":", 1)[1]
        left, sep, right = rest.partition(";")
        if not sep:
            raise InvalidInputError("union rule wants union:RULE;RULE")
        return IndexSet.union(parse_index_rule(left), parse_index_rule(right))
    if t.startswith("["):
        import json

        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"bad index set JSON {text!r}") from exc
        return IndexSet.explicit(ints_from_json(data, "explicit index set"))
    raise InvalidInputError(f"unknown index set rule {text!r}")
