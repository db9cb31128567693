"""Truncated subsequence-domination index with witnesses.

For infinite index sets M, N the index is the supremum of tau1(M(J)) over
finite J with N(J) Schreier, where M(J) = {m_j : j in J}.  A finite
truncation restricts J to {1..K}; the result is a certified lower bound
for the full supremum and is reported as such, never as the supremum
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InvalidInputError, TruncationError
from .intset import IntSet
from .norms import SPACE_BAERNSTEIN, norm, validate_exponent
from .schreier import _tau1_count_sorted, as_positive_intset, tau1
from .vectors import CoeffVector


class IndexSet:
    """Strictly increasing integer sequence with a materializable prefix.

    Rule-backed sets (arithmetic progressions, 2M, 2M-1, unions, interval
    sets) materialize lazily and cache; explicit sets raise TruncationError
    beyond their prefix instead of extrapolating.
    """

    def __init__(self, rule: str, generator=None, prefix=None, limit=None):
        self.rule = rule
        self._gen = generator  # callable j -> element, or None
        self._cache: list[int] = list(prefix or [])
        self._limit = limit if limit is not None else (len(self._cache) if generator is None else None)
        for a, b in zip(self._cache, self._cache[1:]):
            if a >= b:
                raise InvalidInputError("index set must be strictly increasing")
        if self._cache and self._cache[0] < 1:
            raise InvalidInputError("index set elements must be positive")

    # -- factories ----------------------------------------------------------

    @classmethod
    def explicit(cls, elements: Sequence[int]) -> "IndexSet":
        return cls("explicit", prefix=list(elements))

    @classmethod
    def arithmetic(cls, a: int, d: int) -> "IndexSet":
        if a < 1 or d < 1:
            raise InvalidInputError("arithmetic rule needs a >= 1, d >= 1")
        return cls(f"arith({a},{d})", generator=lambda j: a + (j - 1) * d)

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
        return cls(f"2*({base.rule})", generator=lambda j: 2 * base.element(j),
                   limit=base._limit)

    @classmethod
    def doubled_minus_one(cls, base: "IndexSet") -> "IndexSet":
        """2M-1 = {2m-1 : m in M}."""
        return cls(f"2*({base.rule})-1", generator=lambda j: 2 * base.element(j) - 1,
                   limit=base._limit)

    @classmethod
    def union(cls, a: "IndexSet", b: "IndexSet") -> "IndexSet":
        # merge the two streams from scratch on each call; cheap at desk
        # scale and keeps the closure free of cross-call index state
        def gen_fresh(j: int) -> int:
            ai = bi = 0
            last = 0
            count = 0
            while True:
                av = a._try_element(ai + 1)
                bv = b._try_element(bi + 1)
                if av is None and bv is None:
                    raise TruncationError(
                        f"union of ({a.rule}) and ({b.rule}) exhausted at length {count}"
                    )
                if bv is None or (av is not None and av <= bv):
                    nxt = av
                    ai += 1
                    if av == bv:
                        bi += 1
                else:
                    nxt = bv
                    bi += 1
                if nxt > last:
                    last = nxt
                    count += 1
                    if count == j:
                        return nxt

        return cls(f"({a.rule})|({b.rule})", generator=gen_fresh)

    @classmethod
    def from_intset(cls, s: IntSet, rule: str = "intervals") -> "IndexSet":
        obj = cls(rule, generator=s.element_at, limit=s.size)
        obj._intset = s
        return obj

    # -- access --------------------------------------------------------------

    def _try_element(self, j: int) -> int | None:
        try:
            return self.element(j)
        except TruncationError:
            return None

    def element(self, j: int) -> int:
        if j < 1:
            raise InvalidInputError(f"index {j} must be >= 1")
        if self._limit is not None and j > self._limit:
            raise TruncationError(
                f"index set ({self.rule}) is materialized through {self._limit}, "
                f"requested element {j}"
            )
        while len(self._cache) < j:
            nxt = self._gen(len(self._cache) + 1)
            if self._cache and nxt <= self._cache[-1]:
                raise InvalidInputError("index set rule is not strictly increasing")
            self._cache.append(nxt)
        return self._cache[j - 1]

    def prefix(self, k: int) -> tuple[int, ...]:
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
        if hasattr(self, "_intset"):
            return self._intset.select_ordinals(js)
        return IntSet.from_iterable(self.element(j) for j in js.iter_elements())

    def contains(self, value: int) -> bool:
        """Membership test; walks the prefix until the value is passed."""
        j = 1
        while True:
            try:
                e = self.element(j)
            except TruncationError:
                return False
            if e == value:
                return True
            if e > value:
                return False
            j += 1

    def to_json_obj(self, k: int | None = None) -> dict:
        if k is None:
            k = self._limit if self._limit is not None else len(self._cache)
        return {"rule": self.rule, "prefix": list(self.prefix(k)) if k else []}

    def __repr__(self) -> str:
        return f"IndexSet({self.rule})"


def select(m: IndexSet, j_set) -> IntSet:
    return m.select(j_set)


def is_spread_of(a: IndexSet, b: IndexSet, k: int) -> bool:
    """True iff a_i >= b_i for all i <= K (A is a spread of B)."""
    if k < 1:
        raise InvalidInputError("K must be positive")
    pa = a.prefix(k)
    pb = b.prefix(k)
    return all(x >= y for x, y in zip(pa, pb))


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

    Enumeration by smallest index j1: N(J) Schreier forces |J| <= n_{j1}, and
    enlarging J cannot decrease tau1(M(J)), so only maximal selections are
    searched.  A branch is pruned when even tau1 of M({j1..K}) cannot beat the
    incumbent.  The witness is the lexicographically smallest maximal
    selection attaining the value, independent of any parallel schedule.
    """
    if k < 1:
        raise InvalidInputError("K must be positive")
    mp = m.prefix(k)
    np_ = n.prefix(k)
    best_value = 0
    best_witness: tuple[int, ...] = ()
    for j1 in range(1, k + 1):
        tail = mp[j1 - 1 :]
        if _tau1_count_sorted(tail) <= best_value:
            continue
        cap = min(np_[j1 - 1], k - j1 + 1)
        for comb in combinations(range(j1 + 1, k + 1), cap - 1):
            j_sel = (j1,) + comb
            chosen = tuple(mp[j - 1] for j in j_sel)
            t = _tau1_count_sorted(chosen)
            if t > best_value:
                best_value = t
                best_witness = j_sel
    return TruncatedGLIndex(best_value, IntSet.from_iterable(best_witness), k)


def theta_fiber_stats(theta: dict[int, int], schreier_window: Iterable) -> tuple[int, int]:
    """(max fiber size, max tau1 of a fiber over the supplied Schreier sets)."""
    fibers: dict[int, list[int]] = {}
    for src, dst in theta.items():
        fibers.setdefault(dst, []).append(src)
    max_fiber = max((len(v) for v in fibers.values()), default=0)
    max_tau = 0
    for f in schreier_window:
        fs = as_positive_intset(f)
        pre = [src for src, dst in theta.items() if dst in fs]
        if pre:
            count, _ = tau1(IntSet.from_iterable(pre))
            max_tau = max(max_tau, count)
    return max_fiber, max_tau


def domination_constant(m: IndexSet, n: IndexSet, k: int, p, space: str) -> float:
    """C with ||sum a_j e_{n_j}|| <= C ||sum a_j e_{m_j}|| for coefficients on 1..K.

    C is the truncated index for the chain norm and its p-th root for the
    Schreier norm; the domination proof only inspects selections inside the
    coefficient support, so the truncated value suffices for such vectors.
    """
    validate_exponent(p, space)
    return _constant(gl_index_truncated(m, n, k).value, p, space)[0]


def _constant(idx: int, p, space: str) -> tuple[float, int]:
    """(C, C^p) for the truncated index idx; C^p is exact for integral p."""
    if space == SPACE_BAERNSTEIN:
        return float(idx), idx**p
    return float(idx) ** (1.0 / float(p)), idx


@dataclass(frozen=True)
class DominationCheck:
    lhs: float
    rhs: float
    holds: bool


def check_domination(
    m: IndexSet, n: IndexSet, k: int, p, space: str, coeffs: Sequence
) -> DominationCheck:
    """Evaluate both norms and compare against the truncated-index constant."""
    validate_exponent(p, space)
    if len(coeffs) > k:
        raise TruncationError(f"{len(coeffs)} coefficients exceed K={k}")
    const, const_pow = _constant(gl_index_truncated(m, n, k).value, p, space)
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
        holds = rn.value <= const * rm.value * (1.0 + 1e-9)
    return DominationCheck(lhs=rn.value, rhs=const * rm.value, holds=bool(holds))


def parse_index_rule(text: str) -> IndexSet:
    """Parse CLI-style rules: all|even|odd|arith:a:d|double:R|doubleodd:R|union:R|R
    or an explicit JSON array of integers."""
    t = text.strip().lower()
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
        if not isinstance(data, list) or not all(isinstance(v, int) for v in data):
            raise InvalidInputError("explicit index set must be a JSON integer array")
        return IndexSet.explicit(data)
    raise InvalidInputError(f"unknown index set rule {text!r}")
