"""Generators for the explicit objects the verification suites exercise:
flat vectors on maximal chains, the interval partition with its L sets and
divergence witnesses, the extremal family for the three-norm inequality,
dominated subsequences, dyadic doubling blocks, and almost disjoint
families.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from .errors import (
    CannotSelectError,
    InvalidInputError,
    TruncationError,
    VerificationError,
)
from .glindex import IndexSet
from .intset import EMPTY, IntSet
from .norms import FLOAT_RTOL, SPACE_BAERNSTEIN, norm, validate_exponent
from .schreier import SchreierChain, is_maximal_schreier, is_schreier, tau1
from .vectors import BlockSequence, CoeffVector, sup_norm


# -- flat vectors -------------------------------------------------------------


def flat_vector(chain: SchreierChain, p, space: str) -> CoeffVector:
    """Block-constant vector over a chain of maximal Schreier sets.

    Entries are |F_j|^(-1/p) on block F_j for the Schreier norm (so each
    block contributes mu_p = 1) and |F_j|^(-1) for the chain norm (each
    block sums to 1).  Chain-norm entries are exact rationals; Schreier-norm
    entries are floats unless p = 1.
    """
    validate_exponent(p, space)
    if not isinstance(chain, SchreierChain):
        chain = SchreierChain(chain)
    for block in chain:
        if not is_maximal_schreier(block):
            raise InvalidInputError(f"{block!r} is not a maximal Schreier set")
    runs = []
    for block in chain:
        size = block.size
        if space == SPACE_BAERNSTEIN or p == 1:
            value = Fraction(1, size)
        else:
            value = float(size) ** (-1.0 / float(p))
        for lo, hi in block.intervals:
            runs.append((lo, hi, value))
    return CoeffVector(runs)


# -- the interval partition ----------------------------------------------------


@dataclass(frozen=True)
class MPBPartition:
    """Successive intervals G_1 < F_2 < G_2 < F_3 < ... partitioning 1..max.

    G_n is the union of n successive maximal Schreier intervals (so its
    covering number is n) and |F_n| equals the total length of everything
    before it.  F_1 is empty.
    """

    f_sets: tuple[IntSet, ...]
    g_sets: tuple[IntSet, ...]
    n_max: int

    def f(self, n: int) -> IntSet:
        self._check(n)
        return self.f_sets[n - 1]

    def g(self, n: int) -> IntSet:
        self._check(n)
        return self.g_sets[n - 1]

    def j(self, n: int) -> IntSet:
        """J_n = F_n ∪ G_n."""
        self._check(n)
        return self.f_sets[n - 1].union(self.g_sets[n - 1])

    def _check(self, n: int) -> None:
        if not 1 <= n <= self.n_max:
            raise TruncationError(f"partition materialized through {self.n_max}, got {n}")

    def to_json_obj(self) -> dict:
        return {
            "n_max": self.n_max,
            "F": [list(map(list, s.intervals)) for s in self.f_sets],
            "G": [list(map(list, s.intervals)) for s in self.g_sets],
        }


def mpb_partition(n_max: int) -> MPBPartition:
    """Materialize the partition through index n_max.

    Deterministic packing: each G_n starts right after F_n and stacks n
    maximal intervals [s,2s), [2s,4s), ..., so G_n is the single interval
    [s, s*2^n - 1].
    """
    if n_max < 1:
        raise InvalidInputError("n_max must be positive")
    f_sets: list[IntSet] = []
    g_sets: list[IntSet] = []
    pos = 1
    consumed = 0
    for n in range(1, n_max + 1):
        f_size = consumed if n >= 2 else 0
        if f_size:
            f_sets.append(IntSet.interval(pos, pos + f_size - 1))
            pos += f_size
        else:
            f_sets.append(EMPTY)
        g = IntSet.interval(pos, pos * (2**n) - 1)
        g_sets.append(g)
        consumed += f_size + g.size
        pos = pos * (2**n)
    return MPBPartition(tuple(f_sets), tuple(g_sets), n_max)


def l_set(part: MPBPartition, n_idx: IndexSet, through: int) -> IndexSet:
    """L_N = union of J_n over n in N with n <= through, as an index set."""
    if through < 0:
        raise InvalidInputError("through must be non-negative")
    if through > part.n_max:
        raise TruncationError(
            f"partition materialized through {part.n_max}, requested {through}"
        )
    members = takewhile(lambda n: n <= through, n_idx.elements())
    ivs = [iv for n in members for half in (part.f(n), part.g(n)) for iv in half.intervals]
    return IndexSet.from_intset(IntSet(ivs), rule=f"L({n_idx.rule})<={through}")


def divergence_witness(part: MPBPartition, m_idx: IndexSet, n_idx: IndexSet, m: int) -> IntSet:
    """Ordinal selection J with tau1(L_M(J)) = m while L_N(J) stays Schreier.

    J consists of the positions of G_m inside L_M; it requires m in M, m not
    in N, and m >= 2.  Both halves of the claim are re-verified before the
    witness is returned, never trusted from the construction.
    """
    if m < 2:
        raise InvalidInputError("divergence witness needs m >= 2")
    if m > part.n_max:
        raise TruncationError(f"partition materialized through {part.n_max}, need {m}")
    if not m_idx.contains(m):
        raise InvalidInputError(f"{m} is not a member of M ({m_idx.rule})")
    if n_idx.contains(m):
        raise InvalidInputError(f"{m} must lie in M\\N but belongs to N ({n_idx.rule})")

    return _certified_witness(
        part, m_idx, l_set(part, m_idx, part.n_max), l_set(part, n_idx, part.n_max), m
    )


def _certified_witness(
    part: MPBPartition, m_idx: IndexSet, l_m: IndexSet, l_n: IndexSet, m: int
) -> IntSet:
    """divergence_witness after its membership checks, given L_M and L_N
    built through part.n_max."""
    # ordinal offset of J_m inside L_M
    offset = sum(
        part.f(n).size + part.g(n).size for n in takewhile(lambda n: n < m, m_idx.elements())
    )
    f_size = part.f(m).size
    g_size = part.g(m).size
    witness = IntSet.interval(offset + f_size + 1, offset + f_size + g_size)

    sel_m = l_m.select(witness)
    count, _ = tau1(sel_m)
    if count != m:
        raise VerificationError(f"witness covering number {count} != {m}")
    if witness.max > (l_n.materialized_limit or 0):
        raise TruncationError(
            "L_N is not materialized far enough for the witness selection; "
            "increase the partition depth"
        )
    sel_n = l_n.select(witness)
    if not is_schreier(sel_n):
        raise VerificationError("selected L_N positions are not a Schreier set")
    return witness


def divergence_certificates(
    part: MPBPartition, m_idx: IndexSet, n_idx: IndexSet, window: int
) -> list[tuple[int, IntSet]]:
    """Verified witnesses for every m in (M\\N) with 2 <= m <= window.

    Certifies that the truncated index of (L_M, L_N) is at least the largest
    such m; with M\\N infinite the certified bound grows with the window.
    M and N are each read once up to the window, and L_M and L_N are built
    once for all the witnesses.
    """
    if window > part.n_max:
        raise TruncationError(
            f"partition materialized through {part.n_max}, window {window}"
        )
    in_m, in_n = (set(takewhile(lambda v: v <= window, idx.elements()))
                  for idx in (m_idx, n_idx))
    ms = [m for m in range(2, window + 1) if m in in_m and m not in in_n]
    if not ms:
        return []
    l_m, l_n = l_set(part, m_idx, part.n_max), l_set(part, n_idx, part.n_max)
    return [(m, _certified_witness(part, m_idx, l_m, l_n, m)) for m in ms]


# -- extremal family for the three-norm inequality -----------------------------


def jameson_extremal(k: int, truncation: int) -> CoeffVector:
    """Lower-bound witness for the l_p vs sup/S_1 inequality, truncated.

    Entries: 1/2^k on [1, 2^(k+1)), then 1/2^n on [2^n, 2^(n+1)) for
    k < n <= truncation.  Sup norm is 2^-k and the S_1 norm is exactly 1
    (witnessed by an interval [j, 2j) inside the materialized range).
    """
    if k < 1:
        raise InvalidInputError("k must be positive")
    if truncation <= k:
        raise InvalidInputError(f"truncation {truncation} must exceed k={k}")
    runs = [(1, 2 ** (k + 1) - 1, Fraction(1, 2**k))]
    for n in range(k + 1, truncation + 1):
        runs.append((2**n, 2 ** (n + 1) - 1, Fraction(1, 2**n)))
    return CoeffVector(runs)


# -- dominated subsequences ----------------------------------------------------


@dataclass(frozen=True)
class SelectionResult:
    indices: tuple[int, ...]
    shortfall: bool


def _check_normalized(blocks: BlockSequence, p, space: str) -> None:
    for i, u in enumerate(blocks, start=1):
        r = norm(u, p, space)
        ok = r.value_pow == 1 if r.mode == "exact" else abs(r.value - 1.0) <= FLOAT_RTOL
        if not ok:
            raise InvalidInputError(f"block {i} is not normalized: norm {r.value!r}")


def dominated_subsequence(
    blocks: BlockSequence, p, space: str, eps
) -> SelectionResult:
    """Select indices so the subsequence is (1+eps)^(1/p)-dominated by the
    unit vector basis of c_0 (Schreier norm) or l_p (chain norm).

    Schreier branch: after j_k, take the next j with
    sup|u_j|^p <= eps / max(supp(u_{j_k})).

    Chain branch: requires the sup norms to vanish along the list (strictly
    decreasing suffices on a finite input); with
    delta_k = min(1/2, eps / (2^k * p * 2^(p-1)))   [so (s+t)^p <= s^p + eps/2^k
    for s in [0,1], t in [0,delta_k]], take the next j with
    sup|u_j| <= delta_k / max(supp(u_{j_k})).

    If no admissible next index exists while unselected blocks remain, the
    maximal selection so far is returned with shortfall=True.
    """
    validate_exponent(p, space)
    if not eps > 0:
        raise InvalidInputError("eps must be positive")
    _check_normalized(blocks, p, space)
    n = len(blocks)
    sups = [sup_norm(u) for u in blocks]
    exact = (
        isinstance(eps, numbers.Rational)
        and isinstance(p, int)
        and all(isinstance(s, numbers.Rational) for s in sups)
    )
    if exact:
        eps, half = Fraction(eps), Fraction(1, 2)
    else:
        eps, p, half = float(eps), float(p), 0.5
        sups = [float(s) for s in sups]

    if space == SPACE_BAERNSTEIN:
        for a, b in zip(sups, sups[1:]):
            if not b < a:
                raise CannotSelectError(
                    "chain-norm selection needs strictly decreasing sup norms"
                )

    selected = [1]
    k = 1
    while True:
        cap = blocks[selected[-1] - 1].max_index
        if space == SPACE_BAERNSTEIN:
            bound = min(half, eps / (2**k * p * 2 ** (p - 1))) / cap
            admissible = lambda j: sups[j - 1] <= bound
        else:
            bound = eps / cap
            admissible = lambda j: sups[j - 1] ** p <= bound
        nxt = next(
            (j for j in range(selected[-1] + 1, n + 1) if admissible(j)), None
        )
        if nxt is None:
            return SelectionResult(tuple(selected), shortfall=selected[-1] < n)
        selected.append(nxt)
        k += 1


# -- dyadic doubling blocks ----------------------------------------------------


def doubling_blocks(blocks: BlockSequence, space: str, p) -> BlockSequence:
    """Renormalized dyadic group sums u_n = v_n / ||v_n|| with
    v_n = sum of blocks 2^(n-1) .. 2^n - 1, for as many full groups as the
    input affords.

    With inf sup-norm delta > 0 the group sums grow, ||v_n|| >=
    2^((n-1)/p) * delta (Schreier) or 2^(n-1) * delta (chain norm), so the
    outputs' sup norms <= 1/||v_n|| vanish.
    """
    validate_exponent(p, space)
    _check_normalized(blocks, p, space)
    total = len(blocks)
    groups = 0
    while 2 ** (groups + 1) - 1 <= total:
        groups += 1
    if groups == 0:
        raise InvalidInputError("need at least one full dyadic group of blocks")
    out = []
    for n in range(1, groups + 1):
        lo, hi = 2 ** (n - 1), 2**n - 1
        v = blocks[lo - 1]
        for j in range(lo + 1, hi + 1):
            v = v + blocks[j - 1]
        r = norm(v, p, space)
        if r.mode == "exact" and r.value_pow == 1:
            out.append(v)
        else:
            out.append(v.scaled(1.0 / r.value))
    return BlockSequence(out)


# -- almost disjoint families ---------------------------------------------------


@dataclass(frozen=True)
class AlmostDisjointFamily:
    """Branches of the node-coded infinite binary tree; any two distinct
    branch sets meet exactly in the nodes of their common prefix (root
    included), so pairwise intersections are finite and computable."""

    branches: dict[str, IndexSet]
    depth: int

    @property
    def codes(self) -> list[str]:
        return list(self.branches)

    def intersection(self, code_a: str, code_b: str) -> IntSet:
        a = set(self.branches[code_a].prefix(self.depth + 1))
        b = set(self.branches[code_b].prefix(self.depth + 1))
        return IntSet.from_iterable(a & b)

    def common_prefix_nodes(self, code_a: str, code_b: str) -> int:
        """Shared initial tree nodes, the root counting as one."""
        n = 1
        for x, y in zip(code_a, code_b):
            if x != y:
                break
            n += 1
        return n


def _branch_labels(code: str) -> list[int]:
    # node after bits b1..bl has heap label int('1' + b1..bl, 2)
    return [int("1" + code[:l], 2) for l in range(len(code) + 1)]


def almost_disjoint_family(count: int, depth: int) -> AlmostDisjointFamily:
    """`count` branches materialized to `depth`, codewords in van der Corput
    (bit-reversal) order so shared prefixes stay as short as possible."""
    if count < 1 or depth < 1:
        raise InvalidInputError("count and depth must be positive")
    if count > 2**depth:
        raise InvalidInputError(f"at most {2**depth} branches exist at depth {depth}")
    branches: dict[str, IndexSet] = {}
    for i in range(count):
        code = format(i, f"0{depth}b")[::-1]
        branches[code] = IndexSet.explicit(_branch_labels(code))
    return AlmostDisjointFamily(branches, depth)
