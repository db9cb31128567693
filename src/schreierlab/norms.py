"""Exact evaluation of mu_p, beta_p and the two sequence-space norms.

Norm values are suprema of mu_p over Schreier sets (schreier_norm) or of
beta_p over Schreier chains (baernstein_norm); both suprema are attained
for finitely supported vectors and the engines return an attaining witness
alongside the value.

Arithmetic modes: with rational entries and an integral exponent the p-th
powers of both norms are rational, so all comparisons run exactly on the
powers ("exact" mode); the engines then run on |x|*L as ints, L the lcm of
the denominators (see _on_ints), while the oracles compute in x's own
scalars and the seminorms (so NormResult.check) sum ints over a common
denominator they take from x's own entries (_scaled_abs), and so check the
engines independently.  Otherwise the powers are floats ("float" mode),
compared within 1e-9 relative (floats_close); the Schreier scan still sums
exactly.  Every power is b ** e with e = _exponent(p, mode).  mu_p, beta_p
and sigma_operator sum over sets in one walk over the runs of x
(_block_sums).

schreier_norm has one engine at every support size, an exact scan over the
runs of x (_run_scan).  baernstein_norm runs a dynamic program over the
sorted support up to DEFAULT_DP_LIMIT points, where a block with fixed
first/last element is filled greedily with the largest intermediate |x|
values (adding a non-negative term to a block sum never decreases beta_p
and cannot affect the remainder).  Its one pass keeps only the sum of those
values (a running sum while the block takes every point between its ends,
a bounded min-heap after that) and the first optimal last element of each
block; following those gives the least optimal chain as the witness
(_bp_dp).  In exact mode the first points whose block may take every later
point take them all, in closed form.  Beyond the limit, for non-increasing
|x| of any size, a two-sided bound that must be tight (_monotone_bp).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heapreplace
from itertools import accumulate
from typing import Iterable, Iterator, Union

from .errors import (
    InvalidInputError,
    SizeLimitError,
    UnsupportedExponentError,
)
from .intset import EMPTY, IntSet
from .schreier import (
    SchreierChain,
    _blocks,
    _check_oracle_size,
    as_positive_intset,
    is_schreier,
    tau1,
)
from .vectors import CoeffVector, Scalar

Pow = Union[int, Fraction, float]

FLOAT_RTOL = 1e-9
DEFAULT_SCAN_LIMIT = 600  # no engine limit now; the benchmark sizes Schreier queries by it
DEFAULT_DP_LIMIT = 160

SPACE_SCHREIER = "sp"
SPACE_BAERNSTEIN = "bp"


# -- exponents and modes ------------------------------------------------------


def _integral_exponent(p) -> int | None:
    if isinstance(p, bool):
        return None
    if isinstance(p, int):
        return p
    if isinstance(p, Fraction) and p.denominator == 1:
        return int(p)
    return None


def validate_exponent(p, space: str) -> None:
    if isinstance(p, bool) or not isinstance(p, (int, float, Fraction)):
        raise UnsupportedExponentError(f"exponent must be a number, got {p!r}")
    if space == SPACE_BAERNSTEIN:
        if not p > 1:
            raise UnsupportedExponentError(f"the chain norm requires p > 1, got {p}")
    else:
        if not p >= 1:
            raise UnsupportedExponentError(f"exponent must satisfy p >= 1, got {p}")
    if p == math.inf:
        raise UnsupportedExponentError(f"exponent must be finite, got {p}")


def resolve_mode(x: CoeffVector, p, mode: str = "auto") -> str:
    if mode not in ("auto", "exact", "float"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    can_exact = x.exact and _integral_exponent(p) is not None
    if mode == "exact":
        if not can_exact:
            raise InvalidInputError(
                "exact mode needs rational entries and an integral exponent"
            )
        return "exact"
    if mode == "auto":
        return "exact" if can_exact else "float"
    return "float"


def _exponent(p, mode: str) -> int | float:
    """The exponent e of every power b ** e: the int p in exact mode, float(p)
    otherwise.  An int or Fraction b ** float(p) converts b to float first,
    so it is float(b) ** float(p) and overflows as that does."""
    if mode == "exact":
        pi = _integral_exponent(p)
        if pi is None:
            raise InvalidInputError("exact mode needs an integral exponent")
        return pi
    return float(p)


def _root(pow_value: Pow, p) -> float:
    v = float(pow_value)
    if v == 0.0:
        return 0.0
    if v == math.inf:  # a float sum overflowed without raising
        raise OverflowError("the p-th power of the norm overflows a float")
    return v ** (1.0 / float(p))


def _on_ints(engine, x: CoeffVector, p, mode: str):
    """engine(x, p, mode), run on int entries when the mode is exact.

    A vector with a Fraction entry is multiplied once by L, the lcm of its
    denominators; signs and runs stay those of x.  Scaling by a positive
    constant keeps every comparison and every tie, so the witness is
    unchanged and the power is divided by L^p.
    """
    if mode != "exact" or not any(isinstance(v, Fraction) for _, _, v in x.runs):
        return engine(x, p, mode)
    lcm = math.lcm(*(v.denominator for _, _, v in x.runs))
    y = CoeffVector((lo, hi, v.numerator * (lcm // v.denominator)) for lo, hi, v in x.runs)
    pow_value, witness = engine(y, p, mode)
    return Fraction(pow_value, lcm ** _exponent(p, mode)), witness


# -- seminorms ---------------------------------------------------------------


def _block_sums(x: CoeffVector, blocks: Iterable[IntSet], f) -> Iterator[Pow]:
    """Sum of f(x(n)) over n in each block in turn, accumulated run by run.

    One two-pointer pass per block over its intervals and the runs from the
    first one ending at or after its minimum to the last one starting at or
    before its maximum.  The blocks are successive, so that first run is
    bisected for from the previous block's first run (a run may meet two
    blocks).
    """
    runs, r = x.runs, 0
    for block in blocks:
        ivs, s = block.intervals, 0
        if ivs:
            end, j = ivs[-1][1], 0
            r = bisect_left(runs, ivs[0][0], r, key=lambda run: run[1])
            for i in range(r, len(runs)):
                lo, hi, v = runs[i]
                if lo > end:
                    break
                while ivs[j][1] < lo:  # stops: lo <= end
                    j += 1
                ov, k = 0, j
                while k < len(ivs) and ivs[k][0] <= hi:
                    ov += min(hi, ivs[k][1]) - max(lo, ivs[k][0]) + 1
                    k += 1
                if ov:
                    s = s + ov * f(v)
        yield s


def _scaled_abs(x: CoeffVector, mode: str):
    """(g, L) for the seminorms: in exact mode, when x has a Fraction entry,
    L is the lcm of the denominators of x's entries and g(v) the int |v| * L,
    so sums run on ints and the power is divided by L^p once; otherwise
    (abs, None).  Independent of _on_ints, so the seminorms check it."""
    if mode != "exact" or not any(isinstance(v, Fraction) for _, _, v in x.runs):
        return abs, None
    lcm = math.lcm(*(v.denominator for _, _, v in x.runs))
    return (lambda v: abs(v.numerator) * (lcm // v.denominator)), lcm


def mu_p_pow(x: CoeffVector, f, p, mode: str = "auto") -> Pow:
    """Sum over F of |x(n)|^p.  F must be a Schreier set; empty F gives 0.

    In exact mode the result is an int when every entry of x is an int and a
    Fraction otherwise, whichever runs F meets (as for NormResult.value_pow).
    """
    fs = as_positive_intset(f)
    if not is_schreier(fs):
        raise InvalidInputError(f"{fs!r} is not a Schreier set")
    validate_exponent(p, SPACE_SCHREIER)
    m = resolve_mode(x, p, mode)
    e, (g, lcm) = _exponent(p, m), _scaled_abs(x, m)
    total = next(_block_sums(x, [fs], lambda v: g(v) ** e))
    return total if lcm is None else Fraction(total, lcm**e)


def mu_p(x: CoeffVector, f, p, mode: str = "auto") -> float:
    return _root(mu_p_pow(x, f, p, mode), p)


def _chain_blocks(chain) -> tuple[IntSet, ...]:
    if isinstance(chain, SchreierChain):
        return chain.sets
    return SchreierChain(chain).sets


def beta_p_pow(x: CoeffVector, chain, p, mode: str = "auto") -> Pow:
    """Sum over the chain's blocks F of (sum_{n in F} |x(n)|)^p; needs p > 1.

    The result type follows mu_p_pow's rule.
    """
    validate_exponent(p, SPACE_BAERNSTEIN)
    blocks = _chain_blocks(chain)
    m = resolve_mode(x, p, mode)
    e, (g, lcm) = _exponent(p, m), _scaled_abs(x, m)
    total: Pow = 0
    for s in _block_sums(x, blocks, g):
        total = total + s**e
    return total if lcm is None else Fraction(total, lcm**e)


def beta_p(x: CoeffVector, chain, p, mode: str = "auto") -> float:
    return _root(beta_p_pow(x, chain, p, mode), p)


def lp_norm_pow(x: CoeffVector, p, mode: str = "auto") -> Pow:
    validate_exponent(p, SPACE_SCHREIER)
    e = _exponent(p, resolve_mode(x, p, mode))
    total: Pow = 0
    for lo, hi, v in x.runs:
        total = total + (hi - lo + 1) * abs(v) ** e
    return total


def lp_norm(x: CoeffVector, p, mode: str = "auto") -> float:
    return _root(lp_norm_pow(x, p, mode), p)


# -- results -----------------------------------------------------------------


def floats_close(a: float, b: float) -> bool:
    """Within FLOAT_RTOL relative; absolute only below the smallest normal float."""
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=sys.float_info.min)


@dataclass(frozen=True)
class NormResult:
    """Norm value plus an attaining witness.

    `value_pow` is the exact p-th power of the value in exact mode, or the
    float power in float mode; re-evaluating the seminorm at the witness
    reproduces it (exactly, resp. within 1e-9 relative).  In exact mode it is
    an int when every entry of x is an int and a Fraction otherwise.
    """

    space: str
    p: int | float | Fraction
    mode: str
    value: float
    value_pow: Pow
    witness: IntSet | SchreierChain | None
    zero_vector: bool = False

    def check(self, x: CoeffVector) -> bool:
        if self.witness is None:
            observed = 0
        elif self.space == SPACE_SCHREIER:
            observed = mu_p_pow(x, self.witness, self.p, self.mode)
        else:
            observed = beta_p_pow(x, self.witness, self.p, self.mode)
        if self.mode == "exact":
            return observed == self.value_pow
        return floats_close(float(observed), float(self.value_pow))

    def witness_json(self):
        if self.witness is None:
            return None
        if isinstance(self.witness, SchreierChain):
            return self.witness.to_lists()
        return self.witness.to_list()

    def to_json_obj(self) -> dict:
        obj = {
            "space": self.space,
            "p": str(self.p),
            "mode": self.mode,
            "value": self.value,
            "witness": self.witness_json(),
            "zero": self.zero_vector,
        }
        if self.mode == "exact":
            f = Fraction(self.value_pow)
            obj["value_pow"] = f"{f.numerator}/{f.denominator}"
        return obj


# -- schreier norm -----------------------------------------------------------


def _int_weights(x: CoeffVector, p, mode: str) -> tuple[list[int], int]:
    """|v|^p for each run of x as ints over one divisor: 1 in exact mode (int
    entries, see _on_ints); in float mode each float(|v|) ** p is rounded
    once and, being dyadic, scaled exactly over the largest denominator."""
    e = _exponent(p, mode)
    powers = [abs(v) ** e for _, _, v in x.runs]
    if mode == "exact":
        return powers, 1
    ratios = [w.as_integer_ratio() for w in powers]
    divisor = max(d for _, d in ratios)
    return [n * (divisor // d) for n, d in ratios], divisor


def _run_candidates(lo: int, hi: int, heavier: int, half: int) -> tuple[int, ...]:
    """The points of [lo, hi] among which _run_scan's lemma puts the run's
    first maximizer, ascending (C >= A) and possibly repeated; heavier and
    half are A and C there."""
    cands = (heavier + 1, (hi + half + 1) // 2, (hi + half + 2) // 2)
    return tuple(min(hi, max(lo, c)) for c in cands)


def _run_scan(runs, weights: list[int]) -> tuple[int, IntSet]:
    """Largest weight sum over the Schreier sets in the support, and the first
    set attaining it; O(R log R) for R runs of any lengths.

    The best set with minimum q adds the q - 1 heaviest points beyond q,
    ranked by (weight descending, position ascending).  The runs are walked
    right to left over a Fenwick tree (Fenwick 1994) of the later runs'
    point counts and weight sums, indexed by distinct weight, heaviest
    first.  For q in a run [lo, hi] of weight w let k = q - 1, A the number
    of later points heavier than w and g_i the i-th largest later weight (0
    past the last).  The A heavier points rank first, then the hi - q copies
    of w beyond q (they precede later points of equal weight), so

        f(q) = (j + 1) w + g_1 + ... + g_{k-j},  j = min(hi - q, max(0, k - A)).

    Claim: D(q) = f(q + 1) - f(q) never increases in q < hi (the formula
    does not depend on lo), so the run's first maximizer is
    min(hi, max(lo, q*)) for the first q* < hi with D(q*) <= 0, or hi if
    there is none.  Each step adds a pick and leaves one copy fewer beyond q:
    (a) while q <= A, j stays 0 and D = g_q > w, non-increasing;
    (b) while a copy of w stays unpicked, j grows by one and D = w;
    (c) the step into the last phase keeps j, with D = g_{A+1} (at
        2q = hi + A), or drops it; from then on every copy is picked,
        j = hi - q, and D = g_r + g_{r+1} - w with r = 2q - hi >= A + 1,
        two ranks further down the sorted g at each step.  Every such g is
        <= w.
    So D is above w, then w, then at most w and non-increasing.

    Lemma: the first maximizer is min(hi, max(lo, c)) for c one of A + 1,
    ceil((hi + C) / 2) and ceil((hi + C + 1) / 2), where C >= A is the
    number of later points heavier than floor(w / 2).  So it is the first
    point of _run_candidates that reaches the largest f there, and a run
    costs O(log R) whatever its length.  Proof: it suffices that q* is one
    of the three, or that q* = hi <= c for one of them, so below a point at
    or past hi stands for q* = hi.  If w = 0, then
    D > 0 in (a) and D = 0 after it (each g_i with i > A is 0), so c = A + 1.
    If w > 0, then D > 0 in (a) and (b).  The weights are ints, so
    g_r + g_{r+1} <= w when r >= C + 1 (both are at most floor(w / 2)) and
    g_r + g_{r+1} > w when r <= C - 1 (both exceed it).  If C > A, the step
    into (c) has D = g_{A+1} > floor(w / 2) >= 0, and in (c) the first
    r = 2q - hi with D <= 0 is C or C + 1: at the first q with 2q - hi >= C,
    which is ceil((hi + C) / 2), or at the next.  If C = A, the step into
    (c), when it exists, is q = (hi + A) / 2 = ceil((hi + C) / 2), and the
    next q, ceil((hi + C + 1) / 2), is the first of (c), with r = C + 2 and
    so D <= 0; without that step the first of (c) is ceil((hi + C) / 2),
    with r = C + 1.

    Zero weights (a float power that underflows, as (1e-300)^2 does) are
    ordinary.  Across runs the earlier run wins ties.  The witness is
    q..q+j plus k - j later points, taken greedily as intervals from the
    later runs in (weight descending, start ascending) order, which is the
    rank order.
    """
    order = sorted(set(weights), reverse=True)  # Fenwick index i is order[i - 1]
    index = {w: i for i, w in enumerate(order, 1)}
    negated = [-w for w in order]  # ascending, for bisect_left
    size = len(order)
    cnt, tot = [0] * (size + 1), [0] * (size + 1)
    later = later_sum = 0

    def count(i: int) -> int:  # the later points at Fenwick indices 1..i
        c = 0
        while i:
            c += cnt[i]
            i &= i - 1
        return c

    def top(t: int) -> int:  # the sum of the t largest later weights
        if t >= later:
            return later_sum
        i = c = s = 0
        bit = 1 << (size.bit_length() - 1)
        while bit:
            if i + bit <= size and c + cnt[i + bit] <= t:
                i += bit
                c, s = c + cnt[i], s + tot[i]
            bit >>= 1
        return s + (t - c) * order[i]

    def f(q: int, hi: int, w: int, heavier: int) -> tuple[int, int]:  # f(q) and j
        j = min(hi - q, max(0, q - 1 - heavier))
        return (j + 1) * w + top(q - 1 - j), j

    best, best_at = -1, None  # -1 is below every sum
    for r in range(len(runs) - 1, -1, -1):
        (lo, hi, _), w = runs[r], weights[r]
        i = index[w]
        if lo == hi:  # j = 0 whatever A is
            a, value, j = lo, w + (later_sum if lo > later else top(lo - 1)), 0
        else:
            heavier = count(i - 1)
            if hi - lo < 3:  # every point: no more evaluations, and no C to count
                cands = range(lo, hi + 1)
            else:
                half = count(bisect_left(negated, -(w // 2)))
                cands = _run_candidates(lo, hi, heavier, half)
            value = -1
            for q in cands:
                fq, jq = f(q, hi, w, heavier)
                if fq > value:
                    value, a, j = fq, q, jq
        if value >= best:
            best, best_at = value, (r, a, j)
        n = hi - lo + 1
        nw = n * w
        later, later_sum = later + n, later_sum + nw
        while i <= size:
            cnt[i] += n
            tot[i] += nw
            i += i & -i

    r, q, j = best_at
    picks, ivs = q - 1 - j, [(q, q + j)]
    later_runs = zip(runs[r + 1 :], weights[r + 1 :])
    for _, lo, hi in sorted((-w, lo, hi) for (lo, hi, _), w in later_runs):
        if picks <= 0:
            break
        ivs.append((lo, lo + min(picks, hi - lo + 1) - 1))
        picks -= hi - lo + 1
    return best, IntSet(ivs)


def _sp_pow(x: CoeffVector, p, mode: str) -> tuple[Pow, IntSet]:
    weights, divisor = _int_weights(x, p, mode)
    best, witness = _run_scan(x.runs, weights)
    return (best if mode == "exact" else best / divisor), witness  # rounded once


def schreier_norm(x: CoeffVector, p, mode: str = "auto") -> NormResult:
    """Supremum of mu_p over Schreier sets, with an attaining witness.

    One exact scan over the runs of x (_run_scan), at any support size.
    Among optimal sets the one with the smallest minimum wins; its other
    points are the heaviest beyond it, equal weights to smaller positions.
    """
    validate_exponent(p, SPACE_SCHREIER)
    m = resolve_mode(x, p, mode)
    if x.is_zero:
        return NormResult(SPACE_SCHREIER, p, m, 0.0, 0, EMPTY, zero_vector=True)
    pow_value, witness = _on_ints(_sp_pow, x, p, m)
    return NormResult(SPACE_SCHREIER, p, m, _root(pow_value, p), pow_value, witness)


# -- baernstein norm ---------------------------------------------------------


def _bp_dp(x: CoeffVector, p, mode: str) -> tuple[Pow, SchreierChain]:
    """The best chain value W[0] and the least optimal chain (chains compared
    block by block, blocks as sorted position tuples).

    W[i] is the best chain whose first block starts at support point i, and
    last[i] the first t whose best block from i to t reaches it; the witness
    walks i -> last[i] + 1.  That is the least optimal chain, because for a
    fixed i the best block B(t) is below B(t') whenever t < t'.  Both bodies
    are the top min(pos[i]-2, t-i-1) points by (value descending, position
    ascending), so B(t')'s body before t lies inside B(t)'s (B(t) takes every
    point there, or both take pos[i]-2).  So B(t) is a prefix of B(t'), or
    the least point where they differ is B(t)'s alone.

    The forward pass keeps only each body's sum.  Ends t <= i + 1 + budget
    take every point between, so their sums are one running sum and their
    values one list; only the later ends keep the budget largest values in
    a min-heap.  The witness walk ranks each block's body on its own.

    In exact mode the first points i with pos[i] >= n - i (a suffix, since
    pos[i] + i grows with i) are set in closed form: W[i] = (val[i] + ... + val[n-1]) ** e and last[i] =
    n - 1, from a running sum, and the loop runs only below it.  The block
    starting at pos[i] may hold all n - i points of i..n-1.  Any other chain
    in those points starting at pos[i] has block sums s_1..s_k with
    s_1 + ... + s_k <= S, S the sum of all of them, and with equality only
    if it takes every point.  The values are positive and e is an integer
    >= 2 (p > 1), so s -> s^e is strictly increasing and strictly
    superadditive: s_1^e + ... + s_k^e < S^e unless k = 1 and the chain
    takes every point.  So the single block is the unique optimum, and
    hence also the least one.  Float mode keeps the full loop, because
    rounding can tie or reorder near-equal candidates.
    """
    e = _exponent(p, mode)
    pairs = x.pairs()
    pos = [q for q, _ in pairs]
    val = [abs(v) for _, v in pairs]
    n = len(pairs)

    W: list[Pow] = [0] * (n + 1)
    last = list(range(n))
    start, s = n, 0  # in exact mode the points from start on take the rest in one block
    if mode == "exact":
        while start and pos[start - 1] >= n - start + 1:
            start -= 1
            s += val[start]
            W[start], last[start] = s**e, n - 1
    for i in range(start - 1, -1, -1):
        vi, budget = val[i], pos[i] - 2  # points between the ends; none when pos[i] is 1
        best = vi**e + W[i + 1]  # the block {pos[i]}
        if budget >= 0:
            mid = min(n, i + 2 + budget)  # the ends before mid take every point between
            sums = list(accumulate(val[i + 1 : mid - 1], initial=0))
            ends = zip(sums, val[i + 1 : mid], W[i + 2 : mid + 1])  # t = i+1..mid-1
            cands = [(vi + s + v) ** e + w for s, v, w in ends]
            top_cand = max(cands, default=best)
            if top_cand > best:
                best, last[i] = top_cand, i + 1 + cands.index(top_cand)
            if mid < n:  # the later ends keep the budget largest values in a min-heap
                top, topsum = val[i + 1 : mid - 1], sums[-1]  # the budget values between
                heapify(top)
                for t in range(mid, n):
                    if top and val[t - 1] > top[0]:
                        topsum = topsum + val[t - 1] - heapreplace(top, val[t - 1])
                    cand = (vi + topsum + val[t]) ** e + W[t + 1]
                    if cand > best:
                        best, last[i] = cand, t
        W[i] = best

    blocks, i = [], 0
    while i < n:
        t = last[i]
        body = sorted(range(i + 1, t), key=lambda j: (-val[j], pos[j]))[: pos[i] - 2]
        blocks.append(IntSet.from_iterable(pos[j] for j in (i, *body, t)))
        i = t + 1
    return W[0], SchreierChain(blocks)


def _monotone_bp(x: CoeffVector, p, mode: str) -> tuple[Pow, SchreierChain]:
    """Certified evaluation for non-increasing |x| at any scale.

    Upper bound: every admissible block sum b_i is at most W* = ||x||_{S_1}
    (_run_scan at p = 1), and chain blocks are disjoint, so sum(b_i) <= T
    (total mass); pushing to extremes gives
    ||x||^p <= floor(T/W*) * W*^p + (T - floor(T/W*) W*)^p.

    Lower bound: tau1's greedy covering chain of the support.  The value is
    returned only when the two bounds meet (exactly in exact mode, within
    1e-9 relative in float mode); the greedy chain is then optimal and serves
    as the witness.
    """
    e = _exponent(p, mode)
    weights, divisor = _int_weights(x, 1, mode)
    wstar, _ = _run_scan(x.runs, weights)
    total = sum((hi - lo + 1) * w for (lo, hi, _), w in zip(x.runs, weights))
    k_full, rem = divmod(total, wstar)
    upper = k_full * Fraction(wstar, divisor) ** e + Fraction(rem, divisor) ** e

    chain = SchreierChain(tau1(x.support())[1].chain)
    lower = beta_p_pow(x, chain, p, mode)
    if mode == "exact":
        tight = upper == lower
    else:
        tight = float(upper) - float(lower) <= FLOAT_RTOL * float(upper)
    if not tight:
        raise SizeLimitError(
            f"support size {x.support_size} exceeds the chain DP limit {DEFAULT_DP_LIMIT} "
            "and the two-sided bound for non-increasing entries is not tight "
            f"(lower {float(lower):.12g}, upper {float(upper):.12g})"
        )
    return lower, chain


def baernstein_norm(x: CoeffVector, p, mode: str = "auto") -> NormResult:
    """Supremum of beta_p over Schreier chains, with an attaining witness: the
    least optimal chain from the DP (_bp_dp), tau1's chain from the sandwich."""
    validate_exponent(p, SPACE_BAERNSTEIN)
    m = resolve_mode(x, p, mode)
    if x.is_zero:
        return NormResult(SPACE_BAERNSTEIN, p, m, 0.0, 0, None, zero_vector=True)
    if x.support_size <= DEFAULT_DP_LIMIT:
        pow_value, witness = _on_ints(_bp_dp, x, p, m)
    elif x.is_nonincreasing_abs():
        pow_value, witness = _on_ints(_monotone_bp, x, p, m)
    else:
        raise SizeLimitError(
            f"support size {x.support_size} exceeds the chain DP limit {DEFAULT_DP_LIMIT} "
            "and the entries are not non-increasing"
        )
    return NormResult(SPACE_BAERNSTEIN, p, m, _root(pow_value, p), pow_value, witness)


def norm(x: CoeffVector, p, space: str, mode: str = "auto") -> NormResult:
    """The Schreier norm (space "sp") or the chain norm (space "bp") of x.

    The engines are looked up by module-global name at each call, so a
    wrapper set on the module attribute (as bench/spans.py does) sees it.
    """
    if space == SPACE_SCHREIER:
        return schreier_norm(x, p, mode)
    if space == SPACE_BAERNSTEIN:
        return baernstein_norm(x, p, mode)
    raise InvalidInputError(f"unknown space {space!r}")


# -- exhaustive oracles ------------------------------------------------------


def _bp_oracle_pow(pairs: list[tuple[int, Scalar]], e: int | float) -> Pow:
    """Exhaustive max of sum(block-sum^p) over every chain in the support.

    best[i] is the best chain inside support points i..n-1: it skips point i,
    or it opens with any admissible block at i (none pruned, unlike the top-k
    rule _bp_dp relies on) and goes on with the best chain past that block.
    """
    elems = [q for q, _ in pairs]
    n = len(pairs)
    best: list[Pow] = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        top = best[i + 1]
        for b in _blocks(elems, i):
            cand = sum(pairs[j][1] for j in b) ** e + best[b[-1] + 1]
            if cand > top:
                top = cand
        best[i] = top
    return best[0]


def oracle_norm_pow(x: CoeffVector, p, space: str, mode: str = "auto") -> Pow:
    """Exhaustive reference for the p-th power of either norm."""
    if space not in (SPACE_SCHREIER, SPACE_BAERNSTEIN):
        raise InvalidInputError(f"unknown space {space!r}")
    validate_exponent(p, space)
    _check_oracle_size(x.support(), "oracle_norm")
    e = _exponent(p, resolve_mode(x, p, mode))
    pairs = x.abs().pairs()
    if space == SPACE_BAERNSTEIN:
        return _bp_oracle_pow(pairs, e)
    elems = [q for q, _ in pairs]
    pw = [v**e for _, v in pairs]
    return max(
        (sum(pw[j] for j in b) for i in range(len(elems)) for b in _blocks(elems, i)),
        default=0,
    )


def oracle_norm(x: CoeffVector, p, space: str, mode: str = "auto") -> float:
    return _root(oracle_norm_pow(x, p, space, mode), p)


# -- block summing operator ---------------------------------------------------


def sigma_operator(x: CoeffVector, sets: Iterable) -> CoeffVector:
    """n-th output entry = signed sum of x over the n-th set of the chain.

    The sets must be non-empty, admissible and successive.  Contracts into
    l_p: lp_norm(output, p) <= baernstein_norm(x, p) for every p > 1.
    """
    sums = enumerate(_block_sums(x, _chain_blocks(sets), lambda v: v), start=1)
    return CoeffVector.from_entries([(idx, s) for idx, s in sums if s != 0])
