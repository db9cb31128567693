"""Exact evaluation of mu_p, beta_p and the two sequence-space norms.

Norm values are suprema of mu_p over Schreier sets (schreier_norm) or of
beta_p over Schreier chains (baernstein_norm); both suprema are attained
for finitely supported vectors and the engines return an attaining witness
alongside the value.

Arithmetic modes: with rational entries and an integral exponent the p-th
powers of both norms are rational, so all comparisons run exactly on the
powers ("exact" mode); the engines then run on |x|*L as ints, L the lcm of
the denominators (see _on_ints), while the seminorms, the oracles and
NormResult.check compute in x's own scalars and so check the engines
independently.  Otherwise everything is evaluated in floats with a
documented comparison tolerance of 1e-9 ("float" mode).

Two evaluation strategies per norm:

* generic, for supports up to a size cutoff: a candidate-minimum scan for
  schreier_norm, and for baernstein_norm a dynamic program over the sorted
  support where a block with fixed first/last element is filled greedily
  with the largest intermediate |x| values (adding a non-negative term to
  a block sum never decreases beta_p and cannot affect the remainder);

* large-scale, for coordinatewise non-increasing vectors of any size
  (run-length representation): see _monotone_sp / _monotone_bp below.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Union

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
DEFAULT_SCAN_LIMIT = 600
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


def _powfn(p, mode: str) -> Callable[[Scalar], Pow]:
    if mode == "exact":
        pi = _integral_exponent(p)
        if pi is None:
            raise InvalidInputError("exact mode needs an integral exponent")
        return lambda b: b**pi
    pf = float(p)
    return lambda b: float(b) ** pf


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
    return Fraction(pow_value, lcm ** _integral_exponent(p)), witness


# -- seminorms ---------------------------------------------------------------


def _overlaps(x: CoeffVector, s: IntSet) -> Iterator[tuple[int, Scalar]]:
    """(|run & s|, value) for each run of x that meets s, in run order.

    One two-pointer pass over the runs and the intervals of s; an interval
    that spans several runs is visited once per run it meets.
    """
    ivs = s.intervals
    j = 0
    for lo, hi, v in x.runs:
        while j < len(ivs) and ivs[j][1] < lo:
            j += 1
        ov = 0
        k = j
        while k < len(ivs) and ivs[k][0] <= hi:
            ov += min(hi, ivs[k][1]) - max(lo, ivs[k][0]) + 1
            k += 1
        if ov:
            yield ov, v


def mu_p_pow(x: CoeffVector, f, p, mode: str = "auto") -> Pow:
    """Sum over F of |x(n)|^p.  F must be a Schreier set; empty F gives 0."""
    fs = as_positive_intset(f)
    if not is_schreier(fs):
        raise InvalidInputError(f"{fs!r} is not a Schreier set")
    validate_exponent(p, SPACE_SCHREIER)
    powfn = _powfn(p, resolve_mode(x, p, mode))
    return _block_sum(x, fs, lambda v: powfn(abs(v)))


def mu_p(x: CoeffVector, f, p, mode: str = "auto") -> float:
    return _root(mu_p_pow(x, f, p, mode), p)


def _chain_blocks(chain) -> tuple[IntSet, ...]:
    if isinstance(chain, SchreierChain):
        return chain.sets
    return SchreierChain(chain).sets


def _block_sum(x: CoeffVector, block: IntSet, f=abs) -> Pow:
    """Sum of f(x(n)) over n in block, accumulated run by run."""
    s: Pow = 0
    for ov, v in _overlaps(x, block):
        s = s + ov * f(v)
    return s


def beta_p_pow(x: CoeffVector, chain, p, mode: str = "auto") -> Pow:
    """Sum over the chain's blocks F of (sum_{n in F} |x(n)|)^p; needs p > 1."""
    validate_exponent(p, SPACE_BAERNSTEIN)
    blocks = _chain_blocks(chain)
    powfn = _powfn(p, resolve_mode(x, p, mode))
    total: Pow = 0
    for block in blocks:
        total = total + powfn(_block_sum(x, block))
    return total


def beta_p(x: CoeffVector, chain, p, mode: str = "auto") -> float:
    return _root(beta_p_pow(x, chain, p, mode), p)


def lp_norm_pow(x: CoeffVector, p, mode: str = "auto") -> Pow:
    validate_exponent(p, SPACE_SCHREIER)
    powfn = _powfn(p, resolve_mode(x, p, mode))
    total: Pow = 0
    for lo, hi, v in x.runs:
        total = total + (hi - lo + 1) * powfn(abs(v))
    return total


def lp_norm(x: CoeffVector, p, mode: str = "auto") -> float:
    return _root(lp_norm_pow(x, p, mode), p)


# -- results -----------------------------------------------------------------


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
        a, b = float(observed), float(self.value_pow)
        return abs(a - b) <= FLOAT_RTOL * max(1.0, abs(a), abs(b))

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


def _sp_scan(x: CoeffVector, p, mode: str) -> tuple[Pow, IntSet]:
    powfn = _powfn(p, mode)
    pos, pw = zip(*[(q, powfn(abs(v))) for q, v in x.pairs()])
    # Candidate i pairs its minimum with the first m-1 ranks beyond i, added in
    # rank order (largest power first, ties to the smaller position).
    ranked = sorted(range(len(pw)), key=lambda j: (-pw[j], j))
    best_pow, best_wit = -1, ()  # -1 is below every power
    for i, m in enumerate(pos):
        chosen = [j for j in ranked if j > i][: m - 1]
        total = pw[i]
        for j in chosen:
            total = total + pw[j]
        if total >= best_pow:
            wit = (m,) + tuple(pos[j] for j in sorted(chosen))
            if total > best_pow or wit < best_wit:
                best_pow, best_wit = total, wit
    return best_pow, IntSet.from_iterable(best_wit)


# Ordinal-space run records: (o_lo, o_hi, pos_lo, weight); positions inside a
# run are consecutive, so pos(o) = pos_lo + (o - o_lo).


def _ordinal_runs(x: CoeffVector, weightfn) -> list[tuple[int, int, int, Pow]]:
    recs = []
    o = 1
    for lo, hi, v in x.runs:
        n = hi - lo + 1
        w = weightfn(abs(v))
        recs.append((o, o + n - 1, lo, w))
        o += n
    return recs


def _ordinal_range_sum(recs, o1: int, o2: int) -> Pow:
    """Sum of weights over ordinals o1..o2 (inclusive)."""
    total: Pow = 0
    for a, b, _, w in recs:
        if b < o1:
            continue
        if a > o2:
            break
        lo = max(a, o1)
        hi = min(b, o2)
        total = total + (hi - lo + 1) * w
    return total


def _window_best(x: CoeffVector, weightfn) -> tuple[Pow, int, int]:
    """Maximize over start ordinals o the weight-sum of the admissible window
    {o-th support point} + the next pos(o)-1 support points.

    For non-increasing |x| the window realizes the best admissible set with a
    given minimum.  The window sum is piecewise affine in o (breakpoints only
    where o or the window's right edge crosses a run boundary), so scanning a
    breakpoint superset is exact.
    """
    recs = _ordinal_runs(x, weightfn)
    n = recs[-1][1]
    support = x.support()
    boundaries = set()
    for a, b, _, _ in recs:
        boundaries.update((a - 1, a, b, b + 1))
    boundaries.add(n)

    candidates: set[int] = set()
    for a, b, pos_lo, _ in recs:
        candidates.add(a)
        candidates.add(b)
        c = pos_lo - a  # pos(o) = o + c, window edge = 2o + c - 1
        for bd in boundaries:
            o0 = (bd + 1 - c) // 2
            for o in (o0 - 1, o0, o0 + 1, o0 + 2):
                if a <= o <= b:
                    candidates.add(o)

    best: Pow | None = None
    best_o = best_e = 0
    for o in sorted(candidates):
        e = min(o + support.element_at(o) - 1, n)
        s = _ordinal_range_sum(recs, o, e)
        if best is None or s > best:
            best, best_o, best_e = s, o, e
    return best, best_o, best_e


def _monotone_sp(x: CoeffVector, p, mode: str) -> tuple[Pow, IntSet]:
    best, o, e = _window_best(x, _powfn(p, mode))
    witness = x.support().select_ordinals(IntSet.interval(o, e))
    return best, witness


def schreier_norm(
    x: CoeffVector, p, mode: str = "auto", *, scan_limit: int | None = None
) -> NormResult:
    """Supremum of mu_p over Schreier sets, with an attaining witness.

    Scans every candidate minimum m in supp(x), pairing it with the largest
    min(m, remaining)-1 values of |x| beyond m.  Ties between optimal
    witnesses break to the lexicographically smallest element list.
    """
    validate_exponent(p, SPACE_SCHREIER)
    m = resolve_mode(x, p, mode)
    if x.is_zero:
        return NormResult(SPACE_SCHREIER, p, m, 0.0, 0, EMPTY, zero_vector=True)
    limit = DEFAULT_SCAN_LIMIT if scan_limit is None else scan_limit
    if x.support_size <= limit:
        pow_value, witness = _on_ints(_sp_scan, x, p, m)
    elif x.is_nonincreasing_abs():
        pow_value, witness = _on_ints(_monotone_sp, x, p, m)
    else:
        raise SizeLimitError(
            f"support size {x.support_size} exceeds the scan limit {limit} "
            "and the entries are not non-increasing"
        )
    return NormResult(SPACE_SCHREIER, p, m, _root(pow_value, p), pow_value, witness)


# -- baernstein norm ---------------------------------------------------------


def _bp_dp(x: CoeffVector, p, mode: str) -> tuple[Pow, SchreierChain]:
    powfn = _powfn(p, mode)
    pairs = x.pairs()
    pos = [q for q, _ in pairs]
    val = [abs(v) for _, v in pairs]
    n = len(pairs)

    def iter_blocks(i: int, with_positions: bool):
        """Blocks with first support point i: (last index t, block sum, positions).

        For fixed endpoints the best block adds the largest min(pos[i]-2, t-i-1)
        intermediate values; value ties prefer smaller positions.  The top-k sum
        is maintained incrementally; forward pass and witness reconstruction
        share this generator, so float-mode values reproduce bit for bit.
        """
        yield i, val[i], (pos[i],) if with_positions else None
        if pos[i] < 2:
            return
        budget = pos[i] - 2
        inter: list[tuple] = []  # (-value, position), sorted
        k = 0
        topsum: Pow = 0
        for t in range(i + 1, n):
            if t > i + 1:
                item = (-val[t - 1], pos[t - 1])
                idx = bisect_left(inter, item)
                inter.insert(idx, item)
                if idx < k:  # displaced the current k-th element
                    topsum = topsum + val[t - 1] - (-inter[k][0])
                if k < budget and len(inter) > k:
                    topsum = topsum + (-inter[k][0])
                    k += 1
            s = val[i] + topsum + val[t]
            if with_positions:
                body = tuple(sorted(inter[j][1] for j in range(k)))
                yield t, s, (pos[i],) + body + (pos[t],)
            else:
                yield t, s, None
        return

    W: list[Pow] = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        best = None
        for t, s, _ in iter_blocks(i, False):
            cand = powfn(s) + W[t + 1]
            if best is None or cand > best:
                best = cand
        W[i] = best

    memo: dict[int, tuple] = {}

    def chain_from(i: int) -> tuple:
        if i == n:
            return ()
        if i not in memo:
            target = W[i]
            best_chain = None
            for t, s, blockpos in iter_blocks(i, True):
                if powfn(s) + W[t + 1] == target:
                    cand = (blockpos,) + chain_from(t + 1)
                    if best_chain is None or cand < best_chain:
                        best_chain = cand
            memo[i] = best_chain
        return memo[i]

    blocks = chain_from(0)
    witness = SchreierChain(IntSet.from_iterable(b) for b in blocks)
    return W[0], witness


def _monotone_bp(x: CoeffVector, p, mode: str) -> tuple[Pow, SchreierChain]:
    """Certified evaluation for non-increasing |x| at any scale.

    Upper bound: every admissible block has sum at most the best window sum
    W* (the block's min(F) elements sit at or beyond min(F), and |x| is
    non-increasing), and chain blocks are disjoint, so the block sums b_i
    satisfy b_i <= W*, sum(b_i) <= T (total mass); pushing to extremes gives
    ||x||^p <= floor(T/W*) * W*^p + (T - floor(T/W*) W*)^p.

    Lower bound: tau1's greedy covering chain of the support.  The value is
    returned only when the two bounds meet (exactly in exact mode, within
    1e-9 relative in float mode); the greedy chain is then optimal and serves
    as the witness.
    """
    powfn = _powfn(p, mode)
    wstar, _, _ = _window_best(x, lambda a: a)
    total = x.total_abs()

    chain = SchreierChain(tau1(x.support())[1].chain)
    lower = beta_p_pow(x, chain, p, mode)

    if mode == "exact":
        k_full, rem = divmod(total, wstar)
        upper = k_full * powfn(wstar) + powfn(rem)
        tight = upper == lower
    else:
        k_full = int(math.floor(float(total) / float(wstar) + FLOAT_RTOL))
        rem = max(0.0, float(total) - k_full * float(wstar))
        upper = k_full * powfn(wstar) + powfn(rem)
        tight = float(upper) - float(lower) <= FLOAT_RTOL * float(upper)
    if not tight:
        raise SizeLimitError(
            "support too large for the exact chain DP and the two-sided "
            f"bound is not tight (lower {float(lower):.12g}, upper {float(upper):.12g})"
        )
    return lower, chain


def baernstein_norm(
    x: CoeffVector, p, mode: str = "auto", *, dp_limit: int | None = None
) -> NormResult:
    """Supremum of beta_p over Schreier chains, with an attaining witness."""
    validate_exponent(p, SPACE_BAERNSTEIN)
    m = resolve_mode(x, p, mode)
    if x.is_zero:
        return NormResult(SPACE_BAERNSTEIN, p, m, 0.0, 0, None, zero_vector=True)
    limit = DEFAULT_DP_LIMIT if dp_limit is None else dp_limit
    if x.support_size <= limit:
        pow_value, witness = _on_ints(_bp_dp, x, p, m)
    elif x.is_nonincreasing_abs():
        pow_value, witness = _on_ints(_monotone_bp, x, p, m)
    else:
        raise SizeLimitError(
            f"support size {x.support_size} exceeds the chain DP limit {limit} "
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


def _bp_oracle_pow(pairs: list[tuple[int, Scalar]], powfn) -> Pow:
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
            cand = powfn(sum(pairs[j][1] for j in b)) + best[b[-1] + 1]
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
    powfn = _powfn(p, resolve_mode(x, p, mode))
    pairs = x.abs().pairs()
    if space == SPACE_BAERNSTEIN:
        return _bp_oracle_pow(pairs, powfn)
    elems = [q for q, _ in pairs]
    pw = [powfn(v) for _, v in pairs]
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
    blocks = _chain_blocks(sets)
    entries = []
    for idx, block in enumerate(blocks, start=1):
        s = _block_sum(x, block, lambda v: v)
        if s != 0:
            entries.append((idx, s))
    return CoeffVector.from_entries(entries)
