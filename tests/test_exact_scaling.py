"""The norm engines on tie-heavy int, Fraction, float and mixed vectors.

The exact engines run on x*L as ints (L the lcm of the denominators) and the
Schreier engine scans runs over a Fenwick tree with exact sums in both
modes.  These tests hold them to a copy of the per-candidate-sort scan, of
the run scan that bisected inside each run, of the chain DP that rebuilt
its witness in a second pass and of the chain DP that kept every block end
on its heap, to the exhaustive oracle, to scaling
invariance on every engine path, and to float values pinned bit for bit.
The chain DP's closed-form exact suffix is also held to a brute force of
the lemma behind it.
"""

import random
from bisect import bisect_left
from heapq import heappush, heapreplace
from fractions import Fraction
from itertools import accumulate, combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import schreierlab as sl
from schreierlab import CoeffVector, IntSet, SchreierChain
from schreierlab.norms import (
    DEFAULT_DP_LIMIT,
    _bp_dp,
    _exponent,
    _int_weights,
    _run_candidates,
    _run_scan,
)

DENOMS = (1, 2, 3, 5, 7, 11, 13)
KINDS = ("int", "frac", "float", "mixed")


def _powfn(p, mode):
    """The reference power rule: b ** p in exact mode, float(b) ** float(p)
    otherwise."""
    if mode == "exact":
        return lambda b: b ** int(p)
    pf = float(p)
    return lambda b: float(b) ** pf


def reference_sp_scan(x, p, mode):
    """The Schreier scan that sorts the entries beyond each candidate.

    Sums are exact in both modes: a float power is summed as the rational it
    is, and the best sum is rounded once at the end.
    """
    powfn = _powfn(p, mode)
    pairs = [(q, Fraction(powfn(abs(v)))) for q, v in x.pairs()]
    best_pow = best_wit = None
    for i, (m, total) in enumerate(pairs):
        chosen = sorted(pairs[i + 1 :], key=lambda t: (-t[1], t[0]))[: m - 1]
        total += sum(w for _, w in chosen)
        wit = tuple(sorted([m] + [q for q, _ in chosen]))
        if best_pow is None or total > best_pow or (total == best_pow and wit < best_wit):
            best_pow, best_wit = total, wit
    return (best_pow if mode == "exact" else float(best_pow)), list(best_wit)


def reference_bp_dp(x, p, mode):
    """The chain DP that rebuilds its witness in a second pass.

    The forward pass computes W; the witness is then the least chain, over
    every t tied at the optimum, of the block ending at t followed by the
    least optimal chain after t, with whole chains compared as tuples.
    """
    powfn = _powfn(p, mode)
    pairs = x.pairs()
    pos = [q for q, _ in pairs]
    val = [abs(v) for _, v in pairs]
    n = len(pairs)

    def iter_blocks(i, with_positions):
        yield i, val[i], (pos[i],) if with_positions else None
        if pos[i] < 2:
            return
        budget = pos[i] - 2
        inter = []  # (-value, position), sorted
        k = 0
        topsum = 0
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

    W = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        best = None
        for t, s, _ in iter_blocks(i, False):
            cand = powfn(s) + W[t + 1]
            if best is None or cand > best:
                best = cand
        W[i] = best

    memo = {}

    def chain_from(i):
        if i == n:
            return ()
        if i not in memo:
            best_chain = None
            for t, s, blockpos in iter_blocks(i, True):
                if powfn(s) + W[t + 1] == W[i]:
                    cand = (blockpos,) + chain_from(t + 1)
                    if best_chain is None or cand < best_chain:
                        best_chain = cand
            memo[i] = best_chain
        return memo[i]

    return W[0], SchreierChain(IntSet.from_iterable(b) for b in chain_from(0))


def reference_heap_bp_dp(x, p, mode):
    """The chain DP's forward pass with every block end on the heap: a
    heappush per point up to the budget, then heapreplace, and powfn per
    candidate."""
    powfn = _powfn(p, mode)
    pairs = x.pairs()
    pos = [q for q, _ in pairs]
    val = [abs(v) for _, v in pairs]
    n = len(pairs)

    W = [0] * (n + 1)
    last = list(range(n))
    for i in range(n - 1, -1, -1):
        best = powfn(val[i]) + W[i + 1]  # the block {pos[i]}
        budget = pos[i] - 2  # points between the ends; none when pos[i] is 1
        top = []  # min-heap of the budget largest values of i+1..t-1
        topsum = 0  # their sum
        for t in range(i + 1, n) if budget >= 0 else ():
            cand = powfn(val[i] + topsum + val[t]) + W[t + 1]
            if cand > best:
                best, last[i] = cand, t
            if len(top) < budget:
                heappush(top, val[t])
                topsum = topsum + val[t]
            elif top and val[t] > top[0]:
                topsum = topsum + val[t] - heapreplace(top, val[t])
        W[i] = best

    blocks, i = [], 0
    while i < n:
        t = last[i]
        body = sorted(range(i + 1, t), key=lambda j: (-val[j], pos[j]))[: pos[i] - 2]
        blocks.append(IntSet.from_iterable(pos[j] for j in (i, *body, t)))
        i = t + 1
    return W[0], SchreierChain(blocks)


def reference_bisect_run_scan(runs, weights):
    """The run scan that bisects over each run's length for the first q where
    f stops rising: about 2 log2 L evaluations of f per run of length L."""
    order = sorted(set(weights), reverse=True)  # Fenwick index i is order[i - 1]
    index = {w: i for i, w in enumerate(order, 1)}
    size = len(order)
    cnt, tot = [0] * (size + 1), [0] * (size + 1)
    later = later_sum = 0

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
            heavier, k = 0, i - 1
            while k:
                heavier += cnt[k]
                k &= k - 1
            a, b = lo, hi  # the first q in [lo, hi) where f stops rising, else hi
            while a < b:  # by hand: bisect over a range fails past sys.maxsize points
                q = (a + b) // 2
                if f(q + 1, hi, w, heavier)[0] <= f(q, hi, w, heavier)[0]:
                    b = q
                else:
                    a = q + 1
            value, j = f(a, hi, w, heavier)
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


def scalars(kind):
    a = st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4))
    d = st.sampled_from(DENOMS)
    if kind == "int":
        return a
    if kind == "frac":
        return st.builds(Fraction, a, d)
    if kind == "float":
        return st.builds(lambda n, m: n / m, a, d)
    if kind == "sign":
        return st.sampled_from((1, -1))
    return st.one_of(a, st.builds(Fraction, a, d))


@st.composite
def vectors(draw, kind, max_support=60):
    """Few distinct values on a support of up to max_support, so ties are common."""
    entries = draw(
        st.lists(st.tuples(st.integers(1, 3), scalars(kind)), min_size=1, max_size=max_support)
    )
    q = 0
    out = []
    for gap, v in entries:
        q += gap
        out.append((q, v))
    return CoeffVector.from_entries(out)


@st.composite
def monotone_vectors(draw):
    """Non-increasing |x| in a few long runs of rationals."""
    mags = sorted(
        draw(st.lists(st.builds(Fraction, st.integers(1, 9), st.sampled_from(DENOMS)),
                      min_size=1, max_size=6)),
        reverse=True,
    )
    runs, lo = [], draw(st.integers(1, 20))
    for v in mags:
        length = draw(st.integers(1, 400))
        runs.append((lo, lo + length - 1, v * draw(st.sampled_from((1, -1)))))
        lo += length + draw(st.integers(0, 3))
    return CoeffVector(runs)


@st.composite
def run_vectors(draw, kind="frac", max_len=60):
    """Up to eight runs in any order of magnitude, of lengths up to max_len,
    with repeated magnitudes, so runs and ties both matter."""
    runs, lo = [], draw(st.integers(1, 40))
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.integers(1, max_len))
        runs.append((lo, lo + length - 1, draw(scalars(kind))))
        lo += length + draw(st.sampled_from((0, 0, 1, 5)))
    return CoeffVector(runs)


positive_rationals = st.builds(Fraction, st.integers(1, 12), st.sampled_from(DENOMS + (4, 9)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(KINDS), p=st.sampled_from((1, 2, 3, 1.5)))
def test_scan_matches_the_per_candidate_sort(data, kind, p):
    x = data.draw(vectors(kind))
    r = sl.schreier_norm(x, p)
    ref_pow, ref_wit = reference_sp_scan(x, p, r.mode)
    assert r.value_pow == ref_pow  # bit-equal in float mode
    assert r.witness.to_list() == ref_wit
    if r.mode == "exact":
        all_int = all(type(v) is int for _, _, v in x.runs)
        assert type(r.value_pow) is (int if all_int else Fraction)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), kind=st.sampled_from(("int", "frac", "mixed")), p=st.sampled_from((1, 2, 3)))
def test_run_scan_matches_the_per_candidate_sort_on_long_runs(data, kind, p):
    x = data.draw(run_vectors(kind, max_len=40))
    r = sl.schreier_norm(x, p)
    assert r.mode == "exact"
    assert (r.value_pow, r.witness.to_list()) == reference_sp_scan(x, p, "exact")


@settings(max_examples=120, deadline=None)
@given(data=st.data(), kind=st.sampled_from(KINDS), p=st.sampled_from((1, 2, 3, 1.5, 2.5)))
def test_run_scan_matches_the_oracle(data, kind, p):
    x = data.draw(st.one_of(vectors(kind, max_support=14), run_vectors(kind, max_len=4)))
    assume(x.support_size <= 14)
    r = sl.schreier_norm(x, p)
    want = sl.oracle_norm_pow(x, p, "sp")  # sums floats in its own order
    assert r.value_pow == want if r.mode == "exact" else sl.norms.floats_close(r.value_pow, want)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), kind=st.sampled_from(KINDS), p=st.sampled_from((1, 1.5, 2, 2.5)))
def test_float_scan_rounds_the_exact_sum_once(data, kind, p):
    x = data.draw(st.one_of(vectors(kind, max_support=10), run_vectors(kind, max_len=3)))
    assume(x.support_size <= 10)
    r = sl.schreier_norm(x, p, mode="float")
    power = {q: Fraction(float(abs(v)) ** float(p)) for q, v in x.pairs()}
    best = sum(power[q] for q in r.witness.iter_elements())
    assert r.value_pow == float(best)
    assert all(sum(power[q] for q in f.iter_elements()) <= best
               for f in sl.enumerate_schreier_subsets(x.support()))


def _assert_matches_two_pass_dp(x, p):
    """Bit-equal in exact mode.  In float mode the heap adds the same values
    in another order than the reference's sorted list, so the value may move
    in its last bits; the witness may not."""
    mode = sl.norms.resolve_mode(x, p)
    value, witness = _bp_dp(x, p, mode)
    ref_value, ref_witness = reference_bp_dp(x, p, mode)
    if mode == "exact":
        assert value == ref_value and type(value) is type(ref_value)
    else:
        assert sl.norms.floats_close(value, ref_value)
    assert witness == ref_witness


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(KINDS + ("sign",)),
       p=st.sampled_from((2, 3, 1.5, 2.5)))
def test_chain_dp_matches_the_two_pass_dp(data, kind, p):
    _assert_matches_two_pass_dp(data.draw(vectors(kind, max_support=DEFAULT_DP_LIMIT)), p)


def test_chain_dp_matches_the_two_pass_dp_near_the_limit():
    rng = random.Random(101)
    for kind in ("int", "frac", "float", "mixed", "sign") * 2:
        entries, q = [], 0
        for _ in range(rng.randint(DEFAULT_DP_LIMIT - 40, DEFAULT_DP_LIMIT)):
            q += rng.randint(1, 3)
            a, d = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice(DENOMS)
            v = {"int": a, "frac": Fraction(a, d), "float": a / d, "sign": a // abs(a),
                 "mixed": rng.choice((a, Fraction(a, d)))}[kind]
            entries.append((q, v))
        _assert_matches_two_pass_dp(CoeffVector.from_entries(entries), rng.choice((2, 3, 1.5)))


def test_chain_dp_matches_the_two_pass_dp_on_uniform_floats():
    """Distinct uniform floats near the limit, where the float sums move,
    on supports that start at 1 or 2 (budget -1 and 0 for the first point)."""
    rng = random.Random(20240817)
    for start in (1, 2, 1, 2, 3):
        entries, q = [], start
        for _ in range(rng.randint(DEFAULT_DP_LIMIT - 20, DEFAULT_DP_LIMIT)):
            entries.append((q, rng.uniform(-1, 1) or 0.5))
            q += rng.randint(1, 2)
        _assert_matches_two_pass_dp(CoeffVector.from_entries(entries), rng.choice((2, 3, 1.5)))


def _assert_matches_the_heap_dp(x, p, mode=None):
    mode = mode or sl.norms.resolve_mode(x, p)
    value, witness = _bp_dp(x, p, mode)
    ref_value, ref_witness = reference_heap_bp_dp(x, p, mode)
    assert value == ref_value and type(value) is type(ref_value)
    assert witness == ref_witness


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(KINDS + ("sign",)),
       p=st.sampled_from((2, 3, 1.5, 2.5)))
def test_chain_dp_matches_the_heap_dp_bit_for_bit(data, kind, p):
    _assert_matches_the_heap_dp(data.draw(vectors(kind, max_support=DEFAULT_DP_LIMIT)), p)


def test_chain_dp_matches_the_heap_dp_at_every_budget():
    """Supports that start at 1, 2 and 3 (budgets -1, 0 and 1 for the first
    point), budgets that fill partway through the remaining points and
    budgets at least as large as them, on int, Fraction, float and mixed
    entries, in both modes, floats bit for bit."""
    rng = random.Random(20240821)
    for start in (1, 2, 3, 5, 9, 40, 200):
        for kind in ("int", "frac", "float", "mixed", "uniform"):
            n = rng.choice((1, 2, 3, 12, 30, DEFAULT_DP_LIMIT))
            entries, q = [], start
            for _ in range(n):
                a, d = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice(DENOMS)
                v = {"int": a, "frac": Fraction(a, d), "float": a / d,
                     "mixed": rng.choice((a, Fraction(a, d), a / d)),
                     "uniform": rng.uniform(-1, 1) or 0.5}[kind]
                entries.append((q, v))
                q += rng.randint(1, 3)
            x = CoeffVector.from_entries(entries)
            for p in (2, 3, 1.5):
                modes = ("exact", "float") if sl.norms.resolve_mode(x, p) == "exact" else ("float",)
                for mode in modes:
                    _assert_matches_the_heap_dp(x, p, mode)


def test_chain_dp_matches_the_heap_dp_on_tied_ends():
    """Short supports with values from {1, 2, 3}, where block ends often tie
    and only the first optimal end gives the least chain."""
    rng = random.Random(292)
    for _ in range(3000):
        start = rng.randint(1, 4)
        pos = sorted(rng.sample(range(start, start + 12), rng.randint(2, 9)))
        x = CoeffVector.from_entries((q, rng.choice((1, 1, 2, 3))) for q in pos)
        _assert_matches_the_heap_dp(x, rng.choice((2, 3)), rng.choice(("exact", "float")))


@pytest.mark.parametrize("entries, p", [
    ({1: 1e200, 2: 1.0, 3: 1e200}, 2),  # the float power is out of range
    ({1: 1, 2: 10**400, 3: 1}, 1.5),  # an int too large to convert to a float
    ({2: Fraction(10**400, 3), 3: 1}, 2.5),
])
def test_chain_dp_overflows_as_the_heap_dp_does(entries, p):
    x = CoeffVector.from_entries(entries)
    raised = []
    for dp in (_bp_dp, reference_heap_bp_dp):
        with pytest.raises(OverflowError) as exc:
            dp(x, p, "float")
        raised.append(exc.value.args)
    assert raised[0] == raised[1]


def _outcome(power, b):
    try:
        return power(b).hex()
    except OverflowError as exc:
        return type(exc), exc.args


@pytest.mark.parametrize("p", [1, 2, 3, 1.5, Fraction(5, 2)])
def test_float_mode_powers_are_float_b_to_the_float_p(p):
    # b ** e with e = float(p) is the old float(b) ** float(p), bit for bit,
    # on int, Fraction and float b, and overflows with the same message
    e = _exponent(p, "float")
    rng = random.Random(f"power-{p}")
    bases = [0, 1, 0.0, 1e-300, 1e200, 10**300, 10**400, Fraction(10**400, 3), Fraction(1, 10**400)]
    bases += [rng.randint(0, 10**20) for _ in range(200)]
    bases += [Fraction(rng.randint(0, 10**12), rng.randint(1, 10**12)) for _ in range(200)]
    bases += [rng.uniform(0, 10) * 10.0 ** rng.randint(-150, 150) for _ in range(200)]
    for b in bases:
        assert _outcome(lambda b: b**e, b) == _outcome(_powfn(p, "float"), b), b


def _best_block(pairs, i, t):
    """Brute force over every admissible block from support point i to t:
    the least block (sorted positions) of the greatest sum of |x|."""
    first = pairs[i][0]
    if t == i:
        return (first,)
    inner = pairs[i + 1 : t]
    bodies = (b for k in range(min(first - 2, len(inner)) + 1) for b in combinations(inner, k))
    return min(
        (-sum(abs(v) for _, v in body), (first, *(q for q, _ in body), pairs[t][0]))
        for body in bodies
    )[1]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(("int", "frac", "sign")))
def test_best_blocks_rise_with_their_last_point(data, kind):
    """For a fixed first point the best block ending at t is below the best
    block ending at any later t, which lets the chain DP take the first
    optimal t at each step as the least chain."""
    pairs = data.draw(vectors(kind, max_support=9)).pairs()
    for i, (first, _) in enumerate(pairs):
        ends = range(i, len(pairs) if first >= 2 else i + 1)
        blocks = [_best_block(pairs, i, t) for t in ends]
        assert all(a < b for a, b in zip(blocks, blocks[1:]))


def _seeded_exact_vector(rng, kind, n, start, max_gap=3):
    entries, q = [], start
    for _ in range(n):
        a, d = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice(DENOMS)
        v = {"int": a, "sign": a // abs(a), "frac": Fraction(a, d),
             "mixed": rng.choice((a, Fraction(a, d)))}[kind]
        entries.append((q, v))
        q += rng.randint(1, max_gap)
    return CoeffVector.from_entries(entries)


def test_a_block_that_may_take_every_later_point_is_the_unique_best_chain():
    """The lemma behind _bp_dp's closed-form suffix, by brute force: for each
    first point i with pos[i] >= n - i, the one block of the points i..n-1 is
    the only chain in those points that starts at pos[i] and attains the
    maximum of sum(block sum of |x|)^p."""
    rng = random.Random(2401)
    checked = 0
    for _ in range(60):
        kind, n = rng.choice(("int", "sign", "frac")), rng.randint(1, 10)
        x = _seeded_exact_vector(rng, kind, n, rng.randint(1, n + 1))
        entries, pos = dict(x.items()), [q for q, _ in x.pairs()]
        p = rng.choice((2, 3))
        for i in range(n):
            if pos[i] < n - i:
                continue
            whole = IntSet.from_iterable(pos[i:])
            values = {
                c.sets: sum(sum(abs(entries[q]) for q in b.iter_elements()) ** p for b in c.sets)
                for c in sl.enumerate_chains(whole)
                if c.sets[0].min == pos[i]
            }
            best = max(values.values())
            assert [sets for sets, v in values.items() if v == best] == [(whole,)], (x, i, p)
            checked += 1
    assert checked > 150


def test_chain_dp_with_its_closed_form_suffix_matches_the_two_pass_dp():
    """Exact int, +-1, Fraction and mixed vectors whose closed-form suffix
    is the whole support (supports from n on), the shortest one possible
    (the dense support {1..n}, its upper half) or in between."""
    rng = random.Random(2402)
    for kind in ("int", "sign", "frac", "mixed"):
        for n in (1, 2, 3, 7, 12, 30, 80):
            for start, max_gap in ((n, 3), (n + 5, 2), (1, 1), (2, 2), (max(1, n // 3), 3)):
                x = _seeded_exact_vector(rng, kind, n, start, max_gap)
                for p in (2, 3):
                    value, witness = _bp_dp(x, p, "exact")
                    ref_value, ref_witness = reference_bp_dp(x, p, "exact")
                    assert value == ref_value and type(value) is type(ref_value)
                    assert witness == ref_witness


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_chain_dp_loops_only_below_the_closed_form_suffix(monkeypatch, mode):
    """In exact mode the loop visits a first point i only when its block cannot
    take all of i..n-1 (pos[i] < n - i); float mode visits every i.  Counted
    by the loop's running sums, one per visited i with pos[i] >= 2."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return accumulate(*args, **kwargs)

    monkeypatch.setattr(sl.norms, "accumulate", counted)
    rng = random.Random(2403)
    for n in (1, 2, 5, 9, 40):
        for start in (1, 2, n - 1, n, n + 1):
            x = _seeded_exact_vector(rng, "frac", n, max(1, start), 1)
            pos = [q for q, _ in x.pairs()]
            calls.clear()
            _bp_dp(x, 2, mode)
            skipped = (lambda i: pos[i] >= n - i) if mode == "exact" else (lambda i: False)
            assert len(calls) == sum(1 for i in range(n) if pos[i] >= 2 and not skipped(i))


def _first_maximizer(points):
    """Brute force over the expanded points (position, weight): the first
    position whose set adds the pos - 1 heaviest later points is the best."""
    best = at = None
    for i, (q, w) in enumerate(points):
        value = w + sum(sorted((v for _, v in points[i + 1 :]), reverse=True)[: q - 1])
        if best is None or value > best:
            best, at = value, q
    return best, at


def test_run_scan_finds_each_first_maximizer():
    """Every suffix of the runs, so that many runs win once; the increments
    of f along each run never rise again once they stop being positive."""
    rng = random.Random(97)
    for _ in range(400):
        runs, lo = [], rng.randint(1, 12)
        for _ in range(rng.randint(1, 6)):
            length = rng.randint(1, 25)
            runs.append((lo, lo + length - 1, rng.randint(0, 6)))  # 0: an underflowed power
            lo += length + rng.choice((0, 0, 1, 4))
        for r in range(len(runs)):
            tail = runs[r:]
            points = [(q, w) for lo, hi, w in tail for q in range(lo, hi + 1)]
            best, witness = _run_scan(tail, [w for _, _, w in tail])
            assert (best, witness.min) == _first_maximizer(points)
            lo, hi, w = tail[0]
            f = [w + sum(sorted((v for q2, v in points if q2 > q), reverse=True)[: q - 1])
                 for q in range(lo, hi + 1)]
            steps = [b - a for a, b in zip(f, f[1:])]
            first = next((i for i, d in enumerate(steps) if d <= 0), len(steps))
            assert all(d <= 0 for d in steps[first:])


def _seeded_runs(rng):
    """One to eight runs of lengths up to 2^70, with weights from a small set
    that holds 0 (so ties and zero weights occur), adjacent or with gaps."""
    weights = [rng.choice((0, 1, 2, 3, 5, 8, 13)) for _ in range(rng.randint(1, 4))]
    runs, lo = [], rng.randint(1, 2 ** rng.choice((2, 6, 40, 70)))
    for _ in range(rng.randint(1, 8)):
        length = rng.randint(1, 2 ** rng.choice((1, 3, 8, 30, 64, 70)))
        runs.append((lo, lo + length - 1, rng.choice(weights)))
        lo += length + rng.choice((0, 0, 1, 7, 2 ** rng.randint(1, 70)))
    return runs


def test_run_scan_matches_the_bisection_scan():
    rng = random.Random(2024)
    for _ in range(3000):
        runs = _seeded_runs(rng)
        weights = [w for _, _, w in runs]
        assert _run_scan(runs, weights) == reference_bisect_run_scan(runs, weights), runs


def test_first_maximizer_is_a_run_candidate():
    """Brute force over every q of short runs: f(q) is w plus the q - 1
    heaviest of the hi - q copies of w beyond q and the later weights."""
    rng = random.Random(31)
    for _ in range(4000):
        lo = rng.randint(1, 15)
        hi = lo + rng.randint(1, 30)
        top = rng.choice((1, 3, 9, 40))
        w = rng.randint(0, top)
        later = sorted((rng.randint(0, top) for _ in range(rng.randint(0, 40))), reverse=True)
        values = [w + sum(sorted([w] * (hi - q) + later, reverse=True)[: q - 1])
                  for q in range(lo, hi + 1)]
        first = lo + values.index(max(values))
        heavier = sum(g > w for g in later)
        half = sum(g > w // 2 for g in later)
        assert first in _run_candidates(lo, hi, heavier, half), (lo, hi, w, later)


def test_run_scan_answers_large_non_monotone_vectors():
    up = CoeffVector([(1, 4000, 1), (4001, 4001, 2), (4002, 6000, 1)])
    assert sl.schreier_norm(up, 1).value_pow == 3001
    assert sl.schreier_norm(up, 2).value_pow == 3003
    n = 2**40
    x = CoeffVector([(1, n // 2, 3), (n // 2 + 1, n // 2 + 7, -10), (n // 2 + 8, n, 2)])
    for p in (1, 2, 1.5):
        r = sl.schreier_norm(x, p)
        assert r.check(x)
    assert _int_weights(x, 2, "exact") == ([9, 100, 4], 1)


def test_run_scan_past_sys_maxsize_points():
    # one flat run of 2^64 points: the best Schreier set is the last half,
    # [2^63, 2^64 - 1], of 2^63 points; the run is longer than any range
    n = 2**64
    x = CoeffVector([(1, n, 1)])
    r = sl.schreier_norm(x, 2)
    assert r.value_pow == 2**63
    assert r.witness == IntSet.interval(2**63, n - 1)
    assert r.check(x)
    assert sl.schreier_norm(x, 1).value_pow == 2**63
    for p in (1, 2):
        weights, _ = _int_weights(x, p, "exact")
        assert _run_scan(x.runs, weights) == reference_bisect_run_scan(x.runs, weights)
    # the chain norm's bounds do not meet on a flat vector: a typed refusal
    with pytest.raises(sl.SizeLimitError):
        sl.baernstein_norm(x, 2)


def _assert_scales(norm_of, x, c, p):
    r, rc = norm_of(x, p), norm_of(x.scaled(c), p)
    assert r.mode == rc.mode == "exact"
    assert rc.value_pow == c**p * r.value_pow
    assert rc.witness == r.witness


@settings(max_examples=100, deadline=None)
@given(data=st.data(), kind=st.sampled_from(("int", "frac", "mixed")), c=positive_rationals)
def test_generic_engines_commute_with_scaling(data, kind, c):
    x = data.draw(vectors(kind))
    p = data.draw(st.sampled_from((1, 2, 3)))
    _assert_scales(sl.schreier_norm, x, c, p)
    _assert_scales(sl.baernstein_norm, x, c, p + 1)


@settings(max_examples=60, deadline=None)
@given(x=st.one_of(monotone_vectors(), run_vectors()), c=positive_rationals,
       p=st.sampled_from((1, 2, 3)))
def test_run_scan_commutes_with_scaling(x, c, p):
    _assert_scales(sl.schreier_norm, x, c, p)


@settings(max_examples=40, deadline=None)
@given(
    start=st.integers(1, 8),
    count=st.integers(1, 12),
    base=positive_rationals,
    c=positive_rationals,
    p=st.sampled_from((2, 3)),
)
def test_sandwich_commutes_with_scaling(start, count, base, c, p):
    x = sl.flat_vector(sl.maximal_chain_from(start, count), p, "bp").scaled(base)
    with pytest.MonkeyPatch.context() as mp:  # the sandwich at every size
        mp.setattr(sl.norms, "DEFAULT_DP_LIMIT", 0)
        _assert_scales(sl.baernstein_norm, x, c, p)


def test_mixed_int_and_fraction_entries_give_a_fraction():
    x = CoeffVector.from_entries({1: Fraction(1, 2), 2: 5, 3: 4})
    r = sl.schreier_norm(x, 1)
    assert type(r.value_pow) is Fraction and r.value_pow == 9
    assert type(sl.schreier_norm(CoeffVector.from_dense([5, 4]), 1).value_pow) is int


def test_float_mode_on_rational_vectors_on_every_path():
    """Float values at p = 1.5 on Fraction vectors, pinned bit for bit."""
    spread = lambda q: Fraction((-1) ** q * (q % 7 + 1), q % 5 + 2)
    monotone = CoeffVector(
        [(1, 300, Fraction(5, 3)), (301, 900, Fraction(-4, 7)), (901, 5000, Fraction(1, 11))]
    )
    flat = sl.flat_vector(sl.maximal_chain_from(3, 8), 1.5, "bp")
    assert monotone.support_size > 600  # once past the scan's size cutoff
    assert flat.support_size > DEFAULT_DP_LIMIT
    cases = [
        (CoeffVector.from_entries((q, spread(q)) for q in range(2, 400, 3)), "sp",
         28.3819763055815, 151.20423307155704),
        (CoeffVector.from_entries((q, spread(q)) for q in range(2, 300, 2)), "bp",
         132.95597192698952, 1533.0692533653598),
        (monotone, "sp", 47.09377412517642, 323.18057158167625),
        (flat, "bp", 3.9999999999999996, 8.0),
    ]
    for x, space, value, value_pow in cases:
        assert x.exact  # rational entries, evaluated in floats
        r = sl.norms.norm(x, 1.5, space, "float")
        assert (r.mode, r.value, r.value_pow) == ("float", value, value_pow)
