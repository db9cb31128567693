import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import schreierlab as sl
from schreierlab import CoeffVector, IntSet
from schreierlab.norms import (
    _block_sums,
    _bp_dp,
    _bp_oracle_pow,
    _monotone_bp,
)


def rand_vector(rng, max_support=8, window=20, signed=True):
    k = rng.randint(1, max_support)
    supp = sorted(rng.sample(range(1, window + 1), k))
    lo = -4 if signed else 1
    vals = []
    for _ in supp:
        v = 0
        while v == 0:
            v = rng.randint(lo, 4)
        vals.append(v)
    return CoeffVector.from_entries(zip(supp, vals))


# -- seminorms ----------------------------------------------------------------


def test_mu_p_examples():
    x = CoeffVector.from_dense([1, 1, 1])
    assert sl.mu_p(x, [], 2) == 0.0
    assert sl.mu_p_pow(x, [2, 3], 1) == 2
    ch = sl.maximal_chain_from(3, 3)
    flat = sl.flat_vector(ch, 1, "sp")
    for block in ch:
        assert sl.mu_p_pow(flat, block, 1) == 1


def test_mu_p_rejects_inadmissible():
    x = CoeffVector.from_dense([1, 1])
    with pytest.raises(sl.InvalidInputError):
        sl.mu_p(x, [1, 2], 2)


def test_beta_p_examples():
    assert sl.beta_p(CoeffVector.basis(1), [[1]], 2) == 1.0
    x = CoeffVector.from_dense([1, 1, 1])
    assert sl.beta_p_pow(x, [[1], [2, 3]], 2) == 5
    assert sl.beta_p(x, [[1], [2, 3]], 2) == pytest.approx(math.sqrt(5))


def test_beta_p_equals_mu1_on_single_blocks():
    rng = random.Random(5)
    for _ in range(50):
        x = rand_vector(rng)
        supp = x.support().to_list()
        m = rng.choice(supp)
        budget = min(m - 1, len([q for q in supp if q > m]))
        f = [m] + sorted(rng.sample([q for q in supp if q > m], rng.randint(0, budget)))
        for p in (2, 3):
            assert sl.beta_p_pow(x, [f], p) == sl.mu_p_pow(x, f, 1) ** p


def test_beta_p_additive_over_concatenation():
    x = CoeffVector.from_dense([2, -1, 3, 1, -2, 1, 4])
    c1 = [[1], [2, 3]]
    c2 = [[4, 5], [6, 7]]
    assert sl.beta_p_pow(x, c1 + c2, 2) == sl.beta_p_pow(x, c1, 2) + sl.beta_p_pow(
        x, c2, 2
    )


def test_beta_p_requires_p_above_one():
    x = CoeffVector.basis(1)
    with pytest.raises(sl.UnsupportedExponentError):
        sl.beta_p(x, [[1]], 1)
    with pytest.raises(sl.UnsupportedExponentError):
        sl.baernstein_norm(x, 1)
    with pytest.raises(sl.UnsupportedExponentError):
        sl.schreier_norm(x, 0.5)


def reference_run_by_run_pow(x, blocks, p, chain):
    """mu_p^p of one block (chain False) or beta_p^p of a chain, summed run by
    run in x's own scalars: ov * |v|^p or ov * |v| per run met."""
    total = 0
    for block in blocks:
        s = 0
        for ov, v in reference_overlaps(x, block):
            s = s + ov * (abs(v) if chain else abs(v) ** p)
        total = total + (s**p if chain else s)
    return total


def random_chain(rng, start, count):
    """Up to count successive admissible blocks from start, with gaps."""
    blocks, q = [], start
    for _ in range(rng.randint(1, count)):
        size = rng.randint(1, min(q, 6))
        points = [q] + sorted(rng.sample(range(q + 1, q + 12), size - 1))
        blocks.append(IntSet.from_iterable(points))
        q = points[-1] + 1 + rng.randint(0, 3)
    return blocks


def assert_exact_seminorms_match_the_run_by_run_sums(x, blocks):
    want_type = Fraction if any(isinstance(v, Fraction) for _, _, v in x.runs) else int
    for p in (2, 3):
        for block in blocks:
            got = sl.mu_p_pow(x, block, p)
            assert got == reference_run_by_run_pow(x, [block], p, False), (x, block, p)
            assert type(got) is want_type
        got = sl.beta_p_pow(x, blocks, p)
        assert got == reference_run_by_run_pow(x, blocks, p, True), (x, blocks, p)
        assert type(got) is want_type


def test_exact_seminorms_match_the_run_by_run_sums():
    """Int, Fraction and mixed run vectors, flat vectors (denominators 2^k)
    and blocks that meet only the int runs of a mixed vector: the values are
    the run-by-run sums, of type int when every entry of x is an int and
    Fraction otherwise, whichever runs the blocks meet."""
    rng = random.Random(2404)
    for kind in ("int", "frac", "mixed") * 40:
        runs, lo = [], rng.randint(1, 6)
        for _ in range(rng.randint(1, 8)):
            hi = lo + rng.randint(0, 6)
            a, d = rng.choice((-5, -3, -1, 1, 2, 4)), rng.choice((1, 2, 3, 4, 7, 8, 12))
            v = {"int": a, "frac": Fraction(a, d), "mixed": rng.choice((a, Fraction(a, d)))}[kind]
            runs.append((lo, hi, v))
            lo = hi + 1 + rng.choice((0, 0, 2))
        x = CoeffVector(runs)
        assert_exact_seminorms_match_the_run_by_run_sums(x, random_chain(rng, rng.randint(1, 5), 5))
    for start, count in ((1, 1), (1, 6), (2, 5), (3, 4), (5, 3)):
        chain = sl.maximal_chain_from(start, count)
        flat = sl.flat_vector(chain, 2, "bp")
        assert_exact_seminorms_match_the_run_by_run_sums(flat, list(chain.sets))
        assert_exact_seminorms_match_the_run_by_run_sums(flat, random_chain(rng, start, 4))
    mixed = CoeffVector([(2, 4, 3), (5, 9, Fraction(-1, 2)), (10, 20, -2), (21, 21, Fraction(5, 3))])
    int_only = [IntSet([(2, 3)]), IntSet([(10, 15)]), IntSet([(16, 20)])]
    assert_exact_seminorms_match_the_run_by_run_sums(mixed, int_only)
    assert sl.mu_p_pow(mixed, int_only[1], 2) == Fraction(24)
    assert sl.beta_p_pow(mixed, int_only, 2) == Fraction(36 + 144 + 100)


# -- schreier norm ------------------------------------------------------------


def test_schreier_norm_examples():
    for n in (1, 4, 9):
        r = sl.schreier_norm(CoeffVector.basis(n), 2)
        assert r.value == 1.0 and r.witness == IntSet.from_iterable([n])
    r = sl.schreier_norm(CoeffVector.from_dense([1, 1, 1]), 1)
    assert r.value_pow == 2
    assert r.witness == IntSet.from_iterable([2, 3])
    assert r.check(CoeffVector.from_dense([1, 1, 1]))


def test_schreier_norm_zero_vector():
    r = sl.schreier_norm(CoeffVector.zero(), 2)
    assert r.value == 0.0 and r.zero_vector and r.witness == sl.EMPTY
    assert r.check(CoeffVector.zero())


def test_schreier_norm_witness_ties_break_lexicographically():
    # both {2,3} and {2,4} attain the norm; the smaller element list wins
    x = CoeffVector.from_entries({2: 1, 3: 1, 4: 1})
    r = sl.schreier_norm(x, 1)
    assert r.value_pow == 2
    assert r.witness == IntSet.from_iterable([2, 3])


def test_schreier_norm_matches_oracle_random():
    rng = random.Random(17)
    for _ in range(120):
        x = rand_vector(rng)
        for p in (1, 2, 3):
            r = sl.schreier_norm(x, p)
            assert r.mode == "exact"
            assert r.value_pow == sl.oracle_norm_pow(x, p, "sp")
            assert r.check(x)


def test_schreier_norm_float_mode_matches_oracle():
    rng = random.Random(23)
    for _ in range(60):
        k = rng.randint(1, 7)
        supp = sorted(rng.sample(range(1, 15), k))
        x = CoeffVector.from_entries(
            (q, rng.uniform(-1, 1) or 0.3) for q in supp
        )
        r = sl.schreier_norm(x, 1.5)
        assert r.mode == "float"
        o = sl.oracle_norm(x, 1.5, "sp")
        assert r.value == pytest.approx(o, rel=1e-9)


def test_sup_norm_below_schreier_norm():
    rng = random.Random(29)
    for _ in range(60):
        x = rand_vector(rng)
        for p in (1, 2):
            assert sl.sup_norm(x) ** p <= sl.schreier_norm(x, p).value_pow


# -- baernstein norm ------------------------------------------------------------


def test_baernstein_norm_examples():
    for n in (1, 3, 7):
        r = sl.baernstein_norm(CoeffVector.basis(n), 2)
        assert r.value == 1.0
        assert r.witness.to_lists() == [[n]]
    x = CoeffVector.from_dense([1, 1, 1])
    r = sl.baernstein_norm(x, 2)
    assert r.value_pow == 5
    assert r.witness.to_lists() == [[1], [2, 3]]
    assert r.check(x)


def test_baernstein_norm_zero_vector():
    r = sl.baernstein_norm(CoeffVector.zero(), 2)
    assert r.value == 0.0 and r.zero_vector and r.witness is None
    assert r.check(CoeffVector.zero())


def test_baernstein_norm_matches_oracle_random():
    rng = random.Random(31)
    for _ in range(80):
        x = rand_vector(rng)
        for p in (2, 3):
            r = sl.baernstein_norm(x, p)
            assert r.mode == "exact"
            assert r.value_pow == sl.oracle_norm_pow(x, p, "bp")
            assert r.check(x)


def test_baernstein_norm_float_mode_matches_oracle():
    rng = random.Random(37)
    for _ in range(40):
        k = rng.randint(1, 7)
        supp = sorted(rng.sample(range(1, 15), k))
        x = CoeffVector.from_entries((q, rng.uniform(0.1, 1)) for q in supp)
        r = sl.baernstein_norm(x, 1.5)
        o = sl.oracle_norm(x, 1.5, "bp")
        assert r.value == pytest.approx(o, rel=1e-9)


def test_bp_oracle_agrees_with_chain_enumeration():
    # the recursive oracle visits exactly the enumerate_chains space
    rng = random.Random(41)
    for _ in range(30):
        x = rand_vector(rng, max_support=6, window=12)
        supp = x.support()
        brute = max(
            (sl.beta_p_pow(x, c, 2) for c in sl.enumerate_chains(supp)),
            default=0,
        )
        pairs = [(q, v) for q, v in x.abs().pairs()]
        assert _bp_oracle_pow(pairs, 2) == brute


def test_covering_witness_for_decreasing_vectors():
    # non-negative vectors with non-increasing entries attain the chain norm
    # on a chain covering the whole support
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 9)
        vals = sorted(
            (Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)),
            reverse=True,
        )
        start = rng.randint(1, 5)
        supp = sorted(rng.sample(range(start, start + 16), n))
        x = CoeffVector.from_entries(zip(supp, vals))
        for p in (2, 3):
            r = sl.baernstein_norm(x, p)
            assert r.witness.union() == x.support()


def test_norm_unconditionality_and_monotonicity():
    rng = random.Random(47)
    for _ in range(60):
        x = rand_vector(rng)
        flipped = CoeffVector.from_entries(
            (q, v if rng.random() < 0.5 else -v) for q, v in x.items()
        )
        for p, space in ((1, "sp"), (2, "sp"), (2, "bp"), (3, "bp")):
            norm = sl.schreier_norm if space == "sp" else sl.baernstein_norm
            assert norm(x, p).value_pow == norm(flipped, p).value_pow
        # coordinatewise domination
        y = CoeffVector.from_entries((q, v * rng.randint(1, 2)) for q, v in x.items())
        for p, space in ((2, "sp"), (2, "bp")):
            norm = sl.schreier_norm if space == "sp" else sl.baernstein_norm
            assert norm(x, p).value_pow <= norm(y, p).value_pow


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=7),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=7),
)
def test_norm_axioms_exact(a_vals, b_vals):
    x = CoeffVector.from_dense(a_vals)
    y = CoeffVector.from_dense(b_vals)
    # homogeneity at the power level and the triangle inequality at p = 1
    r = sl.schreier_norm(x, 1)
    assert sl.schreier_norm(x.scaled(-3), 1).value_pow == 3 * r.value_pow
    lhs = sl.schreier_norm(x + y, 1).value_pow
    assert lhs <= r.value_pow + sl.schreier_norm(y, 1).value_pow


def test_norm_triangle_float():
    rng = random.Random(53)
    for _ in range(40):
        x, y = rand_vector(rng), rand_vector(rng)
        for p, norm in ((2, sl.schreier_norm), (2, sl.baernstein_norm)):
            lhs = norm(x + y, p).value
            rhs = norm(x, p).value + norm(y, p).value
            assert lhs <= rhs * (1 + 1e-9)
        v = sl.baernstein_norm(x.scaled(Fraction(5, 2)), 2).value
        assert v == pytest.approx(2.5 * sl.baernstein_norm(x, 2).value, rel=1e-12)


def test_single_schreier_support_norms():
    # non-negative x with Schreier support: chain norm equals the plain sum,
    # which equals the S_1 norm; the S_p norm dominates the l_p norm
    rng = random.Random(59)
    for _ in range(60):
        m = rng.randint(1, 10)
        k = rng.randint(1, min(m, 6))
        supp = [m] + sorted(rng.sample(range(m + 1, m + 15), k - 1))
        x = CoeffVector.from_entries(
            (q, Fraction(rng.randint(1, 8), rng.randint(1, 3))) for q in supp
        )
        total = sum(v for _, v in x.items())
        for p in (2, 3):
            assert sl.baernstein_norm(x, p).value_pow == total**p
            assert sl.schreier_norm(x, p).value_pow >= sl.lp_norm_pow(x, p)
        assert sl.schreier_norm(x, 1).value_pow == total


def test_baernstein_dominates_s1():
    rng = random.Random(61)
    for _ in range(40):
        x = rand_vector(rng)
        assert sl.baernstein_norm(x, 2).value >= sl.schreier_norm(x, 1).value * (
            1 - 1e-12
        )


def test_rearrangement_inequality():
    # for decreasing non-negative x, permuting an initial segment cannot
    # shrink the Schreier norm
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(1, 9)
        vals = sorted((rng.randint(1, 9) for _ in range(n)), reverse=True)
        x = CoeffVector.from_dense(vals)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        y = CoeffVector.from_entries((perm[i], vals[i]) for i in range(n))
        for p in (1, 2):
            assert (
                sl.schreier_norm(x, p).value_pow <= sl.schreier_norm(y, p).value_pow
            )


# -- large-scale paths ---------------------------------------------------------


def test_monotone_vectors_attain_the_best_window():
    # for non-increasing |x| the best set with minimum at the o-th support
    # point is the window of the next pos(o) - 1 support points
    rng = random.Random(71)
    for _ in range(80):
        n = rng.randint(1, 60)
        vals = sorted(
            (Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(n)),
            reverse=True,
        )
        start = rng.randint(1, 6)
        pos, q = [], start
        for _ in range(n):
            pos.append(q)
            q += 1 + rng.randint(0, 2)
        x = CoeffVector.from_entries(zip(pos, vals))
        for p in (1, 2, 3):
            windows = [sum(v**p for v in vals[o : o + pos[o]]) for o in range(n)]
            r = sl.schreier_norm(x, p)
            assert r.value_pow == max(windows)
            o = windows.index(max(windows))
            assert r.witness.to_list() == pos[o : o + pos[o]]


def test_monotone_bp_sandwich_agrees_when_tight():
    rng = random.Random(73)
    tight = 0
    for _ in range(80):
        n = rng.randint(1, 40)
        vals = sorted(
            (Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(n)),
            reverse=True,
        )
        start = rng.randint(1, 6)
        x = CoeffVector.from_entries(zip(range(start, start + n), vals))
        for p in (2, 3):
            a, _ = _bp_dp(x, p, "exact")
            try:
                b, wit = _monotone_bp(x, p, "exact")
            except sl.SizeLimitError:
                continue
            tight += 1
            assert a == b
            assert sl.beta_p_pow(x, wit, p) == b
    assert tight > 20


def test_size_limit_paths():
    # the Schreier scan answers at any size; past the chain DP's limit a
    # non-monotone vector is refused rather than guessed at
    up = CoeffVector([(1, 4000, 1), (4001, 4001, 2), (4002, 6000, 1)])
    assert sl.schreier_norm(up, 2).value_pow == 3003
    with pytest.MonkeyPatch.context() as mp, pytest.raises(sl.SizeLimitError):
        mp.setattr(sl.norms, "DEFAULT_DP_LIMIT", 100)
        sl.baernstein_norm(up, 2)
    # monotone large vectors: the chain norm goes through the sandwich
    down = sl.flat_vector(sl.maximal_chain_from(2, 14), 2, "bp")
    assert down.support_size > 16000
    assert sl.schreier_norm(down, 1).value_pow == 1
    assert sl.baernstein_norm(down, 2).value_pow == 14


def test_flat_run_past_the_chain_dp_limit_names_the_limit():
    # non-increasing, so it takes the sandwich, whose bounds do not meet on a
    # constant run: lower 6617, upper 12961
    with pytest.raises(sl.SizeLimitError) as err:
        sl.baernstein_norm(CoeffVector([(1, 161, 1)]), 2)
    msg = str(err.value)
    assert "support size 161" in msg and "chain DP limit 160" in msg
    assert "lower 6617, upper 12961" in msg


def test_oracle_norm_respects_bound():
    x = CoeffVector.from_dense([1] * 20)
    with pytest.raises(sl.OracleLimitError):
        sl.oracle_norm(x, 2, "sp")
    with pytest.raises(sl.InvalidInputError):
        sl.oracle_norm(CoeffVector.basis(1), 2, "zp")


def test_exact_mode_validation():
    x = CoeffVector.from_dense([0.5, 1.0])
    with pytest.raises(sl.InvalidInputError):
        sl.schreier_norm(x, 2, mode="exact")
    with pytest.raises(sl.InvalidInputError):
        sl.schreier_norm(CoeffVector.from_dense([1, 1]), 1.5, mode="exact")
    r = sl.schreier_norm(CoeffVector.from_dense([1, 1]), 2, mode="float")
    assert r.mode == "float"


# -- sigma operator -------------------------------------------------------------


def reference_overlaps(x, s):
    """The two-pointer walk over every run of x, from the first."""
    ivs, j = s.intervals, 0
    for lo, hi, v in x.runs:
        while j < len(ivs) and ivs[j][1] < lo:
            j += 1
        ov, k = 0, j
        while k < len(ivs) and ivs[k][0] <= hi:
            ov += min(hi, ivs[k][1]) - max(lo, ivs[k][0]) + 1
            k += 1
        if ov:
            yield ov, v


def assert_block_sums_match_the_full_walk(x, blocks):
    """_block_sums gives the per-block sums of reference_overlaps and calls
    f on the same run values in the same order."""
    seen, want, want_seen = [], [], []

    def f(v):
        seen.append(v)
        return v

    for block in blocks:
        s = 0
        for ov, v in reference_overlaps(x, block):
            want_seen.append(v)
            s = s + ov * v
        want.append(s)
    assert (list(_block_sums(x, blocks, f)), seen) == (want, want_seen), (x, blocks)


def random_runs(rng, count, window):
    """Runs of 1 to 6 points with gaps of 0 to 3, adjacent runs unequal."""
    runs, lo, prev = [], rng.randint(1, 4), None
    while len(runs) < count and lo <= window:
        hi = lo + rng.randint(0, 5)
        v = prev
        while v == prev or v == 0:
            v = rng.randint(-4, 4)
        runs.append((lo, hi, v))
        gap = rng.randint(0, 3)
        prev, lo = (v if gap == 0 else None), hi + 1 + gap
    return CoeffVector(runs)


def test_overlaps_from_the_bisected_start_match_the_full_walk():
    # runs with gaps and adjacent runs: 5-9, 10-12, 20-20, 30-39, 40-45
    x = CoeffVector([(5, 9, 1), (10, 12, -2), (20, 20, 3), (30, 39, 4), (40, 45, 5)])
    sets = [
        IntSet(()),  # empty
        IntSet([(1, 4)]),  # before every run
        IntSet([(46, 60)]),  # after every run
        IntSet([(13, 19), (21, 29)]),  # between runs only
        IntSet([(1, 100)]),  # across every run
        IntSet([(9, 10), (20, 30), (45, 47)]),  # across run ends
        IntSet([(1, 2), (11, 11), (38, 41), (50, 51)]),
    ]
    for s in sets:
        assert_block_sums_match_the_full_walk(x, [s])
    chains = [
        # run 30-39 straddles three successive blocks, run 40-45 two
        [IntSet([(31, 33)]), IntSet([(35, 36)]), IntSet([(38, 41)]), IntSet([(43, 43)])],
        # one block per run, then blocks with several runs between them
        [IntSet([(6, 6)]), IntSet([(11, 12)]), IntSet([(20, 20)]), IntSet([(30, 30)])],
        [IntSet([(5, 6)]), IntSet([(40, 41)]), IntSet([(50, 50)])],
        [IntSet([(1, 2)]), IntSet([(9, 10), (13, 19)]), IntSet([(25, 31), (45, 45)])],
    ]
    for blocks in chains:
        assert_block_sums_match_the_full_walk(x, blocks)
    rng = random.Random(7)
    for _ in range(500):
        y = rand_vector(rng, max_support=12, window=40)
        s = IntSet.from_iterable(rng.sample(range(1, 52), rng.randint(0, 12)))
        assert_block_sums_match_the_full_walk(y, [s])
    for _ in range(500):
        y = random_runs(rng, rng.randint(1, 10), 50)
        points = sorted(rng.sample(range(1, 61), rng.randint(1, 16)))
        cuts = sorted(rng.sample(range(1, len(points)), rng.randint(0, len(points) - 1)))
        blocks = [
            IntSet.from_iterable(points[a:b])
            for a, b in zip([0, *cuts], [*cuts, len(points)])
        ]
        assert_block_sums_match_the_full_walk(y, blocks)


def test_sigma_operator_examples():
    x = CoeffVector.from_dense([1, 1])
    assert sl.sigma_operator(x, [[1], [2]]) == CoeffVector.from_dense([1, 1])
    y = CoeffVector.from_entries({2: 1, 3: -1})
    assert sl.sigma_operator(y, [[2, 3]]).is_zero
    z = CoeffVector.from_dense([1, 1, 1])
    assert sl.sigma_operator(z, [[1], [2, 3]]) == CoeffVector.from_dense([1, 2])


def test_sigma_operator_rejects_bad_chains():
    x = CoeffVector.from_dense([1, 1, 1])
    with pytest.raises(sl.InvalidInputError):
        sl.sigma_operator(x, [[2, 3], [3, 4]])
    with pytest.raises(sl.InvalidInputError):
        sl.sigma_operator(x, [[1, 2]])


def test_sigma_contraction():
    rng = random.Random(79)
    for _ in range(80):
        x = rand_vector(rng, max_support=9, window=18)
        # random successive admissible sets over a window around the support
        sets = []
        q = rng.randint(1, 3)
        while q <= 20 and len(sets) < 5:
            size = rng.randint(1, min(q, 3))
            members = sorted(rng.sample(range(q, q + 5), size))
            if members[0] >= size:
                sets.append(members)
                q = members[-1] + 1 + rng.randint(0, 2)
            else:
                q += 1
        if not sets:
            continue
        out = sl.sigma_operator(x, sets)
        for p in (2, 3):
            assert sl.lp_norm_pow(out, p) <= sl.baernstein_norm(x, p).value_pow


def _assert_least_optimal_witnesses(x, p, q):
    """The sp witness at p and the bp witness at q are the least optimal ones,
    found by enumerating every Schreier set and every chain."""
    r = sl.schreier_norm(x, p)
    best = r.value_pow
    optimal = [
        tuple(f.to_list())
        for f in sl.enumerate_schreier_subsets(x.support())
        if sl.mu_p_pow(x, f, p) == best
    ]
    assert tuple(r.witness.to_list()) == min(optimal)
    rb = sl.baernstein_norm(x, q)
    bbest = rb.value_pow
    chains = [
        tuple(tuple(s.to_list()) for s in c)
        for c in sl.enumerate_chains(x.support())
        if sl.beta_p_pow(x, c, q) == bbest
    ]
    got = tuple(tuple(s.to_list()) for s in rb.witness)
    assert got == min(chains)


def test_witness_is_lex_minimal_among_optima_small():
    # enumerate all optimal witnesses on tiny supports and compare
    rng = random.Random(83)
    for _ in range(40):
        x = rand_vector(rng, max_support=5, window=9)
        _assert_least_optimal_witnesses(x, rng.choice([1, 2]), rng.choice([2, 3]))
    # +-1 and {1, 2} entries on up to 8 points tie many chains at the optimum
    for values in [(1, -1), (1, 2)] * 30:
        supp = sorted(rng.sample(range(1, 13), rng.randint(1, 8)))
        x = CoeffVector.from_entries((q, rng.choice(values)) for q in supp)
        _assert_least_optimal_witnesses(x, rng.choice([1, 2]), rng.choice([2, 3]))


def test_monotone_bp_sandwich_with_support_gaps():
    rng = random.Random(89)
    tight = 0
    for _ in range(60):
        n = rng.randint(1, 30)
        vals = sorted(
            (Fraction(rng.randint(1, 20), rng.randint(1, 5)) for _ in range(n)),
            reverse=True,
        )
        pos, q = [], rng.randint(1, 5)
        for _ in range(n):
            pos.append(q)
            q += 1 + rng.randint(0, 3)
        x = CoeffVector.from_entries(zip(pos, vals))
        for p in (2, 3):
            a, _ = _bp_dp(x, p, "exact")
            try:
                b, wit = _monotone_bp(x, p, "exact")
            except sl.SizeLimitError:
                continue
            tight += 1
            assert a == b
            assert sl.beta_p_pow(x, wit, p) == b
    assert tight > 10
