import math
import random
from fractions import Fraction

import pytest

import schreierlab as sl
from schreierlab import CoeffVector, IndexSet, IntSet


# -- flat vectors ---------------------------------------------------------------


def test_flat_vector_single_block():
    ch = sl.maximal_chain_from(1, 1)
    for space, p in (("sp", 2), ("bp", 2)):
        x = sl.flat_vector(ch, p, space)
        assert dict(x.items()) == {1: 1}
        norm = sl.schreier_norm(x, p) if space == "sp" else sl.baernstein_norm(x, p)
        assert norm.value == 1.0


def test_flat_vector_values():
    ch = sl.maximal_chain_from(3, 2)
    xb = sl.flat_vector(ch, 2, "bp")
    assert xb.entry(4) == Fraction(1, 3) and xb.entry(7) == Fraction(1, 6)
    xs = sl.flat_vector(ch, 2, "sp")
    assert xs.entry(4) == pytest.approx(3 ** -0.5)
    x1 = sl.flat_vector(ch, 1, "sp")
    assert x1.entry(4) == Fraction(1, 3)


def test_flat_vector_requires_maximal_blocks():
    with pytest.raises(sl.InvalidInputError):
        sl.flat_vector(sl.SchreierChain([[3, 4]]), 2, "sp")


def test_flat_vector_schreier_bounds_small():
    # the S_p norm sees only p-th powers of the entries, and the p-th powers
    # of |F|^(-1/p) are the p=1 entries 1/|F|; bounds checked exactly there
    for s in (1, 2, 5):
        for m in (1, 2, 3, 4):
            ch = sl.maximal_chain_from(s, m)
            pow_val = sl.schreier_norm(sl.flat_vector(ch, 1, "sp"), 1).value_pow
            assert 1 <= pow_val <= 2


def test_flat_vector_baernstein_exact_value():
    # maximal_chain_from(3, 3): engine gives the exact norm, inside [m, 2^p m]
    ch = sl.maximal_chain_from(3, 3)
    x = sl.flat_vector(ch, 2, "bp")
    r = sl.baernstein_norm(x, 2)
    assert 3 <= r.value_pow <= 4 * 3
    assert math.sqrt(3) <= r.value <= 2 * math.sqrt(3)
    assert r.check(x)


# -- interval partition -----------------------------------------------------------


def test_mpb_partition_first_levels():
    part = sl.mpb_partition(3)
    assert part.f(1) == sl.EMPTY
    assert part.g(1) == IntSet.from_iterable([1])
    assert part.f(2) == IntSet.from_iterable([2])
    assert part.g(2) == IntSet.interval(3, 11)  # {3,4,5} ∪ {6..11}
    assert part.f(3) == IntSet.interval(12, 22)  # |F_3| = (0+1)+(1+9) = 11
    assert part.g(3) == IntSet.interval(23, 183)  # {23..45} ∪ {46..91} ∪ {92..183}
    assert part.j(1) == IntSet.from_iterable([1])
    assert part.j(2) == IntSet.interval(2, 11)


def test_mpb_partition_invariants():
    part = sl.mpb_partition(12)
    consumed = 0
    pos = 1
    for n in range(1, 13):
        f, g = part.f(n), part.g(n)
        if n == 1:
            assert f.is_empty
        else:
            assert f.size == consumed
            assert f.min == pos
        if not f.is_empty:
            assert g.min == f.max + 1
        count, cert = sl.tau1(g)
        assert count == n
        assert cert.verify()
        consumed += f.size + g.size
        pos = g.max + 1
    # J's partition an initial segment
    union = sl.EMPTY
    for n in range(1, 13):
        union = union.union(part.j(n))
    assert union == IntSet.interval(1, union.max)


def test_mpb_partition_serialization():
    obj = sl.mpb_partition(2).to_json_obj()
    assert obj["F"] == [[], [[2, 2]]]
    assert obj["G"] == [[[1, 1]], [[3, 11]]]


def test_mpb_validation():
    with pytest.raises(sl.InvalidInputError):
        sl.mpb_partition(0)
    with pytest.raises(sl.TruncationError):
        sl.mpb_partition(3).j(4)


# -- L sets -----------------------------------------------------------------------


def test_l_set_examples():
    part = sl.mpb_partition(4)
    l1 = sl.l_set(part, IndexSet.explicit([1]), 4)
    assert l1.prefix(1) == (1,)
    l12 = sl.l_set(part, IndexSet.explicit([1, 2]), 4)
    assert l12.prefix(11) == tuple([1] + list(range(2, 12)))
    l_empty = sl.l_set(part, IndexSet.explicit([]), 4)
    assert l_empty.materialized_limit == 0
    with pytest.raises(sl.TruncationError):
        sl.l_set(part, IndexSet.naturals(), 9)


def test_l_set_respects_membership():
    part = sl.mpb_partition(5)
    evens = sl.l_set(part, IndexSet.evens(), 5)
    expect = part.j(2).union(part.j(4))
    assert evens.select(IntSet.interval(1, expect.size)) == expect


def test_l_set_select_matches_element_selection():
    rng = random.Random(13)
    for _ in range(40):
        part = sl.mpb_partition(5)
        n_idx = IndexSet.explicit(sorted(rng.sample(range(1, 6), rng.randint(1, 5))))
        l_n = sl.l_set(part, n_idx, rng.randint(1, 5))
        top = min(l_n.materialized_limit, 3000)
        if not top:
            continue
        js = IntSet.from_iterable(rng.sample(range(1, top + 1), rng.randint(1, min(top, 60))))
        assert l_n.select(js) == IntSet.from_iterable(l_n.element(j) for j in js.iter_elements())


# -- divergence witnesses -----------------------------------------------------------


def test_divergence_witness_small():
    part = sl.mpb_partition(6)
    m_idx = IndexSet.naturals()
    n_idx = IndexSet.evens()
    w = sl.divergence_witness(part, m_idx, n_idx, 3)
    l_m = sl.l_set(part, m_idx, 6)
    l_n = sl.l_set(part, n_idx, 6)
    assert sl.tau1(l_m.select(w))[0] == 3
    assert sl.is_schreier(l_n.select(w))
    # the selection inside L_M is exactly G_3
    assert l_m.select(w) == part.g(3)


def test_divergence_witness_validation():
    part = sl.mpb_partition(6)
    m_idx = IndexSet.naturals()
    n_idx = IndexSet.evens()
    with pytest.raises(sl.InvalidInputError):
        sl.divergence_witness(part, m_idx, n_idx, 4)  # 4 in N
    with pytest.raises(sl.InvalidInputError):
        sl.divergence_witness(part, m_idx, n_idx, 1)  # needs m >= 2
    with pytest.raises(sl.InvalidInputError):
        sl.divergence_witness(part, n_idx, m_idx, 3)  # 3 not in M=evens
    with pytest.raises(sl.TruncationError):
        sl.divergence_witness(part, m_idx, n_idx, 9)


def test_divergence_certificates():
    part = sl.mpb_partition(8)
    all_n = IndexSet.naturals()
    evens = IndexSet.evens()
    assert sl.divergence_certificates(part, all_n, all_n, 6) == []
    certs = sl.divergence_certificates(part, all_n, evens, 6)
    assert [m for m, _ in certs] == [3, 5]
    l_m = sl.l_set(part, all_n, 8)
    l_n = sl.l_set(part, evens, 8)
    for m, w in certs:
        assert sl.tau1(l_m.select(w))[0] == m
        assert sl.is_schreier(l_n.select(w))
    # the certified lower bound grows with the window
    more = sl.divergence_certificates(part, all_n, evens, 8)
    assert [m for m, _ in more] == [3, 5, 7]


def test_divergence_certificates_match_divergence_witness():
    rng = random.Random(29)
    truncated = certified = 0
    for _ in range(80):
        n_max = rng.randint(3, 9)
        part = sl.mpb_partition(n_max)
        m_idx = IndexSet.explicit(sorted(rng.sample(range(1, n_max + 1), rng.randint(1, n_max))))
        n_idx = IndexSet.explicit(
            sorted(rng.sample(range(1, n_max + 3), rng.randint(1, n_max + 2)))
        )
        window = rng.randint(2, n_max)
        expected = [m for m in range(2, window + 1)
                    if m_idx.contains(m) and not n_idx.contains(m)]
        try:
            want = [(m, sl.divergence_witness(part, m_idx, n_idx, m)) for m in expected]
        except sl.TruncationError:  # L_N too thin for some witness
            with pytest.raises(sl.TruncationError):
                sl.divergence_certificates(part, m_idx, n_idx, window)
            truncated += 1
            continue
        assert sl.divergence_certificates(part, m_idx, n_idx, window) == want
        certified += len(want)
    assert truncated and certified > 20


# -- extremal family -----------------------------------------------------------------


def test_jameson_extremal_shape():
    x = sl.jameson_extremal(2, 5)
    assert sl.sup_norm(x) == Fraction(1, 4)
    assert x.entry(1) == Fraction(1, 4) and x.entry(7) == Fraction(1, 4)
    assert x.entry(8) == Fraction(1, 8) and x.entry(63) == Fraction(1, 32)
    assert x.max_index == 2**6 - 1
    with pytest.raises(sl.InvalidInputError):
        sl.jameson_extremal(3, 3)


def test_jameson_extremal_s1_norm_is_one():
    for k in (1, 2, 4):
        x = sl.jameson_extremal(k, k + 6)
        r = sl.schreier_norm(x, 1)
        assert r.value_pow == 1
        # witnessed by an interval [j, 2j)
        w = r.witness
        assert w.size == w.min and w.intervals == ((w.min, 2 * w.min - 1),)


def test_jameson_extremal_ratio():
    # exact truncated ratio: 2 - 2^-k + 1/(2^(p-1)-1) minus the dropped tail
    for k in (1, 3):
        for t in (k + 10, k + 20):
            x = sl.jameson_extremal(k, t)
            p = 2
            lp_pow = sl.lp_norm_pow(x, p)
            sup = sl.sup_norm(x)
            s1 = sl.schreier_norm(x, 1).value_pow
            ratio = lp_pow / (sup ** (p - 1) * s1)
            # independent tail: sum the dropped geometric series directly
            tail = sum(Fraction(2**n, 2 ** (n * p)) for n in range(t + 1, t + 200))
            tail_full = tail + Fraction(2 ** (t + 200), 2 ** ((t + 200) * p)) * 2
            expect_full = 3 - Fraction(1, 2**k)
            assert ratio < expect_full
            assert ratio >= expect_full - sup ** (1 - p) * tail_full
            assert ratio == expect_full - 2 ** (k - t)  # closed form at p = 2


# -- dominated subsequences ------------------------------------------------------------


def flat_blocks(space, p, starts):
    return sl.BlockSequence(
        [sl.flat_vector(sl.maximal_chain_from(s, 1), p, space) for s in starts]
    )


def test_dominated_subsequence_unit_vectors_shortfall():
    blocks = sl.BlockSequence([CoeffVector.basis(n) for n in range(1, 9)])
    res = sl.dominated_subsequence(blocks, 2, "sp", Fraction(1, 10))
    assert res.indices == (1,)
    assert res.shortfall


def test_dominated_subsequence_huge_eps():
    # Schreier branch: the selection inequality is vacuous for huge eps
    blocks = flat_blocks("sp", 1, [2, 5, 11, 23, 47])
    res = sl.dominated_subsequence(blocks, 1, "sp", 10**6)
    assert res.indices == (1, 2, 3, 4, 5)
    assert not res.shortfall
    # chain branch: delta_k is capped at 1/2, so fast-doubling starts are
    # needed even for huge eps
    blocks = flat_blocks("bp", 2, [2, 8, 32])
    res = sl.dominated_subsequence(blocks, 2, "bp", 10**6)
    assert res.indices == (1, 2, 3)
    assert not res.shortfall


def test_dominated_subsequence_sp_selection_and_domination():
    rng = random.Random(3)
    # decoys at 4 and 20 fail the recursion and must be skipped
    starts = [2, 4, 8, 20, 48, 200]
    blocks = flat_blocks("sp", 1, starts)
    eps = Fraction(1, 2)
    res = sl.dominated_subsequence(blocks, 1, "sp", eps)
    assert res.indices == (1, 3, 5, 6)
    assert not res.shortfall
    # recursion property: sup^p <= eps / max supp of the previous pick
    for a, b in zip(res.indices, res.indices[1:]):
        prev_max = blocks[a - 1].max_index
        assert sl.sup_norm(blocks[b - 1]) <= eps / prev_max
    # C-domination by the c_0 basis on random coefficients
    c = float(1 + eps)
    for _ in range(25):
        coeffs = [rng.uniform(-1, 1) for _ in res.indices]
        x = CoeffVector.zero()
        for j, a in zip(res.indices, coeffs):
            x = x + blocks[j - 1].scaled(a)
        assert sl.schreier_norm(x, 1).value <= c * max(map(abs, coeffs)) * (1 + 1e-9)


def test_dominated_subsequence_bp_selection_and_domination():
    rng = random.Random(5)
    # delta_1 = min(1/2, eps/(2*p*2^(p-1))) = 1/4 at eps=2, p=2, so the next
    # selected sup norm must drop below (1/4) / maxsupp(u_1) = 1/20
    blocks = flat_blocks("bp", 2, [3, 10, 20])
    eps = 2
    res = sl.dominated_subsequence(blocks, 2, "bp", eps)
    assert res.indices == (1, 3)
    assert not res.shortfall  # the search ran off the end of the input
    delta1 = Fraction(1, 4)
    assert sl.sup_norm(blocks[2]) <= delta1 / blocks[0].max_index
    assert sl.sup_norm(blocks[1]) > delta1 / blocks[0].max_index
    # domination by the l_p basis on the selected pair
    c = float(1 + eps) ** 0.5
    for _ in range(25):
        coeffs = [rng.uniform(-1, 1) for _ in res.indices]
        scale = sum(abs(a) ** 2 for a in coeffs) ** 0.5
        coeffs = [a / scale for a in coeffs]
        x = CoeffVector.zero()
        for j, a in zip(res.indices, coeffs):
            x = x + blocks[j - 1].scaled(a)
        assert sl.baernstein_norm(x, 2).value <= c * (1 + 1e-9)


def test_dominated_subsequence_bp_long_selection_inequalities():
    # longer chain-branch selections force astronomically wide blocks, so
    # check the recursion inequalities without evaluating combination norms
    starts = [2]
    for _ in range(6):
        starts.append(starts[-1] * 70)
    blocks = flat_blocks("bp", 2, starts)
    eps = Fraction(1, 2)
    res = sl.dominated_subsequence(blocks, 2, "bp", eps)
    assert len(res.indices) >= 4
    k = 1
    for a, b in zip(res.indices, res.indices[1:]):
        delta = min(Fraction(1, 2), eps / (2**k * 2 * 2))
        assert sl.sup_norm(blocks[b - 1]) <= delta / blocks[a - 1].max_index
        k += 1


@pytest.mark.parametrize("to_float", [False, True])
@pytest.mark.parametrize(
    "space, starts, expected",
    [
        ("sp", [2, 4, 9, 40, 81, 400, 2000], [
            (0.05, (1, 5), True),
            (0.5, (1, 3, 4, 6, 7), False),
            (2.0, (1, 2, 3, 4, 5, 6, 7), False),
            (40.0, (1, 2, 3, 4, 5, 6, 7), False),
        ]),
        ("bp", [3, 10, 20, 90, 500, 3000, 100000], [
            (0.05, (1, 6), True),
            (0.5, (1, 5, 7), False),
            (2.0, (1, 4, 6), True),
            (7.3, (1, 2, 4, 6, 7), False),
            (40.0, (1, 2, 4, 5, 6, 7), False),
        ]),
    ],
)
def test_dominated_subsequence_float_mode_selections(space, starts, expected, to_float):
    # float eps and p = 2.5 put both branches in float mode; the selections
    # are pinned so the float bounds keep their values bit for bit
    blocks = flat_blocks(space, 2.5, starts)
    if to_float:
        blocks = sl.BlockSequence([u.scaled(1.0) for u in blocks])
    for eps, indices, shortfall in expected:
        res = sl.dominated_subsequence(blocks, 2.5, space, eps)
        assert (res.indices, res.shortfall) == (indices, shortfall)


def test_dominated_subsequence_bp_needs_decreasing_sups():
    blocks = sl.BlockSequence([CoeffVector.basis(n) for n in range(1, 5)])
    with pytest.raises(sl.CannotSelectError):
        sl.dominated_subsequence(blocks, 2, "bp", 1)


def test_dominated_subsequence_requires_normalized():
    blocks = sl.BlockSequence([CoeffVector.basis(1).scaled(2)])
    with pytest.raises(sl.InvalidInputError):
        sl.dominated_subsequence(blocks, 2, "sp", 1)


# -- doubling blocks ----------------------------------------------------------------------


def test_doubling_blocks_unit_vector_example():
    blocks = sl.BlockSequence([CoeffVector.basis(n) for n in range(1, 8)])
    out = sl.doubling_blocks(blocks, "sp", 1)
    assert len(out) == 3  # groups {1}, {2,3}, {4..7}
    # v_2 = e_2 + e_3 has S_1 norm exactly 2, so sup(u_2) = 1/2
    v2 = blocks[1] + blocks[2]
    assert sl.schreier_norm(v2, 1).value_pow == 2
    assert sl.sup_norm(out[1]) == pytest.approx(0.5)


def test_doubling_blocks_group_counts():
    blocks15 = sl.BlockSequence([CoeffVector.basis(n) for n in range(1, 16)])
    assert len(sl.doubling_blocks(blocks15, "sp", 1)) == 4
    blocks14 = sl.BlockSequence([CoeffVector.basis(n) for n in range(1, 15)])
    assert len(sl.doubling_blocks(blocks14, "sp", 1)) == 3  # group 4 not full
    # lower bound on the group norms: ||v_n|| >= 2^(n-1) * delta at p = 1
    v3 = CoeffVector.zero()
    for n in range(4, 8):
        v3 = v3 + CoeffVector.basis(n)
    assert sl.schreier_norm(v3, 1).value_pow >= 4
    # normalization identity ||u||_inf * ||v|| <= 1, checked exactly on v
    assert sl.sup_norm(v3) <= 1


def test_doubling_blocks_single_block():
    blocks = sl.BlockSequence([CoeffVector.basis(3)])
    out = sl.doubling_blocks(blocks, "bp", 2)
    assert len(out) == 1
    assert out[0] == blocks[0]


def test_doubling_blocks_sup_norms_shrink():
    blocks = sl.BlockSequence([CoeffVector.basis(n) for n in range(1, 32)])
    for space, p in (("sp", 2), ("bp", 2)):
        out = sl.doubling_blocks(blocks, space, p)
        sups = [float(sl.sup_norm(u)) for u in out]
        assert all(a >= b for a, b in zip(sups, sups[1:]))
        bound = [2 ** (-(n - 1) / p) if space == "sp" else 2 ** (-(n - 1)) for n in range(1, len(out) + 1)]
        for s, b in zip(sups, bound):
            assert s <= b * (1 + 1e-9)


# -- almost disjoint families ---------------------------------------------------------------


def test_almost_disjoint_family_small():
    fam = sl.almost_disjoint_family(2, 3)
    codes = fam.codes
    assert len(codes) == 2
    # van der Corput order: second branch flips the first bit
    assert codes[0] == "000" and codes[1] == "100"
    inter = fam.intersection(codes[0], codes[1])
    assert inter == IntSet.from_iterable([1])  # root only
    assert fam.common_prefix_nodes(codes[0], codes[1]) == 1


def test_almost_disjoint_family_worked_pair():
    fam = sl.almost_disjoint_family(8, 3)
    assert fam.intersection("000", "111") == IntSet.from_iterable([1])
    assert fam.common_prefix_nodes("000", "111") == 1


def test_almost_disjoint_intersections_match_prefixes():
    rng = random.Random(7)
    fam = sl.almost_disjoint_family(16, 6)
    codes = fam.codes
    for _ in range(60):
        a, b = rng.sample(codes, 2)
        assert fam.intersection(a, b).size == fam.common_prefix_nodes(a, b)
    for code in codes:
        branch = fam.branches[code].prefix(7)
        assert branch[0] == 1
        assert all(x < y for x, y in zip(branch, branch[1:]))


def test_almost_disjoint_family_validation():
    assert len(sl.almost_disjoint_family(1, 2).codes) == 1
    with pytest.raises(sl.InvalidInputError):
        sl.almost_disjoint_family(9, 3)


def test_divergence_witness_smallest_m():
    part = sl.mpb_partition(4)
    m_idx = IndexSet.explicit([2])
    n_idx = IndexSet.explicit([3, 4])
    w = sl.divergence_witness(part, m_idx, n_idx, 2)
    l_m = sl.l_set(part, m_idx, 4)
    assert sl.tau1(l_m.select(w))[0] == 2


def test_divergence_witness_insufficient_l_n():
    # N so thin that L_N cannot supply the selected ordinals
    part = sl.mpb_partition(4)
    m_idx = IndexSet.explicit([3])
    n_idx = IndexSet.explicit([1])
    with pytest.raises(sl.TruncationError):
        sl.divergence_witness(part, m_idx, n_idx, 3)
