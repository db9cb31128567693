import random
from itertools import islice

import pytest

import schreierlab as sl
from schreierlab import IndexSet, IntSet
from schreierlab.intset import MATERIALIZE_LIMIT


def rand_prefix(rng, length=14, max_start=4, max_gap=4):
    out = [rng.randint(1, max_start)]
    for _ in range(length - 1):
        out.append(out[-1] + rng.randint(1, max_gap))
    return out


def is_spread(f, g) -> bool:
    """G is a spread of F: same size and f_i <= g_i elementwise."""
    return len(f) == len(g) and all(a <= b for a, b in zip(f, g))


def rand_index_set(rng, length):
    """An explicit prefix or one of the rule-backed sets, at least `length` long."""
    base = IndexSet.explicit(rand_prefix(rng, length=length))
    kind = rng.choice(["explicit", "arithmetic", "doubled", "doubled_minus_one", "union"])
    if kind == "arithmetic":
        return IndexSet.arithmetic(rng.randint(1, 4), rng.randint(1, 4))
    if kind == "doubled":
        return IndexSet.doubled(base)
    if kind == "doubled_minus_one":
        return IndexSet.doubled_minus_one(base)
    if kind == "union":
        return IndexSet.union(IndexSet.doubled_minus_one(base), IndexSet.doubled(base))
    return base


# -- index sets ----------------------------------------------------------------


def test_select_examples():
    evens = IndexSet.evens()
    assert evens.select([1, 3]) == IntSet.from_iterable([2, 6])
    assert evens.select([]) == sl.EMPTY
    powers = IndexSet.explicit([1, 2, 4, 8, 16])
    assert powers.select([2, 3]) == IntSet.from_iterable([2, 4])


def test_explicit_prefix_truncates_instead_of_extrapolating():
    m = IndexSet.explicit([3, 5, 7])
    assert m.prefix(3) == (3, 5, 7)
    with pytest.raises(sl.TruncationError):
        m.element(4)
    with pytest.raises(sl.TruncationError):
        m.select([4])


def test_rule_sets():
    assert IndexSet.naturals().prefix(5) == (1, 2, 3, 4, 5)
    assert IndexSet.evens().prefix(4) == (2, 4, 6, 8)
    assert IndexSet.odds().prefix(4) == (1, 3, 5, 7)
    assert IndexSet.arithmetic(3, 4).prefix(3) == (3, 7, 11)
    m = IndexSet.explicit([1, 4, 6])
    assert IndexSet.doubled(m).prefix(3) == (2, 8, 12)
    assert IndexSet.doubled_minus_one(m).prefix(3) == (1, 7, 11)
    u = IndexSet.union(IndexSet.doubled_minus_one(m), IndexSet.doubled(m))
    assert u.prefix(6) == (1, 2, 7, 8, 11, 12)
    u2 = IndexSet.union(IndexSet.explicit([1, 2]), IndexSet.explicit([2, 3]))
    assert u2.prefix(3) == (1, 2, 3)
    with pytest.raises(sl.TruncationError):
        u2.element(4)


def _count_stream_reads(idx, reads):
    """Record every element the set reads from its stream."""
    inner = idx._stream

    def counted():
        for e in inner:
            reads.append(e)
            yield e

    idx._stream = counted()
    return idx


def test_union_merges_each_base_element_once():
    reads = []
    a = _count_stream_reads(IndexSet.arithmetic(1, 3), reads)
    b = _count_stream_reads(IndexSet.arithmetic(2, 5), reads)
    k = 4000
    got = IndexSet.union(a, b).prefix(k)
    assert len(reads) <= 2 * k + 2
    want = sorted({1 + 3 * i for i in range(k)} | {2 + 5 * i for i in range(k)})[:k]
    assert got == tuple(want)
    # both readers of one set share its cache: each element is read once
    reads.clear()
    c = _count_stream_reads(IndexSet.arithmetic(1, 3), reads)
    assert IndexSet.union(c, c).prefix(k) == tuple(range(1, 3 * k, 3))
    assert len(reads) <= k + 1


def test_union_matches_sorted_set_union_on_random_prefixes():
    rng = random.Random(5)
    for _ in range(50):
        xs, ys = rand_prefix(rng, rng.randint(1, 12)), rand_prefix(rng, rng.randint(1, 12))
        u = IndexSet.union(IndexSet.explicit(xs), IndexSet.explicit(ys))
        want = sorted(set(xs) | set(ys))
        assert u.prefix(len(want)) == tuple(want)


def test_union_keeps_refusing_past_exhaustion():
    u = IndexSet.union(IndexSet.explicit([1, 3]), IndexSet.explicit([2, 3, 5]))
    assert u.prefix(4) == (1, 2, 3, 5)
    for _ in range(2):
        with pytest.raises(
            sl.TruncationError,
            match=r"^index set \(\(explicit\)\|\(explicit\)\) ends at length 4, requested element 5$",
        ):
            u.element(5)
    assert u.element(4) == 5


def test_json_prefix_past_the_materialize_limit_is_refused_unread():
    evens = IndexSet.evens()
    with pytest.raises(
        sl.SizeLimitError,
        match=rf"^refusing to materialize {MATERIALIZE_LIMIT + 1} elements \(limit {MATERIALIZE_LIMIT}\)$",
    ):
        evens.to_json_obj(MATERIALIZE_LIMIT + 1)
    assert evens.prefix(1) == (2,) and len(evens._cache) == 1  # nothing was read
    assert evens.to_json_obj(MATERIALIZE_LIMIT)["prefix"][-1] == 2 * MATERIALIZE_LIMIT


def test_contains():
    evens = IndexSet.evens()
    assert evens.contains(8) and not evens.contains(7)
    m = IndexSet.explicit([2, 9])
    assert m.contains(9) and not m.contains(10)


def rand_rule_tree(rng, depth=3):
    """A random IndexSet built from explicit, arith, interval-backed, double,
    doubleodd and (nested) union rules, with a brute force for it: the sorted
    list of its elements <= bound, and whether the set is finite."""
    leaves = ["explicit", "arith", "intervals"]
    kind = rng.choice(leaves + ["double", "doubleodd", "union"] if depth else leaves)
    if kind == "explicit":
        n = rng.randint(0, 8)
        xs = rand_prefix(rng, length=n) if n else []
        return IndexSet.explicit(xs), lambda b: [x for x in xs if x <= b], True
    if kind == "intervals":
        ivs, hi = [], 0
        for _ in range(rng.randint(0, 4)):
            lo = hi + rng.randint(1, 6)
            hi = lo + rng.randint(0, 5)
            ivs.append((lo, hi))
        s = IntSet(ivs)
        return IndexSet.from_intset(s), lambda b: [x for x in s.iter_elements() if x <= b], True
    if kind == "arith":
        a, d = rng.randint(1, 4), rng.randint(1, 4)
        return IndexSet.arithmetic(a, d), lambda b: list(range(a, b + 1, d)), False
    base, ref, finite = rand_rule_tree(rng, depth - 1)
    if kind == "double":
        return IndexSet.doubled(base), lambda b: [2 * x for x in ref(b // 2)], finite
    if kind == "doubleodd":
        return IndexSet.doubled_minus_one(base), lambda b: [2 * x - 1 for x in ref((b + 1) // 2)], finite
    other, ref2, finite2 = rand_rule_tree(rng, depth - 1)
    union = IndexSet.union(base, other)
    return union, lambda b: sorted(set(ref(b)) | set(ref2(b))), finite and finite2


def test_elements_walks_random_rule_trees():
    rng = random.Random(101)
    bound = 60
    for _ in range(300):
        idx, ref, finite = rand_rule_tree(rng)
        want = ref(bound)
        assert list(islice(idx.elements(), len(want))) == want
        if want:
            assert idx.prefix(len(want)) == tuple(want)
        if finite:
            full = ref(10**9)
            assert list(idx.elements()) == full  # stops at the end, no raise
            assert list(idx.elements()) == full  # and again from the start
            with pytest.raises(sl.TruncationError):
                idx.element(len(full) + 1)
        for v in range(bound + 1):
            assert idx.contains(v) == (v in want)


def _first_truncated(idx) -> int:
    """The least j at which idx.element(j) raises TruncationError."""
    j = 1
    while True:
        try:
            idx.element(j)
        except sl.TruncationError:
            return j
        j += 1


_FINITE_SETS = {
    "explicit": lambda: IndexSet.explicit([2, 5, 9]),
    "empty": lambda: IndexSet.explicit([]),
    "intervals": lambda: IndexSet.from_intset(IntSet([(3, 5), (9, 9), (12, 13)])),
    "doubled": lambda: IndexSet.doubled(IndexSet.explicit([1, 4, 6, 7])),
    "doubled intervals": lambda: IndexSet.doubled_minus_one(
        IndexSet.from_intset(IntSet([(2, 4), (8, 8)]))),
    "union": lambda: IndexSet.union(IndexSet.explicit([1, 3]), IndexSet.explicit([2, 3, 5])),
    "limit short of its stream": lambda: IndexSet("short", [1, 2, 3, 4], limit=2),
}


@pytest.mark.parametrize("make", _FINITE_SETS.values(), ids=_FINITE_SETS.keys())
def test_elements_stops_where_element_raises(make):
    stop = _first_truncated(make())
    want = [make().element(j) for j in range(1, stop)]
    assert list(make().elements()) == want
    filled = make()  # a walk over a cache that element() already filled
    assert filled.prefix(stop - 1) == tuple(want)
    assert list(filled.elements()) == want
    walked = make()  # element() after a walk that ran to the end
    assert list(walked.elements()) == want
    with pytest.raises(sl.TruncationError):
        walked.element(stop)


@pytest.mark.parametrize("read", [lambda idx: idx.element(3), lambda idx: list(idx.elements()),
                                  lambda idx: list(IndexSet.doubled(idx).elements())],
                         ids=["element", "elements", "doubled"])
def test_a_non_increasing_stream_is_refused_by_every_reader(read):
    idx = IndexSet("bad", [1, 4, 4, 7])
    with pytest.raises(sl.InvalidInputError, match="^index set rule is not strictly increasing$"):
        read(idx)
    assert idx.prefix(2) == (1, 4)


def test_element_interleaved_with_a_live_walk_reads_the_same_values():
    rng = random.Random(109)
    for _ in range(200):
        idx, ref, _ = rand_rule_tree(rng)
        want = ref(60)
        got = []
        for j, e in enumerate(islice(idx.elements(), len(want)), start=1):
            ahead = min(len(want), j + rng.randint(0, 3))
            assert idx.element(ahead) == want[ahead - 1]
            got.append(e)
        assert got == want


def test_the_union_of_a_set_with_itself_is_the_set():
    rng = random.Random(113)
    for _ in range(200):
        idx, ref, finite = rand_rule_tree(rng)
        want = ref(60)
        u = IndexSet.union(idx, idx)
        assert list(islice(u.elements(), len(want))) == want
        assert u.prefix(len(want)) == idx.prefix(len(want)) == tuple(want)
        if finite:
            assert list(u.elements()) == ref(10**6)


def test_prefix_of_length_zero_is_empty():
    for idx in (IndexSet.naturals(), IndexSet.explicit([]), IndexSet.explicit([2, 5])):
        assert idx.prefix(0) == ()
        assert idx.to_json_obj(0) == {"rule": idx.rule, "prefix": []}
    assert IndexSet.explicit([]).to_json_obj() == {"rule": "explicit", "prefix": []}
    with pytest.raises(sl.InvalidInputError, match="^index -1 must be >= 1$"):
        IndexSet.naturals().prefix(-1)


def test_elements_is_not_the_iteration_protocol():
    # a rule-backed set is infinite, so list(idx) and `x in idx` must fail
    # at once instead of walking forever
    with pytest.raises(TypeError):
        list(IndexSet.naturals())
    with pytest.raises(TypeError):
        3 in IndexSet.naturals()


def test_l_set_and_witness_offset_match_brute_force():
    rng = random.Random(103)
    part = sl.mpb_partition(6)
    top = part.n_max
    for _ in range(150):
        m_idx, m_ref, _ = rand_rule_tree(rng)
        n_idx, n_ref, _ = rand_rule_tree(rng)
        for through in range(top + 1):
            want = IntSet(iv for n in n_ref(through) for iv in part.j(n).intervals)
            got = sl.l_set(part, n_idx, through)
            assert got.materialized_limit == want.size
            if want:
                assert got.select(IntSet.interval(1, want.size)) == want
        l_n_size = sum(part.j(n).size for n in n_ref(top))
        for m in range(2, top + 1):
            if m not in m_ref(m) or m in n_ref(m):
                continue
            offset = sum(part.j(n).size for n in m_ref(m - 1))
            first = offset + part.f(m).size + 1
            want = IntSet.interval(first, first + part.g(m).size - 1)
            if want.max > l_n_size:
                with pytest.raises(sl.TruncationError):
                    sl.divergence_witness(part, m_idx, n_idx, m)
            else:
                assert sl.divergence_witness(part, m_idx, n_idx, m) == want


def _outcome(fn):
    try:
        return fn()
    except sl.TruncationError:
        return "truncated"


def test_divergence_certificates_certify_the_ms_contains_selects():
    part = sl.mpb_partition(6)
    certified = 0
    for case in range(150):
        # fresh copies of one (M, N) pair per call, so no call reads a cache another filled
        pair = lambda: (rand_rule_tree(random.Random(2 * case))[0],
                        rand_rule_tree(random.Random(2 * case + 1))[0])
        for window in range(part.n_max + 1):
            m_idx, n_idx = pair()
            got = _outcome(lambda: sl.divergence_certificates(part, m_idx, n_idx, window))
            m_ref, n_ref = pair()
            ms = [m for m in range(2, window + 1) if m_ref.contains(m) and not n_ref.contains(m)]
            want = _outcome(lambda: [(m, sl.divergence_witness(part, *pair(), m)) for m in ms])
            assert got == want, (case, window)
            certified += len(got) if got != "truncated" else 0
    assert certified > 100


def test_parse_index_rule():
    assert sl.parse_index_rule("even").prefix(2) == (2, 4)
    assert sl.parse_index_rule("all").prefix(2) == (1, 2)
    assert sl.parse_index_rule("odd").prefix(2) == (1, 3)
    assert sl.parse_index_rule("arith:5:3").prefix(2) == (5, 8)
    assert sl.parse_index_rule("[2, 3, 10]").prefix(3) == (2, 3, 10)
    assert sl.parse_index_rule("double:even").prefix(2) == (4, 8)
    assert sl.parse_index_rule("union:even;odd").prefix(4) == (1, 2, 3, 4)
    for bad in ("nope", "arith:1", "[1, 1.5]"):
        with pytest.raises(sl.InvalidInputError):
            sl.parse_index_rule(bad)


# -- truncated index -------------------------------------------------------------


def test_gl_index_identity_is_one():
    rng = random.Random(2)
    for _ in range(10):
        m = IndexSet.explicit(rand_prefix(rng))
        r = sl.gl_index_truncated(m, m, 10)
        assert r.value == 1
        assert not r.witness.is_empty


def test_gl_index_spread_gives_one():
    # if A is a spread of B then every admissible selection of B pulls back
    # to an admissible selection of A, so the index of (A, B) is 1
    rng = random.Random(3)
    for _ in range(20):
        b = IndexSet.explicit(rand_prefix(rng))
        vals = []
        for e in b.prefix(14):
            nxt = e + rng.randint(0, 3)
            if vals and nxt <= vals[-1]:
                nxt = vals[-1] + 1
            vals.append(nxt)
        a = IndexSet.explicit(vals)
        assert is_spread(b.prefix(12), a.prefix(12))
        assert sl.gl_index_truncated(a, b, 12).value == 1


def test_gl_index_known_small_case():
    # M = naturals, N = 5,10,15,...: J = {1..5} selects {1..5} from M with
    # covering number 3 while N(J) = {5,...,25} stays Schreier
    m = IndexSet.naturals()
    n = IndexSet.arithmetic(5, 5)
    r = sl.gl_index_truncated(m, n, 8)
    assert r.value >= 3
    assert sl.tau1(m.select(r.witness))[0] == r.value
    assert sl.is_schreier(n.select(r.witness))


def test_gl_index_witness_contract():
    rng = random.Random(5)
    for _ in range(15):
        m = IndexSet.explicit(rand_prefix(rng))
        n = IndexSet.explicit(rand_prefix(rng))
        k = rng.randint(1, 10)
        r = sl.gl_index_truncated(m, n, k)
        assert r.k == k
        if not r.witness.is_empty:
            assert r.witness.max <= k
            assert sl.is_schreier(n.select(r.witness))
            assert sl.tau1(m.select(r.witness))[0] == r.value


def test_tau1_monotone_under_selection():
    # J subset of J' with N(J') Schreier: tau1(M(J)) <= tau1(M(J')), which is
    # what justifies searching only maximal selections
    rng = random.Random(41)
    for _ in range(40):
        m = IndexSet.explicit(rand_prefix(rng))
        n = IndexSet.explicit(rand_prefix(rng))
        k = 10
        nprefix = n.prefix(k)
        j1 = rng.randint(1, k)
        cap = min(nprefix[j1 - 1], k - j1 + 1)
        big = [j1] + sorted(rng.sample(range(j1 + 1, k + 1), cap - 1))
        small = sorted(rng.sample(big, rng.randint(1, len(big))))
        assert sl.is_schreier(n.select(big))
        t_small, _ = sl.tau1(m.select(small))
        t_big, _ = sl.tau1(m.select(big))
        assert t_small <= t_big


def test_window_selection_is_dominated_by_spreads():
    # every J with minimum j1 and |J| = cap has j_i >= j1 + i - 1, so M(J) is
    # a spread of M(window) and cannot have a larger tau1: the window
    # {j1..j1+cap-1} is optimal for j1
    from itertools import combinations as combos

    rng = random.Random(43)
    for _ in range(60):
        m, n = rand_index_set(rng, 10), rand_index_set(rng, 10)
        k = rng.randint(1, 10)
        j1 = rng.randint(1, k)
        cap = min(n.element(j1), k - j1 + 1)
        window = m.select(IntSet.interval(j1, j1 + cap - 1))
        t_window, _ = sl.tau1(window)
        for rest in combos(range(j1 + 1, k + 1), cap - 1):
            chosen = m.select((j1,) + rest)
            assert is_spread(window.to_list(), chosen.to_list())
            assert sl.tau1(chosen)[0] <= t_window


def test_gl_index_monotone_in_k():
    rng = random.Random(7)
    for _ in range(10):
        m = IndexSet.explicit(rand_prefix(rng))
        n = IndexSet.explicit(rand_prefix(rng))
        values = [sl.gl_index_truncated(m, n, k).value for k in range(1, 13)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_gl_index_doubling_ensemble():
    rng = random.Random(11)
    for _ in range(30):
        m = IndexSet.explicit(rand_prefix(rng))
        m1 = IndexSet.doubled_minus_one(m)
        m2 = IndexSet.doubled(m)
        u = IndexSet.union(m1, m2)
        assert sl.gl_index_truncated(m, u, 12).value <= 3
        assert sl.gl_index_truncated(u, m, 12).value <= 2
        assert sl.gl_index_truncated(m2, m, 12).value == 1
        assert sl.gl_index_truncated(m2, m1, 12).value == 1
        assert sl.gl_index_truncated(m, m2, 12).value <= 2
        assert sl.gl_index_truncated(m1, m2, 12).value <= 2


def test_gl_index_determinism():
    m = IndexSet.naturals()
    n = IndexSet.evens()
    a = sl.gl_index_truncated(m, n, 10)
    b = sl.gl_index_truncated(IndexSet.naturals(), IndexSet.evens(), 10)
    assert a == b


def test_gl_index_large_k_witness():
    # no timing bound: an exponential search does not finish at K=400
    m, n = IndexSet.naturals(), IndexSet.evens()
    r = sl.gl_index_truncated(m, n, 400)
    assert r.k == 400 and r.witness.max <= 400
    assert sl.is_schreier(n.select(r.witness))
    assert sl.tau1(m.select(r.witness))[0] == r.value


def test_gl_index_validation():
    with pytest.raises(sl.InvalidInputError):
        sl.gl_index_truncated(IndexSet.naturals(), IndexSet.evens(), 0)
    with pytest.raises(sl.TruncationError):
        sl.gl_index_truncated(IndexSet.explicit([1, 2]), IndexSet.evens(), 5)


# -- domination -------------------------------------------------------------------


def test_domination_constant_examples():
    # the chain-norm constant is the truncated index, the Schreier one its
    # p-th root, so both are 1 exactly when the index is
    m = IndexSet.explicit(rand_prefix(random.Random(13)))
    assert sl.gl_index_truncated(m, m, 10).value == 1
    n = IndexSet.union(m, IndexSet.doubled(m))
    # N a spread of M ∪ N forces constant 1
    assert sl.gl_index_truncated(IndexSet.doubled(m), n, 10).value >= 1
    m2 = IndexSet.doubled(m)
    assert sl.gl_index_truncated(m, m2, 12).value <= 2


def test_check_domination_unit_coefficient():
    m = IndexSet.naturals()
    n = IndexSet.evens()
    r = sl.check_domination(m, n, sl.gl_index_truncated(m, n, 6), 2, "sp", [1])
    assert r.holds and r.lhs == 1.0


def test_check_domination_identical_sets():
    m = IndexSet.explicit(rand_prefix(random.Random(17)))
    rng = random.Random(19)
    index = sl.gl_index_truncated(m, m, 10)
    for _ in range(10):
        coeffs = [rng.randint(-4, 4) for _ in range(8)]
        r = sl.check_domination(m, m, index, 2, "bp", coeffs)
        assert r.holds
        assert r.lhs == pytest.approx(r.rhs / 1.0)


def test_check_domination_random_batches():
    rng = random.Random(23)
    for _ in range(15):
        m = IndexSet.explicit(rand_prefix(rng))
        n = IndexSet.explicit(rand_prefix(rng))
        index = sl.gl_index_truncated(m, n, 12)
        for p, space in ((1, "sp"), (2, "sp"), (2, "bp"), (3, "bp")):
            for _ in range(5):
                coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 12))]
                assert sl.check_domination(m, n, index, p, space, coeffs).holds


def test_check_domination_validates_length():
    m = IndexSet.naturals()
    with pytest.raises(sl.TruncationError):
        sl.check_domination(m, m, sl.gl_index_truncated(m, m, 3), 2, "sp", [1, 1, 1, 1])


def test_gl_index_value_matches_unrestricted_brute_force():
    # independent reference: brute force over every feasible J (any subset of
    # 1..K with N(J) Schreier) gives the value; the witness is the
    # lexicographically smallest J with |J| = min(n_{min J}, K - min J + 1)
    # attaining it
    from itertools import combinations as combos

    rng = random.Random(47)
    for _ in range(40):
        m, n = rand_index_set(rng, 10), rand_index_set(rng, 10)
        k = rng.randint(1, 9)
        feasible = [
            j_sel
            for r in range(1, k + 1)
            for j_sel in combos(range(1, k + 1), r)
            if sl.is_schreier(n.select(j_sel))
        ]
        brute = max(sl.tau1(m.select(j_sel))[0] for j_sel in feasible)
        witness = min(
            j_sel
            for j_sel in feasible
            if len(j_sel) == min(n.element(j_sel[0]), k - j_sel[0] + 1)
            and sl.tau1(m.select(j_sel))[0] == brute
        )
        r = sl.gl_index_truncated(m, n, k)
        assert r.value == brute
        assert r.witness == IntSet.from_iterable(witness)
