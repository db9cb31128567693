import math
import random
from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

import schreierlab as sl
import schreierlab.schreier as sch
from schreierlab import IntSet
from schreierlab.intset import covers, successive
from schreierlab.schreier import _tau1_count_sorted


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


# -- predicates ---------------------------------------------------------------


def test_is_schreier_examples():
    assert sl.is_schreier([]) is True
    assert sl.is_schreier([1, 2]) is False
    assert sl.is_schreier([3, 5, 9]) is True
    assert sl.is_schreier([1]) is True
    assert sl.is_schreier([2, 3, 4]) is False


def test_is_schreier_rejects_nonpositive():
    with pytest.raises(sl.InvalidInputError):
        sl.is_schreier([0, 1])
    with pytest.raises(sl.InvalidInputError):
        sl.is_schreier([-3])


def test_is_maximal_examples():
    assert sl.is_maximal_schreier([1]) is True
    assert sl.is_maximal_schreier([3, 4, 5]) is True
    assert sl.is_maximal_schreier([3, 4]) is False
    assert sl.is_maximal_schreier([]) is False
    with pytest.raises(sl.InvalidInputError):
        sl.is_maximal_schreier([1, 2])  # not admissible


def is_spread(f, g) -> bool:
    """G is a spread of F: same size and f_i <= g_i elementwise."""
    return len(f) == len(g) and all(a <= b for a, b in zip(f, g))


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=m - 1)
            if m > 1
            else st.just([]),
        )
    ),
    st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=10),
)
def test_spread_preserves_admissibility(min_and_gaps, bumps):
    m, gaps = min_and_gaps
    f = [m]
    for g in gaps:
        f.append(f[-1] + 1 + g)
    f = f[: max(1, min(len(f), m))]  # keep |F| <= min F
    assert sl.is_schreier(f)
    g_set = []
    prev = 0
    for i, e in enumerate(f):
        b = bumps[i] if i < len(bumps) else 0
        val = max(e + b, prev + 1)
        g_set.append(val)
        prev = val
    if is_spread(f, g_set):
        assert sl.is_schreier(g_set)


# -- enumeration --------------------------------------------------------------


def test_enumerate_schreier_subsets_examples():
    got = [s.to_list() for s in sl.enumerate_schreier_subsets([1, 2])]
    assert got == [[], [1], [2]]
    assert [s.to_list() for s in sl.enumerate_schreier_subsets([])] == [[]]
    got = {tuple(s.to_list()) for s in sl.enumerate_schreier_subsets([2, 3])}
    assert got == {(), (2,), (3,), (2, 3)}


def test_enumerate_schreier_subsets_unique_and_admissible():
    seen = set()
    for s in sl.enumerate_schreier_subsets([1, 2, 3, 5, 8]):
        key = tuple(s.to_list())
        assert key not in seen
        seen.add(key)
        assert sl.is_schreier(s)
    # direct count: all admissible subsets of the ground set
    expect = sum(
        1
        for sub in powerset([1, 2, 3, 5, 8])
        if not sub or len(sub) <= min(sub)
    )
    assert len(seen) == expect


def test_enumerate_chains_small_catalog():
    chains = [c.to_lists() for c in sl.enumerate_chains([1, 2, 3])]
    assert len(chains) == 9
    expect = [
        [[1]],
        [[1], [2]],
        [[1], [2], [3]],
        [[1], [2, 3]],
        [[1], [3]],
        [[2]],
        [[2], [3]],
        [[2, 3]],
        [[3]],
    ]
    assert sorted(chains) == sorted(expect)
    assert len(set(map(str, chains))) == 9


def test_enumerate_chains_edge_cases():
    assert [c.to_lists() for c in sl.enumerate_chains([1])] == [[[1]]]
    assert list(sl.enumerate_chains([])) == []


def test_enumeration_respects_oracle_bound():
    with pytest.raises(sl.OracleLimitError):
        list(sl.enumerate_schreier_subsets(range(1, 30)))
    with pytest.raises(sl.OracleLimitError):
        list(sl.enumerate_chains(range(1, 30)))
    with pytest.raises(sl.OracleLimitError):
        sl.tau1_oracle(range(1, 30))


def test_oracle_bound_env_override(monkeypatch):
    monkeypatch.setenv("SCHREIER_LAB_ORACLE_BOUND", "4")
    assert sl.oracle_bound() == 4
    with pytest.raises(sl.OracleLimitError):
        sl.tau1_oracle([1, 2, 3, 4, 5])
    monkeypatch.setenv("SCHREIER_LAB_ORACLE_BOUND", "junk")
    with pytest.raises(sl.InvalidInputError):
        sl.oracle_bound()


# -- chains -------------------------------------------------------------------


def test_maximal_chain_from_examples():
    assert sl.maximal_chain_from(1, 1).to_lists() == [[1]]
    assert sl.maximal_chain_from(3, 2).to_lists() == [[3, 4, 5], [6, 7, 8, 9, 10, 11]]
    assert sl.maximal_chain_from(2, 1).to_lists() == [[2, 3]]


def test_maximal_chain_blocks_are_maximal_and_successive():
    ch = sl.maximal_chain_from(5, 6)
    for block in ch:
        assert sl.is_maximal_schreier(block)
    for a, b in zip(ch, ch.sets[1:]):
        assert a.max < b.min


def test_chain_validation():
    with pytest.raises(sl.InvalidInputError):
        sl.SchreierChain([])
    with pytest.raises(sl.InvalidInputError):
        sl.SchreierChain([[1, 2]])  # not admissible
    with pytest.raises(sl.InvalidInputError):
        sl.SchreierChain([[3, 4], [4, 5]])  # not successive
    with pytest.raises(sl.InvalidInputError):
        sl.SchreierChain([[2, 3], []])  # empty block


# -- tau1 ---------------------------------------------------------------------


def test_tau1_examples():
    count, cert = sl.tau1([])
    assert count == 0 and cert.verify()
    count, cert = sl.tau1([1, 2, 3])
    assert count == 2
    assert cert.verify()
    assert [b.to_list() for b in cert.chain] == [[1], [2, 3]]


def test_tau1_of_maximal_set_is_one():
    for f in ([1], [3, 4, 5], [2, 7]):
        count, _ = sl.tau1(f)
        assert count == 1


def test_tau1_of_maximal_chain_union():
    for s, n in ((1, 4), (3, 3), (5, 5)):
        ch = sl.maximal_chain_from(s, n)
        count, cert = sl.tau1(ch.union())
        assert count == n
        assert cert.verify()


def test_tau1_oracle_examples():
    assert sl.tau1_oracle([2, 3]) == 1
    assert sl.tau1_oracle([1, 2, 3]) == 2
    assert sl.tau1_oracle([1, 2, 3, 4, 5]) == 3
    assert sl.tau1([1, 2, 3, 4, 5, 6])[0] == sl.tau1_oracle([1, 2, 3, 4, 5, 6])


def test_tau1_matches_oracle_exhaustively_to_9():
    for sub in powerset(range(1, 10)):
        count, cert = sl.tau1(sub)
        assert count == sl.tau1_oracle(sub), sub
        assert cert.verify(), sub


def test_tau1_three_way_against_literal_chain_minimum():
    # the DP oracle and the greedy both agree with a brute minimum over
    # every covering chain enumerated from the chain space itself
    for sub in powerset(range(1, 8)):
        if not sub:
            continue
        target = IntSet.from_iterable(sub)
        best = min(
            (len(c) for c in sl.enumerate_chains(sub) if target.issubset(c.union())),
            default=None,
        )
        assert best == sl.tau1_oracle(sub) == sl.tau1(sub)[0], sub


def test_tau1_monotone_under_subsets():
    rng = random.Random(7)
    for _ in range(200):
        b = sorted(rng.sample(range(1, 13), rng.randint(1, 9)))
        a = sorted(rng.sample(b, rng.randint(0, len(b))))
        assert sl.tau1(a)[0] <= sl.tau1(b)[0]


def test_tau1_certificate_structure():
    rng = random.Random(11)
    for _ in range(100):
        a = sorted(rng.sample(range(1, 14), rng.randint(1, 10)))
        count, cert = sl.tau1(a)
        assert cert.count == count == len(cert.chain)
        assert cert.verify()
        # all blocks live inside A and all but the last are maximal
        for i, block in enumerate(cert.chain):
            assert block.issubset(IntSet.from_iterable(a))
            if i < len(cert.chain) - 1:
                assert sl.is_maximal_schreier(block)


def test_tau1_huge_interval_set():
    # greedy works on interval sets far beyond materialization size
    big = IntSet.interval(10, 10 * 2**30 - 1)
    count, cert = sl.tau1(big)
    assert count == 30
    assert cert.verify()


def _union_verify(cert):
    """CoveringCertificate.verify as it was before the coverage walk: the same
    block checks, then coverage through the union IntSet: each covered interval
    lies inside one interval of the normalized union."""
    for i, block in enumerate(cert.chain):
        if block.is_empty or block.size > block.min:
            return False
        if i and not block.min > cert.chain[i - 1].max:
            return False
        if i < len(cert.chain) - 1 and block.size != block.min:
            return False
    union = IntSet(iv for block in cert.chain for iv in block.intervals)
    return all(
        any(a <= lo and hi <= b for a, b in union.intervals) for lo, hi in cert.covered.intervals
    )


def _cert(chain, covered):
    return sl.CoveringCertificate(
        tuple(IntSet.from_iterable(b) for b in chain), IntSet.from_iterable(covered)
    )


@pytest.mark.parametrize(
    "chain, covered",
    [
        ([[1], [2, 3], [4, 5, 6, 7]], [1, 2, 3, 4, 5, 6, 7]),  # as tau1 gives it
        ([[1], [2, 3], [4, 5, 6, 7]], [2, 3, 4, 5, 6, 7]),  # a point left uncovered
        ([[2, 3], [4, 5, 6, 7]], [3, 4]),  # one interval across two blocks
        ([[2, 3], [5, 6, 7, 8, 9]], [2, 3, 6, 9]),  # covered points skip the gap
        ([[1], [2, 3]], []),
    ],
)
def test_certificate_verify_accepts(chain, covered):
    cert = _cert(chain, covered)
    assert cert.verify() and _union_verify(cert)


@pytest.mark.parametrize(
    "chain, covered",
    [
        ([[1], [4, 5, 6, 7]], [1, 2, 3, 4]),  # the middle block [2, 3] dropped
        ([[1], [2, 3]], [1, 2, 3, 4]),  # a covered point past the last block
        ([[2, 3], [5, 6, 7, 8, 9]], [3, 4, 5]),  # a covered point in the gap
        ([[3, 4, 6]], [3, 5]),  # 5 is inside the block's span but not in it
        ([[3, 4], [5, 6, 7, 8, 9]], [3, 4, 5]),  # inner block [3, 4] not maximal
        ([[2, 3], [1]], [1, 2, 3]),  # not successive
        ([[2, 3], [3]], [2, 3]),  # not successive: they share 3
        ([[1], [], [2, 3]], [1, 2, 3]),  # an empty block
        ([[2, 3, 4]], [2, 3, 4]),  # not Schreier
        ([], [1]),  # an empty chain with points to cover
    ],
)
def test_certificate_verify_rejects(chain, covered):
    cert = _cert(chain, covered)
    assert not cert.verify() and not _union_verify(cert)


def test_certificate_verify_matches_union_check_on_mutations():
    rng = random.Random(17)
    outcomes = []
    for _ in range(400):
        s = _random_interval_set(rng, rng.randint(1, 12), rng.choice((60, 400, 2**40)))
        chain, covered = list(sl.tau1(s)[1].chain), s
        op = rng.randrange(5)
        if op == 0:
            del chain[rng.randrange(len(chain))]
        elif op == 1:
            top = s.max + rng.randint(1, 3)
            covered = s.union(IntSet.interval(rng.randint(s.min, top), top))
        elif op == 2:  # move the last point of one block to just after it
            j = rng.randrange(len(chain))
            b = chain[j]
            chain[j] = b.first_k(b.size - 1).union(IntSet.interval(b.max + 1, b.max + 1))
        elif op == 3 and len(chain) > 1:
            j = rng.randrange(len(chain) - 1)
            chain[j], chain[j + 1] = chain[j + 1], chain[j]
        elif op == 4:  # drop covered points, which keeps coverage
            covered = s.first_k(rng.randint(0, s.size))
        cert = sl.CoveringCertificate(tuple(chain), covered)
        outcomes.append(cert.verify())
        assert outcomes[-1] == _union_verify(cert), (chain, covered)
    assert 50 < sum(outcomes) < 350  # both outcomes are exercised


def _walk_verify(cert):
    """CoveringCertificate.verify before the tuple comparison: the same block
    checks, then one `covers` merge walk over the blocks' intervals."""
    for i, block in enumerate(cert.chain):
        if block.is_empty or block.size > block.min:
            return False
        if i and not successive(cert.chain[i - 1], block):
            return False
        if i < len(cert.chain) - 1 and block.size != block.min:
            return False
    return covers((iv for block in cert.chain for iv in block.intervals),
                  cert.covered.intervals)


def _no_walk(*_):
    raise AssertionError("the covers walk ran")


@pytest.mark.parametrize(
    "chain, covered, want, walks",
    [
        # the union [2, 7] strictly contains [3, 4]: only the walk can accept
        ([[2, 3], [4, 5, 6, 7]], [3, 4], True, True),
        # 4 is missing where the blocks [2, 3] and [5..9] meet
        ([[2, 3], [5, 6, 7, 8, 9]], [2, 3, 4, 5, 6, 7, 8, 9], False, True),
        # a block boundary splits the covered interval [1, 7] three ways
        ([[1], [2, 3], [4, 5, 6, 7]], [1, 2, 3, 4, 5, 6, 7], True, False),
        # boundaries that split one interval of a set with gaps
        ([[3, 4, 9], [10, 11, 12, 20, 21, 22, 23, 24]], [3, 4, 9, 10, 11, 12, 20, 21, 22, 23, 24],
         True, False),
        ([], [], True, False),
    ],
)
def test_certificate_verify_compares_the_joined_blocks_once(monkeypatch, chain, covered,
                                                            want, walks):
    cert = _cert(chain, covered)
    assert _walk_verify(cert) == want
    if not walks:
        monkeypatch.setattr(sch, "covers", _no_walk)
    assert cert.verify() == want


def test_tau1_certificates_verify_without_the_walk(monkeypatch):
    monkeypatch.setattr(sch, "covers", _no_walk)
    rng = random.Random(23)
    for _ in range(200):
        s = _random_interval_set(rng, rng.randint(1, 25), rng.choice((60, 400, 2**40)))
        assert sl.tau1(s)[1].verify()
    assert sl.tau1(sl.EMPTY)[1].verify()


def test_certificate_verify_matches_the_walk_on_perturbed_tau1_certificates():
    rng = random.Random(29)
    outcomes = []
    for _ in range(600):
        s = _random_interval_set(rng, rng.randint(1, 25), rng.choice((60, 400, 2**40)))
        chain, covered = list(sl.tau1(s)[1].chain), s
        j = rng.randrange(len(chain))
        b = chain[j]
        op = rng.randrange(4)
        if op == 0:  # drop a point of one block
            point = b._at(rng.randint(1, b.size))
            chain[j] = IntSet(iv for iv in b.intervals for iv in _cut(iv, point))
        elif op == 1:  # drop a covered point
            point = s._at(rng.randint(1, s.size))
            covered = IntSet(iv for iv in s.intervals for iv in _cut(iv, point))
        else:  # shift one block by one point either way
            d = 1 if op == 2 else -1
            chain[j] = IntSet((lo + d, hi + d) for lo, hi in b.intervals if lo + d >= 1)
        cert = sl.CoveringCertificate(tuple(chain), covered)
        outcomes.append(cert.verify())
        assert outcomes[-1] == _walk_verify(cert), (chain, covered)
    assert 100 < sum(outcomes) < 500  # both outcomes are exercised


def _cut(iv, point):
    """The interval iv without the point."""
    lo, hi = iv
    if not lo <= point <= hi:
        return [iv]
    return [(a, b) for a, b in ((lo, point - 1), (point + 1, hi)) if a <= b]


def _first_k(ivs, k):
    out = []
    for lo, hi in ivs:
        if k == 0:
            break
        take = min(hi - lo + 1, k)
        out.append((lo, lo + take - 1))
        k -= take
    return out


def _drop_first(ivs, k):
    out = []
    for lo, hi in ivs:
        n = hi - lo + 1
        if k >= n:
            k -= n
            continue
        out.append((lo + k, hi))
        k = 0
    return out


def _reference_tau1_blocks(s):
    """The greedy cut on interval lists, walking the remainder block by block."""
    blocks = []
    rest = list(s.intervals)
    while rest:
        k = min(rest[0][0], sum(hi - lo + 1 for lo, hi in rest))
        blocks.append(IntSet(_first_k(rest, k)))
        rest = _drop_first(rest, k)
    return blocks


def _random_interval_set(rng, intervals, top):
    points = sorted(rng.sample(range(1, top), 2 * intervals))
    return IntSet(zip(points[::2], points[1::2]))


@pytest.mark.parametrize(
    "intervals, top", [(3, 40), (20, 500), (2000, 10**6), (3000, 2**53), (4000, 10**18)]
)
def test_tau1_blocks_match_reference_greedy(intervals, top):
    rng = random.Random(intervals)
    for _ in range(5 if intervals > 100 else 200):
        n = rng.randint(max(1, intervals // 2), intervals)
        s = _random_interval_set(rng, n, top)
        count, cert = sl.tau1(s)
        assert list(cert.chain) == _reference_tau1_blocks(s)
        assert count == len(cert.chain)


def reference_cursor_tau1(s):
    """tau1's blocks as the forward cursor cut them before ordinal bisection:
    one pass over the intervals with (interval index i, least uncovered x)."""
    blocks = []
    ivs, i = s.intervals, 0
    x, left = (ivs[0][0] if ivs else 0), s.size
    while left:
        k = min(x, left)
        left -= k
        part = []
        while k:
            hi = min(ivs[i][1], x + k - 1)
            part.append((x, hi))
            k -= hi - x + 1
            if hi == ivs[i][1]:
                i += 1
                x = ivs[i][0] if i < len(ivs) else 0
            else:
                x = hi + 1
        blocks.append(IntSet(part))
    return blocks


def _random_far_set(rng, intervals, top):
    """`intervals` intervals with log-uniform endpoints below `top`."""
    points = set()
    while len(points) < 2 * intervals:
        points.add(int(math.exp(rng.uniform(0.0, math.log(top)))))
    ends = sorted(points)
    return IntSet(zip(ends[::2], ends[1::2]))


@pytest.mark.parametrize("intervals", [1, 10, 300, 5000])
def test_tau1_blocks_match_the_cursor_tau1(intervals):
    rng = random.Random(intervals)
    for _ in range(40 if intervals < 5000 else 3):
        s = _random_far_set(rng, intervals, rng.choice((2**20, 2**52, 2**70)))
        count, cert = sl.tau1(s)
        assert list(cert.chain) == reference_cursor_tau1(s)
        assert count == len(cert.chain) and cert.verify()
        assert [b.size for b in cert.chain] == [IntSet(b.intervals).size for b in cert.chain]


def test_tau1_past_2_64_points():
    count, cert = sl.tau1(IntSet.interval(1, 2**64))
    assert count == 65 and cert.verify()
    assert cert.chain[-2] == IntSet.interval(2**63, 2**64 - 1)
    assert cert.chain[-1] == IntSet.interval(2**64, 2**64)


def test_tau1_count_sorted_fast_path():
    """The in-place count over elems[lo:hi] is tau1 of that slice."""
    rng = random.Random(3)
    for _ in range(300):
        a = tuple(sorted(rng.sample(range(1, 15), rng.randint(1, 11))))
        lo = rng.randint(0, len(a) - 1)
        hi = rng.randint(lo + 1, len(a))
        assert _tau1_count_sorted(a, lo, hi) == sl.tau1(a[lo:hi])[0]
        assert _tau1_count_sorted(a, 0, len(a)) == sl.tau1(a)[0]
        assert _tau1_count_sorted(a, hi, hi) == 0


def test_tau1_rejects_bad_input():
    with pytest.raises(sl.InvalidInputError):
        sl.tau1([0, 2])
