import random
from itertools import accumulate

import pytest
from hypothesis import example, given, strategies as st

from schreierlab import IntSet, InvalidInputError, SizeLimitError
from schreierlab.intset import EMPTY, as_intset, covers, successive


def test_from_iterable_compresses_runs():
    s = IntSet.from_iterable([5, 3, 4, 9, 1])
    assert s.intervals == ((1, 1), (3, 5), (9, 9))
    assert s.size == 5
    assert s.min == 1 and s.max == 9


def test_constructor_merges_overlaps_and_adjacent():
    s = IntSet([(1, 3), (4, 6), (10, 12), (11, 15)])
    assert s.intervals == ((1, 6), (10, 15))


def test_empty_set():
    assert EMPTY.size == 0
    assert EMPTY.is_empty
    assert not EMPTY
    with pytest.raises(InvalidInputError):
        _ = EMPTY.min


def _element_at(s, o):
    return s.select_ordinals(IntSet.interval(o, o)).min


def test_membership_and_element_at():
    s = IntSet([(3, 5), (9, 9), (20, 22)])
    assert 4 in s and 9 in s and 22 in s
    assert 6 not in s and 1 not in s
    assert [_element_at(s, i) for i in range(1, s.size + 1)] == [3, 4, 5, 9, 20, 21, 22]
    with pytest.raises(InvalidInputError):
        _element_at(s, 8)
    with pytest.raises(InvalidInputError):
        _element_at(s, 0)


def test_first_and_drop():
    s = IntSet([(3, 5), (9, 9), (20, 22)])
    assert s.first_k(4) == IntSet([(3, 5), (9, 9)])
    assert s.select_ordinals(IntSet.interval(5, s.size)) == IntSet([(20, 22)])
    assert s.first_k(0) == EMPTY
    assert s.select_ordinals(IntSet.interval(1, s.size)) == s


def test_select_ordinals():
    s = IntSet([(3, 5), (9, 9), (20, 22)])
    assert s.select_ordinals(IntSet.interval(2, 5)) == IntSet.from_iterable([4, 5, 9, 20])
    assert s.select_ordinals(EMPTY) == EMPTY
    with pytest.raises(InvalidInputError):
        s.select_ordinals(IntSet.interval(1, 8))
    with pytest.raises(InvalidInputError):
        s.select_ordinals(IntSet([(0, 2)]))


def test_select_ordinals_huge_set_stays_cheap():
    s = IntSet.interval(1, 2**50)
    picked = s.select_ordinals(IntSet.interval(2**49, 2**49 + 2))
    assert picked == IntSet.interval(2**49, 2**49 + 2)


small_sets = st.lists(
    st.tuples(st.integers(-20, 60), st.integers(0, 6)), min_size=1, max_size=8
).map(lambda ivs: IntSet((lo, lo + w) for lo, w in ivs))


def _assert_normalized(r, size):
    # the invariant the trusted constructor relies on: re-normalizing changes nothing
    assert IntSet(r.intervals) == r and IntSet(r.intervals).size == r.size == size


@given(small_sets, st.sampled_from([0, 2**63 - 30, 2**64]), st.data())
def test_ordinal_ops_match_list_indexing(s, shift, data):
    s = IntSet((lo + shift, hi + shift) for lo, hi in s.intervals)
    elems = s.to_list()
    n = len(elems)
    k = data.draw(st.integers(0, n))
    assert [s._at(o) for o in range(1, n + 1)] == elems
    assert [_element_at(s, o) for o in range(1, n + 1)] == elems
    o1 = data.draw(st.integers(1, n))
    o2 = data.draw(st.integers(o1, n))
    piece = s._slice(o1, o2)
    assert IntSet(piece).intervals == piece and IntSet(piece).to_list() == elems[o1 - 1 : o2]
    assert s.first_k(k) == IntSet.from_iterable(elems[:k])
    _assert_normalized(s.first_k(k), k)
    if k < n:
        assert s.select_ordinals(IntSet.interval(k + 1, n)) == IntSet.from_iterable(elems[k:])
    ords = IntSet.from_iterable(data.draw(st.sets(st.integers(1, n))))
    picked = s.select_ordinals(ords)
    assert picked == IntSet.from_iterable(elems[o - 1] for o in ords.iter_elements())
    _assert_normalized(picked, ords.size)


def _walk_at(ivs, o):
    """The o-th element (1-based), walking from the first interval."""
    for lo, hi in ivs:
        if o <= hi - lo + 1:
            return lo + o - 1
        o -= hi - lo + 1
    raise IndexError(o)


def _laid_out(gaps_and_widths):
    ivs, hi = [], 0
    for gap, width in gaps_and_widths:
        lo = hi + gap
        hi = lo + width
        ivs.append((lo, hi))
    return IntSet(ivs)


# sizes and elements both reach far past 2^63
far_sets = st.lists(
    st.tuples(st.integers(1, 2**64), st.integers(0, 2**64)), min_size=1, max_size=6
).map(_laid_out)


@given(far_sets, st.data())
def test_ordinal_ops_past_2_63_points(s, data):
    n = s.size
    ords = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6).map(sorted))
    ends = [_walk_at(s.intervals, o) for o in ords]
    assert [s._at(o) for o in ords] == ends
    o1, o2 = ords[0], ords[-1]
    piece = IntSet._of(s._slice(o1, o2), o2 - o1 + 1)
    _assert_normalized(piece, o2 - o1 + 1)
    assert piece.min == ends[0] and piece.max == ends[-1] and piece.issubset(s)
    assert s.first_k(o1) == s.select_ordinals(IntSet.interval(1, o1))
    _assert_normalized(s.first_k(o1), o1)
    picked = s.select_ordinals(IntSet.from_iterable(ords))
    assert picked == IntSet.from_iterable(ends)
    _assert_normalized(picked, len(set(ords)))


def test_ordinal_ops_past_2_50_at_both_ends():
    lo, hi = 2**50, 2**52
    s = IntSet([(3, 5), (lo, lo + 9), (hi - 4, hi)])
    n = s.size
    assert n == 3 + 10 + 5
    assert _element_at(s, 1) == 3 and _element_at(s, 4) == lo and _element_at(s, n) == hi
    assert s.first_k(5) == IntSet([(3, 5), (lo, lo + 1)])
    assert s.select_ordinals(IntSet.interval(13, n)) == IntSet([(lo + 9, lo + 9), (hi - 4, hi)])
    picked = s.select_ordinals(IntSet([(2, 3), (13, 14), (n, n)]))
    assert picked == IntSet([(4, 5), (lo + 9, lo + 9), (hi - 4, hi - 4), (hi, hi)])
    huge = IntSet([(1, 2**51), (2**52, 2**53)])
    m = huge.size
    assert _element_at(huge, 2**51 + 1) == 2**52 and _element_at(huge, m) == 2**53
    assert huge.select_ordinals(IntSet.interval(m - 1, m)) == IntSet.interval(2**53 - 1, 2**53)
    assert huge.select_ordinals(IntSet([(1, 1), (2**51, 2**51 + 1), (m, m)])) == IntSet(
        [(1, 1), (2**51, 2**51), (2**52, 2**52), (2**53, 2**53)]
    )


def test_set_algebra():
    a = IntSet([(1, 5), (10, 12)])
    b = IntSet([(4, 10)])
    assert a.union(b) == IntSet([(1, 12)])
    assert IntSet([(4, 5)]).issubset(a)
    assert not b.issubset(a)


@given(small_sets, small_sets)
def test_issubset_matches_element_sets(a, b):
    assert a.issubset(b) == set(a.to_list()).issubset(b.to_list())
    assert a.issubset(a.union(b))
    assert EMPTY.issubset(a) and (a.issubset(EMPTY) == a.is_empty)


def test_covers_joins_adjacent_cover_intervals():
    # adjacent cover intervals, as successive chain blocks give them
    assert covers([(1, 3), (4, 6), (7, 7)], [(2, 7)])
    assert covers([(1, 3), (4, 6)], [(1, 1), (3, 4), (6, 6)])
    assert not covers([(1, 3), (5, 6)], [(2, 5)])  # 4 is missing
    assert not covers([(1, 3), (4, 6)], [(2, 7)])  # 7 is past the cover
    assert not covers([(2, 3)], [(1, 2)])  # 1 is before the cover
    assert not covers([], [(1, 1)]) and covers([], []) and covers([(1, 2)], [])


def test_materialize_guard():
    s = IntSet.interval(1, 10**7)
    with pytest.raises(SizeLimitError):
        s.to_list()
    assert IntSet.interval(1, 4).to_list() == [1, 2, 3, 4]


def test_as_intset_and_successive():
    assert as_intset([2, 1]) == IntSet([(1, 2)])
    assert successive(IntSet.interval(1, 3), IntSet.interval(4, 4))
    assert not successive(IntSet.interval(1, 4), IntSet.interval(4, 5))


def test_invalid_intervals():
    with pytest.raises(InvalidInputError):
        IntSet([(5, 3)])
    with pytest.raises(InvalidInputError):
        IntSet.from_iterable([1.5])  # type: ignore[list-item]


def _running_sizes(ivs):
    return list(accumulate(hi - lo + 1 for lo, hi in ivs))


@given(st.lists(st.tuples(st.integers(-30, 60), st.integers(0, 8)), max_size=10), st.data())
@example([(9, 2), (1, 3), (5, 0), (3, 4), (12, 0)], None)  # unsorted, overlapping, adjacent
def test_constructor_keeps_the_ordinal_ends_it_sums(raw, data):
    s = IntSet((lo, lo + w) for lo, w in raw)
    assert s._ends == _running_sizes(s.intervals)
    if data is None or not s:
        return
    o1 = data.draw(st.integers(1, s.size))
    o2 = data.draw(st.integers(o1, s.size))
    part = IntSet._of(s._slice(o1, o2), o2 - o1 + 1)
    assert part._ends is None  # a trusted slice waits for its first ordinal query
    assert part._at(part.size) == part.max
    assert part._ends == _running_sizes(part.intervals)


def test_interval_checks_like_the_constructor():
    assert IntSet.interval(3, 9) == IntSet([(3, 9)]) and IntSet.interval(3, 9).size == 7
    assert IntSet.interval(2**64, 2**64).intervals == ((2**64, 2**64),)
    for lo, hi in ((5, 3), (1.0, 3), (1, "3")):
        with pytest.raises(InvalidInputError) as want:
            IntSet([(lo, hi)])
        with pytest.raises(InvalidInputError) as got:
            IntSet.interval(lo, hi)
        assert str(got.value) == str(want.value)


def _two_pass_intset(intervals):
    """The constructor before it summed its size in its loop: merge into
    lists, then copy them into tuples and sum the sizes."""
    merged = []
    for lo, hi in sorted(intervals):
        if not isinstance(lo, int) or not isinstance(hi, int):
            raise InvalidInputError("interval endpoints must be integers")
        if lo > hi:
            raise InvalidInputError(f"empty interval [{lo}, {hi}]")
        if merged and lo <= merged[-1][1] + 1:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    ivs = tuple((a, b) for a, b in merged)
    return ivs, sum(b - a + 1 for a, b in ivs)


def test_constructor_matches_the_two_pass_constructor():
    """Seeded intervals that overlap, nest, touch, repeat and leave gaps,
    at negative and past-2^64 endpoints, and every refusal."""
    rng = random.Random(20240817)
    refused = 0
    for _ in range(4000):
        base = rng.choice((-5, 0, 1, 2**64))
        intervals = []
        for _ in range(rng.randint(0, 7)):
            lo = base + rng.randint(0, 20)
            hi = lo + rng.randint(-1 if rng.random() < 0.05 else 0, 6)
            if rng.random() < 0.03:
                lo = float(lo)
            intervals.append((lo, hi))
        try:
            ref = _two_pass_intset(intervals)
        except InvalidInputError as exc:
            refused += 1
            with pytest.raises(InvalidInputError) as got:
                IntSet(intervals)
            assert str(got.value) == str(exc)
            continue
        s = IntSet(intervals)
        assert (s.intervals, s.size) == ref, intervals
        assert all(type(e) is int for iv in s.intervals for e in iv)
    assert 200 < refused < 2000
