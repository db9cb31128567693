"""The norm engines on tie-heavy int, Fraction, float and mixed vectors.

The exact engines run on x*L as ints (L the lcm of the denominators) and the
Schreier scan walks one rank order instead of sorting per candidate.  These
tests hold them to a copy of the per-candidate-sort scan, to scaling
invariance on every engine path, and to float values pinned before either
change.
"""

from fractions import Fraction
from functools import partial

from hypothesis import given, settings, strategies as st

import schreierlab as sl
from schreierlab import CoeffVector
from schreierlab.norms import DEFAULT_DP_LIMIT, DEFAULT_SCAN_LIMIT, _powfn

DENOMS = (1, 2, 3, 5, 7, 11, 13)
KINDS = ("int", "frac", "float", "mixed")


def reference_sp_scan(x, p, mode):
    """The Schreier scan that sorts the entries beyond each candidate."""
    powfn = _powfn(p, mode)
    pairs = [(q, powfn(abs(v))) for q, v in x.pairs()]
    best_pow = best_wit = None
    for i, (m, total) in enumerate(pairs):
        chosen = sorted(pairs[i + 1 :], key=lambda t: (-t[1], t[0]))[: m - 1]
        for _, w in chosen:
            total = total + w
        wit = tuple(sorted([m] + [q for q, _ in chosen]))
        if best_pow is None or total > best_pow or (total == best_pow and wit < best_wit):
            best_pow, best_wit = total, wit
    return best_pow, list(best_wit)


def scalars(kind):
    a = st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4))
    d = st.sampled_from(DENOMS)
    if kind == "int":
        return a
    if kind == "frac":
        return st.builds(Fraction, a, d)
    if kind == "float":
        return st.builds(lambda n, m: n / m, a, d)
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
@given(x=monotone_vectors(), c=positive_rationals, p=st.sampled_from((1, 2, 3)))
def test_window_commutes_with_scaling(x, c, p):
    _assert_scales(partial(sl.schreier_norm, scan_limit=0), x, c, p)


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
    _assert_scales(partial(sl.baernstein_norm, dp_limit=0), x, c, p)


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
    assert monotone.support_size > DEFAULT_SCAN_LIMIT
    assert flat.support_size > DEFAULT_DP_LIMIT
    cases = [
        (CoeffVector.from_entries((q, spread(q)) for q in range(2, 400, 3)), "sp",
         28.381976305581496, 151.204233071557),
        (CoeffVector.from_entries((q, spread(q)) for q in range(2, 300, 2)), "bp",
         132.95597192698952, 1533.0692533653598),
        (monotone, "sp", 47.09377412517642, 323.18057158167625),
        (flat, "bp", 3.9999999999999996, 8.0),
    ]
    for x, space, value, value_pow in cases:
        assert x.exact  # rational entries, evaluated in floats
        r = sl.norms.norm(x, 1.5, space, "float")
        assert (r.mode, r.value, r.value_pow) == ("float", value, value_pow)
