"""Run-length kernels against per-index references.

Vectors here have long runs and sets have long intervals, so runs straddle
interval ends (and the other way round): the cases the one-index runs of
the other tests do not reach.  Rational entries must match exactly, float
entries within 1e-9 relative.
"""

import pytest
from hypothesis import given, settings, strategies as st

import schreierlab as sl
from schreierlab import CoeffVector, IntSet

SCALARS = {
    "int": st.integers(min_value=-5, max_value=5),
    "frac": st.fractions(min_value=-3, max_value=3, max_denominator=7),
    "float": st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False),
}


@st.composite
def run_vectors(draw, kind):
    runs, pos = [], draw(st.integers(1, 4))
    for _ in range(draw(st.integers(0, 8))):
        length = draw(st.integers(1, 7))
        runs.append((pos, pos + length - 1, draw(SCALARS[kind])))
        pos += length + draw(st.integers(0, 3))
    return CoeffVector(runs)


@st.composite
def schreier_interval_sets(draw, lo=1):
    """A Schreier set with minimum m >= lo made of up to four intervals."""
    m = draw(st.integers(lo, lo + 12))
    ivs, q, left = [], m, m
    for gap, length in draw(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 6)), min_size=1, max_size=4)
    ):
        take = min(length, left)
        if take == 0:
            break
        ivs.append((q, q + take - 1))
        q += take + gap
        left -= take
    return IntSet(ivs)


@st.composite
def chains(draw):
    sets, lo = [], 1
    for _ in range(draw(st.integers(1, 4))):
        f = draw(schreier_interval_sets(lo))
        sets.append(f)
        lo = f.max + 1 + draw(st.integers(0, 2))
    return sets


def _same(kind, got, want):
    if kind == "float":
        return got == pytest.approx(want, rel=1e-9, abs=1e-9)
    return got == want


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SCALARS)).flatmap(
    lambda kind: st.tuples(st.just(kind), run_vectors(kind), schreier_interval_sets(),
                           st.integers(1, 3))))
def test_mu_p_pow_matches_per_index_sum(case):
    kind, x, f, p = case
    entries = dict(x.items())
    want = sum(abs(entries[q]) ** p for q in f.iter_elements() if q in entries)
    assert _same(kind, sl.mu_p_pow(x, f, p), want)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SCALARS)).flatmap(
    lambda kind: st.tuples(st.just(kind), run_vectors(kind), chains(), st.integers(2, 3))))
def test_beta_p_pow_and_sigma_match_per_index_sums(case):
    kind, x, sets, p = case
    entries = dict(x.items())
    sums = [sum(entries.get(q, 0) for q in f.iter_elements()) for f in sets]
    abs_sums = [sum(abs(entries.get(q, 0)) for q in f.iter_elements()) for f in sets]
    assert _same(kind, sl.beta_p_pow(x, sets, p), sum(s**p for s in abs_sums))
    out = dict(sl.sigma_operator(x, sets).items())
    for idx, s in enumerate(sums, start=1):
        assert _same(kind, out.get(idx, 0), s)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SCALARS)).flatmap(
    lambda kind: st.tuples(run_vectors(kind), run_vectors(kind))))
def test_add_matches_per_index_sum(pair):
    x, y = pair
    a, b = dict(x.items()), dict(y.items())
    want = CoeffVector.from_entries(
        (i, a.get(i, 0) + b.get(i, 0)) for i in sorted(a.keys() | b.keys())
    )
    assert x + y == want
    assert x + x.scaled(-1) == CoeffVector.zero()

