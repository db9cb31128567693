"""Every norm engine on float vectors with entries from 1e-300 to 1e300.

Each call either answers or refuses with a typed error.  An answer is finite,
re-checks at its witness, and for small supports matches the exhaustive
oracle; a refusal is SizeLimitError or OverflowError, never anything else.
"""

import dataclasses
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

import schreierlab as sl
from schreierlab import CoeffVector

SP_EXPONENTS = (1, 1.5, 2, 3)
BP_EXPONENTS = (1.5, 2, 3)  # the chain norm needs p > 1
ORACLE_SUPPORT = 12


@st.composite
def magnitudes(draw, count):
    """`count` magnitudes m * 10^e with e within 300 of 0, clustered or spread."""
    center = draw(st.integers(-300, 300))
    spread = draw(st.sampled_from((0, 2, 20, 600)))
    out = []
    for _ in range(count):
        e = min(300, max(-300, center + draw(st.integers(-spread, spread))))
        out.append(draw(st.floats(1.0, 9.999)) * 10.0**e)
    return out


@st.composite
def random_vectors(draw, max_support=30):
    n = draw(st.integers(1, max_support))
    mags = draw(magnitudes(n))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    q, entries = 0, []
    for m, s in zip(mags, signs):
        q += draw(st.integers(1, 3))
        entries.append((q, s * m))
    return CoeffVector.from_entries(entries)


@st.composite
def nonincreasing_vectors(draw, shuffled=False):
    """Non-increasing |x| in up to six runs (in any order if shuffled), short
    enough to reach the oracle sometimes and long enough to need the
    sandwich otherwise."""
    count = draw(st.integers(1, 6))
    mags = sorted(draw(magnitudes(count)), reverse=True)
    if shuffled:
        mags = draw(st.permutations(mags))
    runs, lo = [], draw(st.integers(1, 20))
    for m in mags:
        length = draw(st.sampled_from((1, 1, 2, 3, 40)))
        runs.append((lo, lo + length - 1, m * draw(st.sampled_from((1, -1)))))
        lo += length + draw(st.integers(0, 3))
    return CoeffVector(runs)


def _answers_or_refuses(engine, x, p, space):
    try:
        r = engine(x, p)
    except (sl.SizeLimitError, OverflowError):
        return
    assert r.mode == "float"
    assert math.isfinite(r.value) and math.isfinite(r.value_pow)
    assert r.check(x)
    if x.support_size <= ORACLE_SUPPORT:
        want = sl.oracle_norm_pow(x, p, space)
        # relative below 1e-9; absolute only in the subnormal range, where
        # one rounding of a p-th power already loses relative precision
        assert math.isclose(r.value_pow, want, rel_tol=1e-9, abs_tol=sys.float_info.min)


@settings(max_examples=300, deadline=None)
@given(x=random_vectors(), p=st.sampled_from(SP_EXPONENTS))
def test_scan_answers_or_refuses_at_every_magnitude(x, p):
    _answers_or_refuses(sl.schreier_norm, x, p, "sp")


@settings(max_examples=300, deadline=None)
@given(x=random_vectors(), p=st.sampled_from(BP_EXPONENTS))
def test_chain_dp_answers_or_refuses_at_every_magnitude(x, p):
    _answers_or_refuses(sl.baernstein_norm, x, p, "bp")


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(nonincreasing_vectors(), nonincreasing_vectors(shuffled=True)),
       p=st.sampled_from(SP_EXPONENTS))
def test_run_scan_answers_or_refuses_at_every_magnitude(x, p):
    _answers_or_refuses(sl.schreier_norm, x, p, "sp")


@settings(max_examples=300, deadline=None)
@given(x=nonincreasing_vectors(), p=st.sampled_from(BP_EXPONENTS))
def test_sandwich_answers_or_refuses_at_every_magnitude(x, p):
    with pytest.MonkeyPatch.context() as mp:  # the sandwich at every size
        mp.setattr(sl.norms, "DEFAULT_DP_LIMIT", 0)
        _answers_or_refuses(sl.baernstein_norm, x, p, "bp")


def test_sandwich_tightness_is_relative_below_one():
    # the gap between the bounds is 12% of the value at every scale; an
    # absolute 1e-9 tolerance once passed it off as tight below 1
    x = CoeffVector.from_entries({1: 1.0, 2: 1.0, 3: 0.6, 4: 0.6, 5: 0.6})
    for scale in (1.0, 1e-6, 1e-200):
        y = x.scaled(scale)
        assert sl.baernstein_norm(y, 1.5).value_pow > 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sl.norms, "DEFAULT_DP_LIMIT", 0)
            with pytest.raises(sl.SizeLimitError, match="not tight"):
                sl.baernstein_norm(y, 1.5)


def test_check_is_relative_below_one():
    x = CoeffVector.from_entries({1: 3e-10, 2: 1e-10})
    r = sl.schreier_norm(x, 2)
    assert r.check(x)
    forged = dataclasses.replace(r, value_pow=r.value_pow * 2.25)
    assert not forged.check(x)
    tiny = CoeffVector.from_entries({1: 1e-160})  # the power is subnormal
    assert sl.schreier_norm(tiny, 2).check(tiny)
