import math
import numbers
import random
from fractions import Fraction

import pytest

import schreierlab as sl
from schreierlab import CoeffVector
from schreierlab.norms import validate_exponent
from schreierlab.vectors import (
    scalar_from_json,
    vector_from_json_obj,
)


def test_construction_drops_zeros_and_merges_runs():
    x = CoeffVector.from_entries({1: 1, 2: 1, 3: 1, 5: 0, 7: Fraction(1, 2)})
    assert x.runs == ((1, 3, 1), (7, 7, Fraction(1, 2)))
    assert x.support_size == 4
    assert x.support().to_list() == [1, 2, 3, 7]
    assert x.entry(2) == 1 and x.entry(5) == 0


def test_zero_vector():
    z = CoeffVector.zero()
    assert z.is_zero and z.support_size == 0
    assert sl.sup_norm(z) == 0
    assert sl.lp_norm(z, 2) == 0.0


def test_invalid_vectors():
    with pytest.raises(sl.InvalidInputError):
        CoeffVector.from_entries({0: 1})
    with pytest.raises(sl.InvalidInputError):
        CoeffVector([(1, 3, 1), (2, 4, 2)])  # overlap
    with pytest.raises(sl.InvalidInputError):
        CoeffVector.from_entries({1: "x"})  # type: ignore[dict-item]


def test_exactness_tracking():
    assert CoeffVector.from_dense([1, Fraction(1, 3)]).exact
    assert not CoeffVector.from_dense([1, 0.5]).exact
    x = CoeffVector.from_entries({1: 2, 2: 0.0, 3: Fraction(1, 3)})  # a zero float is dropped
    assert x.exact and x.runs == ((1, 1, 2), (3, 3, Fraction(1, 3))) and x.support_size == 2
    # a float equal to its int neighbour joins the int's run and is not kept
    assert CoeffVector.from_dense([1, 1.0]).exact
    assert not CoeffVector.from_dense([1.0, 1]).exact


def test_addition_and_scaling():
    x = CoeffVector.from_dense([1, 1, 1])
    y = CoeffVector.from_entries({2: -1, 3: 2, 9: 4})
    s = x + y
    assert dict(s.items()) == {1: 1, 3: 3, 9: 4}
    assert (x + x.scaled(-1)).is_zero
    assert dict(x.scaled(Fraction(1, 2)).items()) == {
        1: Fraction(1, 2),
        2: Fraction(1, 2),
        3: Fraction(1, 2),
    }
    assert x.scaled(0).is_zero


def test_sup_norm_examples():
    assert sl.sup_norm(CoeffVector.basis(5)) == 1
    x = CoeffVector.from_entries({2: 3, 7: -4})
    assert sl.sup_norm(x) == 4
    assert sl.sup_norm(CoeffVector.zero()) == 0


def test_lp_norm_examples():
    assert sl.lp_norm(CoeffVector.basis(1), 2) == 1.0
    x = CoeffVector.from_dense([1, 1, 1])
    assert sl.lp_norm_pow(x, 2) == 3
    assert sl.lp_norm(x, 2) == pytest.approx(3**0.5)
    assert sl.lp_norm_pow(CoeffVector.zero(), 3) == 0


def test_is_nonincreasing_abs():
    assert CoeffVector.from_dense([3, 2, 2, 1]).is_nonincreasing_abs()
    assert CoeffVector.from_dense([3, -3, 2]).is_nonincreasing_abs()
    assert not CoeffVector.from_dense([1, 2]).is_nonincreasing_abs()
    assert CoeffVector.zero().is_nonincreasing_abs()


def test_block_sequence_validation():
    a = CoeffVector.from_entries({1: 1})
    b = CoeffVector.from_entries({2: 1, 3: -1})
    seq = sl.BlockSequence([a, b])
    assert len(seq) == 2
    with pytest.raises(sl.InvalidInputError):
        sl.BlockSequence([b, a])
    with pytest.raises(sl.InvalidInputError):
        sl.BlockSequence([a, CoeffVector.zero()])
    with pytest.raises(sl.InvalidInputError):
        sl.BlockSequence([])


def test_scalar_json_roundtrip():
    assert scalar_from_json("2/3") == Fraction(2, 3)
    assert scalar_from_json("-4") == -4
    assert scalar_from_json("1.5") == 1.5
    assert scalar_from_json(2) == 2
    with pytest.raises(sl.InvalidInputError):
        scalar_from_json("2/0")
    with pytest.raises(sl.InvalidInputError):
        scalar_from_json([1])


def test_vector_json_roundtrip():
    x = CoeffVector.from_entries({1: Fraction(1, 3), 4: -2})
    assert vector_from_json_obj({"1": "1/3", "4": "-2/1"}) == x
    assert vector_from_json_obj([1, 1, 1]) == CoeffVector.from_dense([1, 1, 1])
    assert vector_from_json_obj([]) == CoeffVector.zero()
    with pytest.raises(sl.InvalidInputError):
        vector_from_json_obj({"zero": 1})
    with pytest.raises(sl.InvalidInputError):
        vector_from_json_obj("nope")


def test_non_finite_scalars_are_rejected():
    for bad in (math.nan, math.inf, -math.inf, "1e999", "-1e999"):
        with pytest.raises(sl.InvalidInputError):
            scalar_from_json(bad)
    with pytest.raises(sl.InvalidInputError):
        CoeffVector.from_dense([1.0, math.inf])
    with pytest.raises(sl.InvalidInputError):
        CoeffVector.basis(1, 1.0).scaled(math.nan)
    for space in ("sp", "bp"):
        with pytest.raises(sl.UnsupportedExponentError):
            validate_exponent(math.inf, space)


def _two_pass_vector(runs):
    """The constructor before it tracked size and exactness in its loop:
    merge into lists, then sum the sizes and test every run's value against
    numbers.Rational."""
    norm = []
    for lo, hi, v in sorted(runs, key=lambda r: (r[0], r[1])):
        if not isinstance(lo, int) or not isinstance(hi, int):
            raise sl.InvalidInputError("run endpoints must be integers")
        if lo < 1:
            raise sl.InvalidInputError(f"indices must be >= 1, got {lo}")
        if lo > hi:
            raise sl.InvalidInputError(f"empty run [{lo}, {hi}]")
        if not isinstance(v, (int, Fraction, float)):
            raise sl.InvalidInputError(f"unsupported scalar type {type(v).__name__}")
        if isinstance(v, float) and not math.isfinite(v):
            raise sl.InvalidInputError(f"non-finite scalar {v!r}")
        if v == 0:
            continue
        if norm and lo <= norm[-1][1]:
            raise sl.InvalidInputError(f"overlapping runs at index {lo}")
        if norm and lo == norm[-1][1] + 1 and norm[-1][2] == v:
            norm[-1][1] = hi
        else:
            norm.append([lo, hi, v])
    out = tuple((lo, hi, v) for lo, hi, v in norm)
    size = sum(hi - lo + 1 for lo, hi, _ in out)
    return out, size, all(isinstance(v, numbers.Rational) for _, _, v in out)


def _outcome(build, runs):
    """(runs with each value's type, size, exact), or the refusal's message."""
    try:
        out, size, exact = build(runs)
    except sl.InvalidInputError as exc:
        return "refused", str(exc)
    return [(lo, hi, v, type(v)) for lo, hi, v in out], size, exact


def test_constructor_matches_the_two_pass_constructor():
    """Seeded runs with equal values across int, Fraction and float, zero
    entries of every type, gaps, adjacency, overlaps and every refusal."""
    rng = random.Random(20240817)
    values = (1, 2, -1, Fraction(1), Fraction(1, 2), 1.0, 0.5, 2.0, 0, 0.0, Fraction(0),
              True, math.inf, math.nan, "1", None)
    def one_pass(runs):
        x = CoeffVector(runs)
        return x.runs, x.support_size, x.exact

    refused = 0
    for _ in range(4000):
        runs, lo = [], rng.choice((0, 1, 1, 2, 5))
        for _ in range(rng.randint(0, 6)):
            length = rng.choice((1, 1, 2, 3, 0))
            hi = lo + length - 1
            if rng.random() < 0.03:
                hi = float(hi)
            runs.append((lo, hi, rng.choice(values[:10]) if rng.random() < 0.95
                         else rng.choice(values[10:])))
            lo = hi + 1 + rng.choice((0, 0, 0, 1, 3, -1)) if isinstance(hi, int) else 1
        rng.shuffle(runs)
        ref = _outcome(_two_pass_vector, runs)
        assert _outcome(one_pass, runs) == ref, runs
        refused += ref[0] == "refused"
    assert 500 < refused < 3500
