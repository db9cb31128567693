import math
from fractions import Fraction

import pytest

import schreierlab as sl
from schreierlab import CoeffVector
from schreierlab.norms import validate_exponent
from schreierlab.vectors import (
    scalar_from_json,
    scalar_to_json,
    vector_from_json_obj,
    vector_to_json_obj,
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


def test_addition_and_scaling():
    x = CoeffVector.from_dense([1, 1, 1])
    y = CoeffVector.from_entries({2: -1, 3: 2, 9: 4})
    s = x + y
    assert dict(s.items()) == {1: 1, 3: 3, 9: 4}
    assert (x - x).is_zero
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


def test_decreasing_rearrangement_examples():
    x = CoeffVector.from_entries({5: 3, 2: 1})
    assert dict(sl.decreasing_rearrangement(x).items()) == {1: 3, 2: 1}
    e1 = CoeffVector.basis(1)
    assert sl.decreasing_rearrangement(e1) == e1
    flat = CoeffVector.from_runs([(4, 9, Fraction(1, 2))])
    assert sl.decreasing_rearrangement(flat) == CoeffVector.from_runs(
        [(1, 6, Fraction(1, 2))]
    )
    y = CoeffVector.from_entries({3: -2, 8: 2, 10: -5})
    assert dict(sl.decreasing_rearrangement(y).items()) == {1: 5, 2: 2, 3: 2}


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
    assert scalar_to_json(Fraction(2, 3)) == "2/3"
    assert scalar_to_json(3) == "3/1"
    assert scalar_to_json(0.25) == 0.25
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
    obj = vector_to_json_obj(x)
    assert obj == {"1": "1/3", "4": "-2/1"}
    assert vector_from_json_obj(obj) == x
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
