"""The exhaustive enumerators and norm oracles against independent brute force.

The enumerators and both oracles share one admissible-block generator, so
these tests rebuild their search spaces without it: subsets from a plain
powerset filtered by |F| <= min F, chains by recursion over that powerset,
and the chain oracle as the recursive walk over every chain that the
suffix-table oracle replaced.
"""

import random
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

import schreierlab as sl
from schreierlab import CoeffVector
from schreierlab.norms import _bp_oracle_pow, _exponent, norm, resolve_mode
from schreierlab.schreier import DEFAULT_ORACLE_BOUND


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def brute_chains(elems):
    """Every chain inside elems: a non-empty Schreier first block, then any
    chain beyond its maximum."""
    out = []
    for block in powerset(elems):
        if block and len(block) <= block[0]:
            out.append((block,))
            rest = [e for e in elems if e > block[-1]]
            out.extend((block,) + c for c in brute_chains(rest))
    return out


def _powfn(p, mode):
    """The reference power rule: b ** p in exact mode, float(b) ** float(p)
    otherwise."""
    if mode == "exact":
        return lambda b: b ** int(p)
    pf = float(p)
    return lambda b: float(b) ** pf


def recursive_bp_oracle_pow(pairs, powfn):
    """The chain oracle as a walk over every chain, one recursion per prefix."""
    n = len(pairs)
    best = 0

    def rec(start, acc):
        nonlocal best
        for i in range(start, n):
            m, v = pairs[i]
            for r in range(min(m - 1, n - i - 1) + 1):
                for comb in combinations(range(i + 1, n), r):
                    s = v
                    for j in comb:
                        s = s + pairs[j][1]
                    acc2 = acc + powfn(s)
                    if acc2 > best:
                        best = acc2
                    rec((comb[-1] if comb else i) + 1, acc2)

    rec(0, 0)
    return best


small_sets = st.lists(st.integers(1, 12), max_size=7, unique=True).map(sorted)


@settings(max_examples=150, deadline=None)
@given(small_sets)
def test_enumerate_schreier_subsets_is_the_filtered_powerset(elems):
    got = [tuple(f.to_list()) for f in sl.enumerate_schreier_subsets(elems)]
    assert len(got) == len(set(got))
    assert set(got) == {f for f in powerset(elems) if not f or len(f) <= f[0]}


@settings(max_examples=150, deadline=None)
@given(small_sets)
def test_enumerate_chains_is_the_recursive_powerset_walk(elems):
    got = [tuple(tuple(s) for s in c.to_lists()) for c in sl.enumerate_chains(elems)]
    assert len(got) == len(set(got))
    assert sorted(got) == sorted(brute_chains(elems))


def rand_vector(rng, kind, size, window):
    supp = sorted(rng.sample(range(1, window + 1), size))
    entries = []
    for q in supp:
        a = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        if kind == "frac":
            a = Fraction(a, rng.choice((1, 2, 3, 5, 7)))
        elif kind == "float":
            a = a * rng.uniform(0.1, 2.5)
        entries.append((q, a))
    return CoeffVector.from_entries(entries)


@pytest.mark.parametrize("kind", ["int", "frac", "float"])
@pytest.mark.parametrize("p", [2, 3, 2.5])
def test_chain_oracle_matches_the_recursive_walk(kind, p):
    rng = random.Random(f"{kind}-{p}")
    for _ in range(25):
        x = rand_vector(rng, kind, rng.randint(1, 9), 16)
        mode = resolve_mode(x, p)
        pairs = x.abs().pairs()
        got = _bp_oracle_pow(pairs, _exponent(p, mode))
        want = recursive_bp_oracle_pow(pairs, _powfn(p, mode))
        if mode == "exact":
            assert got == want
            assert type(got) is type(want)
        else:
            assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("space, p", [("sp", 1), ("sp", 2), ("bp", 2), ("bp", 3)])
def test_oracles_at_the_oracle_bound_match_the_engines(space, p):
    bound = DEFAULT_ORACLE_BOUND
    rng = random.Random(f"bound-{space}-{p}")
    for _ in range(8):
        x = rand_vector(rng, "int", bound, 2 * bound)
        assert x.support_size == bound
        assert sl.oracle_norm_pow(x, p, space) == norm(x, p, space).value_pow
