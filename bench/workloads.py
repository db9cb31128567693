"""Seeded inputs and operations for the three benchmark workloads.

A workload is built one *pass* at a time: `build(lab, seed, pass_index,
scale)` returns the list of operations of that pass, generated only from
(seed, pass_index).  Every pass draws fresh inputs and builds fresh objects;
deliberate reuse exists only inside a pass (re-queried vectors, index pairs
at several K).

Sizes are stratified: support sizes, K values, interval counts and prefix
lengths sit on fixed log-uniform grids and the seed draws everything else
(positions, values, rules, pairings, order).  That keeps the cost of a pass
nearly the same for every seed, so seed-to-seed differences in the
end-to-end figures stay small.

Each `Op` has
  * `run()`: the timed library call, including the library's own
    self-check (`NormResult.check`, `CoveringCertificate.verify`);
  * `verify(result)`: untimed, returns (checks, failures, canonical) where
    canonical is the JSON-able form of the result that the output digest
    hashes; a query is one check, a suite run is one check per record;
  * `oracle(result)`: optional, untimed comparison of a small instance with
    the exhaustive references; run on a sample after the timed passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable

WORKLOAD_NAMES = ("verify", "norm-queries", "index-queries")

# Exact mode uses integral exponents, float mode the non-integral ones.
EXACT_P = {"sp": (1, 2, 3), "bp": (2, 3)}
FLOAT_P = (1.5, 2.5)
KINDS = ("int", "frac", "float")
ORACLE_SUPPORT = 12
REQUERY_SUPPORT = 100
DIVERGENT = 4


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    verify: Callable[[Any], tuple[int, int, Any]]
    oracle: Callable[[Any], bool] | None = None


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def log_grid(lo: int, hi: int, count: int) -> list[int]:
    """`count` integers log-uniformly spaced from lo to hi, both included."""
    if count == 1:
        return [hi]
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _pow_text(v) -> str:
    if isinstance(v, float):
        return repr(v)
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


def _intervals(s) -> list:
    return [list(iv) for iv in s.intervals]


def _witness_canon(w):
    if w is None:
        return None
    if hasattr(w, "sets"):
        return [_intervals(b) for b in w.sets]
    return _intervals(w)


# -- verify -------------------------------------------------------------------

# A tenth of the acceptance sizes.  Count-like sizes are divided by ten; the
# two that are not counts (norm-oracle's exhaustive sign universe and
# lemma22's list of chain starts) take the setting nearest a tenth of their
# acceptance time.  Domination keeps its 50 pairs so that its cost averages
# over many random pairs.
VERIFY_SIZES = {
    "norm-oracle": {"sign_indices": 6, "randoms_per_p": 50},
    "tau-oracle": {"random_count": 1000},
    "lemma22": {"starts": [3]},
    "jameson": {"upper_count": 1000},
    "domination": {"coeffs_per_combo": 10},
    "sigma": {"count": 100},
    "mpb": {},
    "corollary64": {"pairs": 2},
    "gl-bounds": {"count": 20},
}
_VERIFY_COUNTS = ("randoms_per_p", "random_count", "upper_count", "coeffs_per_combo",
                  "count", "pairs")


def build_verify(lab, seed: int, pass_index: int, scale: float) -> list[Op]:
    suite_seed = pass_rng("verify", seed, pass_index).getrandbits(31)
    ops = []
    for name in lab.suites.SUITE_NAMES:
        sizes = {
            k: scaled(v, scale) if k in _VERIFY_COUNTS else v
            for k, v in VERIFY_SIZES[name].items()
        }
        run = lambda name=name, sizes=sizes: lab.suites.run_suite(
            name, seed=suite_seed, sizes=sizes, jobs=1
        )
        ops.append(Op(f"suite:{name}", run, _verify_report))
    return ops


def _verify_report(report):
    failed = sum(1 for r in report.records if not r["pass"])
    return len(report.records), failed, report.to_json_bytes().decode()


def _one(ok: bool, canon) -> tuple[int, int, Any]:
    return 1, 0 if ok else 1, canon


# -- norm-queries --------------------------------------------------------------

def _scalar(rng: random.Random, kind: str):
    a = rng.choice((-1, 1)) * rng.randint(1, 9)
    if kind == "int":
        return a
    b = rng.randint(2, 9)
    return Fraction(a, b) if kind == "frac" else a / b


def _random_vector(lab, rng: random.Random, n: int, kind: str):
    positions = sorted(rng.sample(range(1, 4 * n + 1), n))
    return lab.CoeffVector.from_entries((q, _scalar(rng, kind)) for q in positions)


def _norm_call(lab, space: str):
    return lab.baernstein_norm if space == "bp" else lab.schreier_norm


def _norm_op(lab, x, p, space: str, tag: str) -> Op:
    def run():
        result = _norm_call(lab, space)(x, p)
        return result, result.check(x)

    def verify(out):
        result, checked = out
        canon = [space, str(p), result.mode, _pow_text(result.value_pow),
                 _witness_canon(result.witness)]
        return _one(checked, canon)

    def oracle(out):
        result, _ = out
        return _agrees(result.mode, result.value_pow,
                       lab.oracle_norm_pow(x, p, space, result.mode))

    small = x.support_size <= ORACLE_SUPPORT
    return Op(f"{tag}:{space}", run, verify, oracle if small else None)


def _agrees(mode: str, got, want) -> bool:
    if mode == "exact":
        return got == want
    a, b = float(got), float(want)
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _json_scalar(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def _cli_op(lab, x, p, space: str) -> Op:
    argv = ["norm", "--space", space, "--p", str(p), "--vec",
            json.dumps({str(i): _json_scalar(v) for i, v in x.items()})]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lab.cli.main(argv)
        return code, buf.getvalue()

    def parsed(out):
        code, text = out
        if code != 0:
            return None
        obj = json.loads(text)
        wit = obj["witness"]
        if wit is None:
            observed = 0
        elif space == "bp":
            observed = lab.beta_p_pow(x, wit, p, obj["mode"])
        else:
            observed = lab.mu_p_pow(x, wit, p, obj["mode"])
        claimed = Fraction(obj["value_pow"]) if obj["mode"] == "exact" else obj["value"] ** p
        return obj, observed, claimed

    def verify(out):
        got = parsed(out)
        if got is None:
            return _one(False, ["cli-exit", out[0]])
        obj, observed, claimed = got
        return _one(_agrees(obj["mode"], observed, claimed), out[1])

    def oracle(out):
        got = parsed(out)
        if got is None:
            return False
        obj, _, claimed = got
        return _agrees(obj["mode"], claimed, lab.oracle_norm_pow(x, p, space, obj["mode"]))

    return Op(f"cli:{space}", run, verify, oracle)


def _monotone_vectors(lab, rng: random.Random, count: int) -> list:
    """Huge non-increasing run-length vectors that the window (sp) and
    sandwich (bp) paths answer.  The chain norm is asked only of flat
    vectors: on the others the sandwich bounds are usually not tight and the
    engine refuses, which a workload must not do.  The run count, which sets
    the cost, and the exponent follow the position; the seed draws the rest."""
    out = []
    families = ("flat-sp", "flat-bp", "jameson-sp", "decreasing-sp")
    for i in range(count):
        family = families[i % len(families)]
        step = i // len(families)  # 0, 1, 2, ... within the family
        exact = step % 2 == 0
        ps = EXACT_P["bp" if family == "flat-bp" else "sp"] if exact else FLOAT_P
        p = ps[step % len(ps)]
        runs_count = (20, 38, 29, 24, 34)[step % 5]
        if family.startswith("flat"):
            space = family[-2:]
            if space == "sp" and exact:
                p = 1  # flat Schreier vectors are rational only at p = 1
            chain = lab.maximal_chain_from(rng.randint(1, 8), runs_count)
            x = lab.flat_vector(chain, p, space)
        elif family == "jameson-sp":
            space = "sp"
            k = rng.randint(1, 10)
            x = lab.jameson_extremal(k, k + runs_count - 1)
        else:
            space = "sp"
            kind = rng.choice(("int", "frac")) if exact else "float"
            mags = set()
            while len(mags) < 2 * runs_count:
                mags.add(abs(_scalar(rng, kind)) * rng.randint(1, 50))
            runs, lo = [], rng.randint(1, 50)
            for v in sorted(mags, reverse=True)[:2 * runs_count:2]:
                length = int(math.exp(rng.uniform(0.0, math.log(2.0**36))))
                runs.append((lo, lo + length - 1, v * rng.choice((1, -1))))
                lo += length + rng.choice((0, 0, rng.randint(1, 1000)))
            x = lab.CoeffVector(runs)
        out.append((x, p, space))
    return out


def build_norm_queries(lab, seed: int, pass_index: int, scale: float) -> list[Op]:
    rng = pass_rng("norm-queries", seed, pass_index)
    per_kind = scaled(8, scale)
    base: list[Op] = []
    # Re-query sources have supports of at most REQUERY_SUPPORT, which both
    # generic engines answer.
    requery_sources = []  # (position in base, vector, kind, space, p)
    for space, limit in (("sp", lab.norms.DEFAULT_SCAN_LIMIT),
                         ("bp", lab.norms.DEFAULT_DP_LIMIT)):
        sizes = log_grid(1, max(2, round(limit * scale)), per_kind)
        for kind in KINDS:
            ps = FLOAT_P if kind == "float" else EXACT_P[space]
            for i, n in enumerate(sizes):
                x = _random_vector(lab, rng, n, kind)
                base.append(_norm_op(lab, x, ps[i % len(ps)], space, f"generic-{kind}"))
                if n <= REQUERY_SUPPORT:
                    requery_sources.append((len(base) - 1, x, kind, space, ps[i % len(ps)]))
    for x, p, space in _monotone_vectors(lab, rng, scaled(12, scale)):
        base.append(_norm_op(lab, x, p, space, "monotone"))
    for i in range(scaled(6, scale)):
        kind = KINDS[i % 3]
        space = ("sp", "bp")[(i // 3) % 2]
        x = _random_vector(lab, rng, rng.randint(1, ORACLE_SUPPORT), kind)
        p = rng.choice(FLOAT_P if kind == "float" else EXACT_P[space])
        base.append(_cli_op(lab, x, p, space))

    order = list(range(len(base)))
    rng.shuffle(order)
    ops = [base[i] for i in order]
    where = {src: pos for pos, src in enumerate(order)}
    # Re-query an earlier vector, inserted somewhere after its first query:
    # for even j at another exponent in the same space, for odd j in the
    # other space.  Sources cycle over the kinds and spaces and are the
    # largest eligible vector of their kind and space.
    for j in range(scaled(6, scale)):
        kind, space = KINDS[j % 3], ("sp", "bp")[(j // 3) % 2]
        src, x, p = [(src, x, p) for src, x, k, sp, p in requery_sources
                     if (k, sp) == (kind, space)][-1]
        target = space if j % 2 == 0 else ("bp" if space == "sp" else "sp")
        q = rng.choice([q for q in (FLOAT_P if kind == "float" else EXACT_P[target])
                        if (target, q) != (space, p)])
        at = rng.randint(where[src] + 1, len(ops))
        ops.insert(at, _norm_op(lab, x, q, target, "requery"))
        where = {k: v + (v >= at) for k, v in where.items()}
    return ops


# -- index-queries -------------------------------------------------------------

_SIMPLE_RULES = ("all", "even", "odd")


def _arith_rule(rng: random.Random) -> str:
    return f"arith:{rng.randint(1, 3)}:{rng.randint(2, 3)}"


def _simple_rule(rng: random.Random) -> str:
    return _arith_rule(rng) if rng.random() < 0.25 else rng.choice(_SIMPLE_RULES)


def _explicit_rule(rng: random.Random, length: int) -> str:
    out = [rng.randint(1, 4)]
    for _ in range(length - 1):
        out.append(out[-1] + rng.randint(1, 4))
    return json.dumps(out)


def _pool_rule(rng: random.Random, kind: str, length: int) -> str:
    if kind == "explicit":
        return _explicit_rule(rng, length)
    if kind == "arith":
        return _arith_rule(rng)
    if kind in ("double", "doubleodd"):
        return f"{kind}:{_simple_rule(rng)}"
    if kind == "union":
        return f"union:{_simple_rule(rng)};{_simple_rule(rng)}"
    return kind


POOL_KINDS = ("explicit", "all", "even", "odd", "arith", "double", "doubleodd", "union")


def _gl_op(lab, m, n, k: int) -> Op:
    def run():
        return lab.gl_index_truncated(m, n, k)

    def verify(res):
        ok = (lab.is_schreier(n.select(res.witness))
              and lab.tau1(m.select(res.witness))[0] == res.value)
        return _one(ok, [m.rule, n.rule, k, res.value, _intervals(res.witness)])

    def oracle(res):
        return (_gl_enumerated(lab, m.prefix(k), n.prefix(k)) == res.value
                and lab.tau1_oracle(m.select(res.witness)) == res.value)

    return Op("gl_index", run, verify, oracle if k <= ORACLE_SUPPORT else None)


def _gl_enumerated(lab, mp, np_) -> int:
    """Truncated index by brute force over every J in {1..K}."""
    best = 0
    k = len(mp)
    for r in range(1, k + 1):
        for sel in combinations(range(k), r):
            if r <= np_[sel[0]]:
                best = max(best, lab.tau1_oracle([mp[j] for j in sel]))
    return best


def _random_far_set(lab, rng: random.Random, intervals: int):
    """`intervals` disjoint intervals with log-uniform endpoints reaching 2^52."""
    top = 2**52
    points = {top}
    while len(points) < 2 * intervals:
        points.add(int(math.exp(rng.uniform(0.0, math.log(top)))))
    ends = sorted(points)
    # leave a gap of at least one between consecutive intervals
    ivs = [(ends[i], ends[i + 1] - 1 if i + 2 < len(ends) else ends[i + 1])
           for i in range(0, len(ends), 2)]
    return lab.IntSet(ivs)


def _tau_op(lab, s) -> Op:
    def run():
        count, cert = lab.tau1(s)
        return count, cert, cert.verify()

    def verify(out):
        count, cert, verified = out
        ok = verified and cert.count == count
        return _one(ok, [count, [_intervals(b) for b in cert.chain]])

    def oracle(out):
        # The greedy blocks of S that meet the head of S are the greedy blocks
        # of the head, cut to it, so their count in the timed certificate must
        # be the head's exhaustive covering number.
        _, cert, _ = out
        head = s.first_k(min(ORACLE_SUPPORT, s.size))
        return sum(1 for b in cert.chain if b.min <= head.max) == lab.tau1_oracle(head)

    return Op("tau1", run, verify, oracle)


def _mpb_op(lab, rng: random.Random, level: int) -> Op:
    # M\N holds exactly DIVERGENT levels, so every op certifies the same
    # number of witnesses; N reaches past the window as corollary64 needs.
    window = level - 2
    levels = list(range(2, window + 1))
    rng.shuffle(levels)
    divergent = set(levels[:DIVERGENT])
    rest = [1] + levels[DIVERGENT:]
    shared = {v for v in rest if rng.random() < 0.5}
    n_only = {v for v in rest if v not in shared and rng.random() < 0.5}
    m_members = sorted(divergent | shared)
    n_members = sorted(shared | n_only | {window + 1, window + 2})
    m_idx = lab.IndexSet.explicit(m_members)
    n_idx = lab.IndexSet.explicit(n_members)
    n_rule = lab.parse_index_rule(rng.choice(("all", "even", "odd")))

    def run():
        part = lab.mpb_partition(level)
        lset = lab.l_set(part, n_rule, level)
        certs = lab.divergence_certificates(part, m_idx, n_idx, window)
        return part, lset, certs

    def verify(out):
        part, lset, certs = out
        expected = [m for m in range(2, window + 1)
                    if m in m_members and m not in n_members]
        ok = [m for m, _ in certs] == expected
        l_m = lab.l_set(part, m_idx, level)
        l_n = lab.l_set(part, n_idx, level)
        for m, wit in certs:
            ok = ok and lab.tau1(l_m.select(wit))[0] == m
            ok = ok and lab.is_schreier(l_n.select(wit))
        canon = [level, [g.size for g in part.g_sets], lset.materialized_limit,
                 [[m, _intervals(w)] for m, w in certs]]
        return _one(ok, canon)

    return Op("mpb", run, verify)


def _union_op(lab, rule_a: str, rule_b: str, j: int) -> Op:
    def run():
        u = lab.IndexSet.union(lab.parse_index_rule(rule_a), lab.parse_index_rule(rule_b))
        return u.prefix(j)

    def verify(prefix):
        a = lab.parse_index_rule(rule_a).prefix(j)
        b = lab.parse_index_rule(rule_b).prefix(j)
        want = tuple(sorted(set(a) | set(b))[:j])
        return _one(tuple(prefix) == want, [rule_a, rule_b, j, list(prefix)])

    return Op("union", run, verify)


def build_index_queries(lab, seed: int, pass_index: int, scale: float) -> list[Op]:
    rng = pass_rng("index-queries", seed, pass_index)
    ops: list[Op] = []

    # (M, N) pairs, each asked at a low, a middle and a high K.  The pool kinds
    # of M and N follow the position and the seed draws their parameters.
    pairs = scaled(8, scale)
    ks = log_grid(8, 22, 3 * pairs)
    for i in range(pairs):
        n_kind = POOL_KINDS[i % len(POOL_KINDS)]
        m_kind = POOL_KINDS[(3 * i + 1) % len(POOL_KINDS)]
        m = lab.parse_index_rule(_pool_rule(rng, m_kind, 24))
        n = lab.parse_index_rule(_pool_rule(rng, n_kind, 24))
        for k in (ks[i], ks[i + pairs], ks[i + 2 * pairs]):
            ops.append(_gl_op(lab, m, n, k))

    for count in log_grid(10, max(10, round(5000 * scale)), scaled(16, scale)):
        ops.append(_tau_op(lab, _random_far_set(lab, rng, count)))

    for level in log_grid(25, 40, scaled(6, scale)):
        ops.append(_mpb_op(lab, rng, level))

    for j in log_grid(50, max(50, round(1000 * scale)), scaled(8, scale)):
        ops.append(_union_op(lab, _simple_rule(rng), _simple_rule(rng), j))

    rng.shuffle(ops)
    return ops


BUILDERS = {
    "verify": build_verify,
    "norm-queries": build_norm_queries,
    "index-queries": build_index_queries,
}
