"""Seeded verification suites with persisted, byte-reproducible reports.

Each suite re-checks one family of quantitative inequalities on randomized
or exhaustive desk-scale instances and records one pass/fail line per
check.  Reports are deterministic functions of (suite, seed, sizes): wall
clock timing is kept out of the persisted bytes and printed separately.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from pathlib import Path

from . import constructions as cons
from . import glindex as gl
from . import norms, schreier
from .errors import InvalidInputError
from .intset import IntSet
from .vectors import CoeffVector, sup_norm

# -- report plumbing -----------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _digest(*parts) -> str:
    raw = json.dumps([_fmt(p) if not isinstance(p, (str, int)) else p for p in parts])
    return hashlib.sha256(raw.encode()).hexdigest()[:12]


def _rng(*parts) -> random.Random:
    raw = ":".join(str(p) for p in parts)
    seed_int = int.from_bytes(hashlib.sha256(raw.encode()).digest()[:8], "big")
    return random.Random(seed_int)


def record(check: str, tag: str, inputs: str, expected, observed, ok: bool) -> dict:
    return {
        "check": check,
        "tag": tag,
        "inputs": inputs,
        "expected": _fmt(expected),
        "observed": _fmt(observed),
        "pass": bool(ok),
    }


@dataclass
class SuiteReport:
    suite: str
    seed: int
    params: dict
    records: list[dict]
    elapsed: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.records)

    @property
    def summary(self) -> dict:
        failed = [r["check"] for r in self.records if not r["pass"]]
        return {
            "checks": len(self.records),
            "failed": len(failed),
            "first_failures": failed[:5],
        }

    def to_json_bytes(self) -> bytes:
        obj = {
            "suite": self.suite,
            "seed": self.seed,
            "params": self.params,
            "summary": self.summary,
            "records": self.records,
        }
        return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode()

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "check", "tag", "inputs", "expected", "observed", "pass"])
        for r in self.records:
            writer.writerow(
                [self.suite, r["check"], r["tag"], r["inputs"], r["expected"], r["observed"], r["pass"]]
            )
        return buf.getvalue()

    def write(self, out_dir) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        json_path = out / f"{self.suite}.json"
        csv_path = out / f"{self.suite}.csv"
        json_path.write_bytes(self.to_json_bytes())
        csv_path.write_text(self.to_csv_text(), encoding="utf-8")
        return json_path, csv_path


def _pmap(fn, tasks: list, jobs: int) -> list:
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    import multiprocessing  # here, so that a process that starts no pool does not load it

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers) as pool:
        return pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers)))


def _outcomes(item_fn, item) -> tuple[int, int, str]:
    """(checks, failures, first failure detail) of one item."""
    details = list(item_fn(item))
    fails = [d for d in details if d is not None]
    return len(details), len(fails), fails[0] if fails else ""


def _tally(check: str, tag: str, inputs: str, item_fn, items, jobs: int, noun: str) -> dict:
    """One record over every check of every item.

    item_fn(item) yields None for each passing check and a detail string for
    each failing one; the first failure in item order is quoted, so the
    record does not depend on jobs or on how _pmap batches the items.
    """
    results = _pmap(partial(_outcomes, item_fn), list(items), jobs)
    checked = sum(r[0] for r in results)
    bad = sum(r[1] for r in results)
    first = next((r[2] for r in results if r[2]), "")
    return record(
        check,
        tag,
        inputs,
        f"0 {noun} in {checked}",
        f"{bad} {noun}" + (f" ({first})" if first else ""),
        bad == 0 and checked > 0,  # zero checks verify nothing
    )


def _rand_int_vector(rng: random.Random, max_support: int, window: int) -> CoeffVector:
    k = rng.randint(1, max_support)
    supp = sorted(rng.sample(range(1, window + 1), k))
    vals = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in supp]
    return CoeffVector.from_entries(zip(supp, vals))


def _rand_prefix(rng: random.Random, length: int, max_start: int = 4, max_gap: int = 4) -> list[int]:
    out = [rng.randint(1, max_start)]
    for _ in range(length - 1):
        out.append(out[-1] + rng.randint(1, max_gap))
    return out


# -- norm-oracle ----------------------------------------------------------------

_NORM_COMBOS = (("sp", 1), ("sp", 2), ("sp", 3), ("bp", 2), ("bp", 3))


def _norm_oracle_signs(pattern: tuple[int, ...]):
    """One |x| class over indices 1..len(pattern): oracle once, engines on
    every sign assignment in the class."""
    supp = [i + 1 for i, b in enumerate(pattern) if b]
    base = CoeffVector.from_entries((q, 1) for q in supp)
    oracle = {
        (space, p): norms.oracle_norm_pow(base, p, space) if supp else 0
        for space, p in _NORM_COMBOS
    }
    for signs in product((1, -1), repeat=len(supp)):
        x = CoeffVector.from_entries((q, s) for q, s in zip(supp, signs))
        for space, p in _NORM_COMBOS:
            r = norms.norm(x, p, space)
            ok = r.value_pow == oracle[(space, p)] and r.check(x)
            yield None if ok else f"signs={signs} supp={supp} space={space} p={p}"


def _norm_oracle_random(space, p, seed, max_support, window, i):
    rng = _rng(seed, "norm-oracle-b", space, p, i)
    x = _rand_int_vector(rng, max_support, window)
    r = norms.norm(x, p, space)
    ok = r.value_pow == norms.oracle_norm_pow(x, p, space) and r.check(x)
    yield None if ok else f"exact i={i} supp={x.support().to_list()}"
    # float mode on the same vector, 1e-9 relative
    xf = CoeffVector.from_entries((q, float(v)) for q, v in x.items())
    rf = norms.norm(xf, p, space, mode="float")
    of = norms.oracle_norm(xf, p, space, mode="float")
    ok = norms.floats_close(rf.value, of) and rf.check(xf)
    yield None if ok else f"float i={i} supp={x.support().to_list()}"


def suite_norm_oracle(seed: int, jobs: int, *, sign_indices=7, randoms_per_p=500,
                      max_support=9, window=24) -> list[dict]:
    records = [
        _tally(
            "sign-vectors-exhaustive",
            "engine == exhaustive oracle on sign vectors",
            _digest("signs", sign_indices),
            _norm_oracle_signs,
            product((0, 1), repeat=sign_indices),
            jobs,
            "mismatches",
        )
    ]
    for space, p in _NORM_COMBOS:
        records.append(
            _tally(
                f"random-rational-{space}-p{p}",
                "engine == oracle, exact and float(1e-9)",
                _digest("rand", space, p, seed, randoms_per_p),
                partial(_norm_oracle_random, space, p, seed, max_support, window),
                range(randoms_per_p),
                jobs,
                "mismatches",
            )
        )
    return records


# -- tau-oracle -------------------------------------------------------------------


def _tau_agrees(sub) -> bool:
    count, cert = schreier.tau1(sub)
    return count == schreier.tau1_oracle(sub) and cert.verify()


def _tau_exhaustive(sub):
    yield None if _tau_agrees(sub) else str(sub)


def _tau_random(seed, universe, i):
    rng = _rng(seed, "tau-random", i)
    k = rng.randint(0, universe)
    sub = sorted(rng.sample(range(1, universe + 1), k))
    yield None if _tau_agrees(sub) else f"i={i} set={sub}"


def suite_tau_oracle(seed: int, jobs: int, *, exhaustive_universe=9, random_count=10_000,
                     random_universe=12) -> list[dict]:
    universe = range(1, exhaustive_universe + 1)
    tag = "greedy tau1 == exhaustive oracle with verified certificate"
    return [
        _tally(
            "exhaustive-subsets",
            tag,
            _digest("tau-exhaustive", exhaustive_universe),
            _tau_exhaustive,
            (sub for r in range(len(universe) + 1) for sub in combinations(universe, r)),
            jobs,
            "mismatches",
        ),
        _tally(
            "random-subsets",
            tag,
            _digest("tau-random", seed, random_count, random_universe),
            partial(_tau_random, seed, random_universe),
            range(random_count),
            jobs,
            "mismatches",
        ),
    ]


# -- lemma22 (flat-vector norm bounds) ----------------------------------------------


_SP_TAG = "1 <= flat Schreier norm <= 2^(1/p)"
_BP_TAG = "m^(1/p) <= flat chain norm <= 2 m^(1/p)"


def _lemma22_chain(s: int, m: int):
    """The records of the flat vectors on the chain of m maximal sets from s."""
    chain = schreier.maximal_chain_from(s, m)
    # Schreier norm, exact for integral p: the norm sees the entries only
    # through their p-th powers |F|^-1, so one exact S_1 run of the rational
    # companion certifies every integral p
    companion = cons.flat_vector(chain, 1, "sp")
    rs = norms.schreier_norm(companion, 1)
    ok = 1 <= rs.value_pow <= 2 and rs.check(companion)
    for p in (1, 2, 3):
        yield record(f"sp-exact-s{s}-m{m}-p{p}", _SP_TAG, _digest("lemma22-sp", s, m, p),
                     "pow in [1, 2]", rs.value_pow, ok)
    # float check at p = 1.5 on the honest float vector
    xf = cons.flat_vector(chain, 1.5, "sp")
    rf = norms.schreier_norm(xf, 1.5)
    lo, hi = 1.0, 2.0 ** (1 / 1.5)
    ok = lo * (1 - norms.FLOAT_RTOL) <= rf.value <= hi * (1 + norms.FLOAT_RTOL) and rf.check(xf)
    yield record(f"sp-float-s{s}-m{m}-p1.5", _SP_TAG, _digest("lemma22-spf", s, m),
                 f"value in [{lo}, {hi}]", rf.value, ok)
    xb = cons.flat_vector(chain, 2, "bp")
    for p in (2, 3):
        rb = norms.baernstein_norm(xb, p)
        ok = m <= rb.value_pow <= (2**p) * m and rb.check(xb)
        yield record(f"bp-exact-s{s}-m{m}-p{p}", _BP_TAG, _digest("lemma22-bp", s, m, p),
                     f"pow in [{m}, {2**p * m}]", rb.value_pow, ok)
    rbf = norms.baernstein_norm(CoeffVector((a, b, float(v)) for a, b, v in xb.runs), 1.5)
    lo, hi = float(m) ** (1 / 1.5), 2 * float(m) ** (1 / 1.5)
    ok = lo * (1 - norms.FLOAT_RTOL) <= rbf.value <= hi * (1 + norms.FLOAT_RTOL)
    yield record(f"bp-float-s{s}-m{m}-p1.5", _BP_TAG, _digest("lemma22-bpf", s, m),
                 f"value in [{lo:.6f}, {hi:.6f}]", rbf.value, ok)


def suite_lemma22(seed: int, jobs: int, *, max_m=20, starts=(1, 2, 3, 5, 8)) -> list[dict]:
    return [r for s in starts for m in range(1, max_m + 1) for r in _lemma22_chain(s, m)]


# -- jameson (three-norm inequality) ---------------------------------------------


def _jameson_upper(p, kp, seed, max_support, window, i):
    rng = _rng(seed, "jameson-upper", p, i)
    k = rng.randint(1, max_support)
    supp = sorted(rng.sample(range(1, window + 1), k))
    x = CoeffVector.from_entries(
        (q, rng.uniform(-1, 1) or rng.uniform(0.1, 1)) for q in supp
    )
    if x.is_zero:
        return
    lp_pow = norms.lp_norm_pow(x, p, mode="float")
    sup = float(sup_norm(x))
    s1 = norms.schreier_norm(x, 1, mode="float").value
    bound = kp * sup ** (p - 1.0) * s1
    yield None if lp_pow <= bound * (1 + norms.FLOAT_RTOL) else f"i={i} lp^p={lp_pow} bound={bound}"


def suite_jameson(seed: int, jobs: int, *, upper_count=10_000, p_list=(1.5, 2.0, 3.0),
                  max_support=12, window=30, max_k=10, tail_gap=20) -> list[dict]:
    records = []

    # the bound constant at p = 2 is exactly 4
    c2 = (3 * Fraction(2) ** 1 - 2) / (Fraction(2) ** 1 - 1)
    records.append(
        record(
            "constant-p2",
            "upper constant (3*2^(p-1)-2)/(2^(p-1)-1) at p=2",
            _digest("jameson-c2"),
            "4",
            c2,
            c2 == 4,
        )
    )

    for p in p_list:
        kp = (3.0 * 2.0 ** (p - 1) - 2.0) / (2.0 ** (p - 1) - 1.0)
        records.append(
            _tally(
                f"upper-random-p{p}",
                "lp^p <= Kp * sup^(p-1) * s1",
                _digest("jameson-upper", p, seed, upper_count),
                partial(_jameson_upper, p, kp, seed, max_support, window),
                range(upper_count),
                jobs,
                "violations",
            )
        )

    # extremal family at p = 2: exact rationals end to end
    p, ratios = 2, []
    for k in range(1, max_k + 1):
        t = k + tail_gap
        x = cons.jameson_extremal(k, t)
        sup = sup_norm(x)
        s1 = norms.schreier_norm(x, 1).value_pow
        ratios.append(norms.lp_norm_pow(x, p) / (sup ** (p - 1) * s1))
        tail_bound = Fraction(2) ** (-t * (p - 1)) * Fraction(2) ** (k * (p - 1) + p - 1)
        target = 3 - Fraction(2) ** (1 - k) - tail_bound
        records.append(
            record(
                f"extremal-k{k}",
                "extremal ratio >= 3 - 2^(1-k) - tail at p=2",
                _digest("jameson-extremal", k, t),
                f">= {_fmt(target)}",
                ratios[-1],
                s1 == 1 and sup == Fraction(1, 2**k) and ratios[-1] >= target,
            )
        )
    monotone = all(a < b for a, b in zip(ratios, ratios[1:]))
    records.append(
        record(
            "extremal-monotone",
            "extremal ratios increase with k",
            _digest("jameson-monotone", max_k),
            "strictly increasing",
            monotone,
            monotone,
        )
    )
    return records


# -- domination --------------------------------------------------------------------


def _domination_pair(seed, k, coeff_count, pair_index):
    rng = _rng(seed, "domination-pair", pair_index)
    m = gl.IndexSet.explicit(_rand_prefix(rng, k + 2))
    n = gl.IndexSet.explicit(_rand_prefix(rng, k + 2))
    index = gl.gl_index_truncated(m, n, k)
    for space, p in _NORM_COMBOS:
        for i in range(coeff_count):
            crng = _rng(seed, "domination-coeffs", pair_index, space, p, i)
            coeffs = [crng.randint(-4, 4) for _ in range(crng.randint(1, k))]
            res = gl.check_domination(m, n, index, p, space, coeffs)
            yield None if res.holds else f"pair={pair_index} space={space} p={p} coeffs={coeffs}"


def suite_domination(seed: int, jobs: int, *, pairs=50, K=12, coeffs_per_combo=100) -> list[dict]:
    return [
        _tally(
            "random-pairs",
            "||sum a e_n|| <= C ||sum a e_m|| with C from the truncated index",
            _digest("domination", seed, pairs, K, coeffs_per_combo),
            partial(_domination_pair, seed, K, coeffs_per_combo),
            range(pairs),
            jobs,
            "violations",
        )
    ]


# -- sigma ----------------------------------------------------------------------


def _rand_successive_sets(rng: random.Random, limit: int = 24) -> list[list[int]]:
    sets = []
    q = rng.randint(1, 3)
    while q <= limit and len(sets) < 6:
        size = rng.randint(1, min(q, 4))
        members = sorted(rng.sample(range(q, q + 6), size))
        if members[0] >= size:
            sets.append(members)
            q = members[-1] + 1 + rng.randint(0, 2)
        else:
            q += 1
    return sets


def _sigma(seed, i):
    rng = _rng(seed, "sigma", i)
    x = _rand_int_vector(rng, 14, 22)
    sets = _rand_successive_sets(rng)
    if not sets:
        return
    out = norms.sigma_operator(x, sets)
    for p in (2, 3):
        ok = norms.lp_norm_pow(out, p) <= norms.baernstein_norm(x, p).value_pow
        yield None if ok else f"i={i} p={p}"


def suite_sigma(seed: int, jobs: int, *, count=1000) -> list[dict]:
    return [
        _tally(
            "contraction",
            "lp norm of block sums <= chain norm",
            _digest("sigma", seed, count),
            partial(_sigma, seed),
            range(count),
            jobs,
            "violations",
        )
    ]


# -- mpb ------------------------------------------------------------------------


def suite_mpb(seed: int, jobs: int, *, n_max=25) -> list[dict]:
    part = cons.mpb_partition(n_max)
    records = []
    consumed = prev_max = 0
    for n in range(1, n_max + 1):
        f, g = part.f(n), part.g(n)
        ok = f.is_empty if n == 1 else f.size == consumed and f.min == prev_max + 1
        if not f.is_empty:
            ok &= g.min == f.max + 1
        count, cert = schreier.tau1(g)
        ok &= count == n and cert.verify()
        consumed += f.size + g.size
        prev_max = g.max
        records.append(
            record(
                f"level-{n}",
                "interval recursion |F_n| = sum(|J_m|, m<n) and tau1(G_n) = n",
                _digest("mpb", n),
                f"|F_{n}|=prev total, tau1(G_{n})={n}",
                f"|F|={f.size}, tau1={count}",
                ok,
            )
        )
    union = IntSet(iv for n in range(1, n_max + 1) for iv in part.j(n).intervals)
    contiguous = union == IntSet.interval(1, union.max)
    records.append(
        record(
            "partition-contiguous",
            "the J intervals partition an initial segment",
            _digest("mpb-union", n_max),
            "single interval from 1",
            f"{len(union.intervals)} intervals from {union.min}",
            contiguous,
        )
    )
    return records


# -- corollary64 -------------------------------------------------------------------


def suite_corollary64(seed: int, jobs: int, *, pairs=20, window=8, n_max=10) -> list[dict]:
    part = cons.mpb_partition(n_max)
    records = []
    for i in range(pairs):
        rng = _rng(seed, "corollary64", i)
        m_members = sorted(rng.sample(range(1, 9), rng.randint(1, 8)))
        n_members = sorted(
            set(rng.sample(range(1, 9), rng.randint(0, 8))) | {9, 10}
        )
        m_idx = gl.IndexSet.explicit(m_members)
        n_idx = gl.IndexSet.explicit(n_members)
        certs = cons.divergence_certificates(part, m_idx, n_idx, window)
        expected_ms = [
            m for m in range(2, window + 1) if m in m_members and m not in n_members
        ]
        ok = [m for m, _ in certs] == expected_ms
        l_m = cons.l_set(part, m_idx, n_max)
        l_n = cons.l_set(part, n_idx, n_max)
        for m, wit in certs:
            count, cert = schreier.tau1(l_m.select(wit))
            ok &= count == m and cert.verify()
            ok &= schreier.is_schreier(l_n.select(wit))
        bound = max(expected_ms, default=0)
        records.append(
            record(
                f"pair-{i}",
                "tau1(L_M(J)) = m with L_N(J) Schreier for every m in M\\N",
                _digest("corollary64", i, m_members, n_members),
                f"witnesses for {expected_ms}, certified bound {bound}",
                f"witnesses for {[m for m, _ in certs]}",
                bool(ok),
            )
        )
    return records


# -- gl-bounds ----------------------------------------------------------------------


def _gl_bounds(seed, k, i):
    rng = _rng(seed, "gl-bounds", i)
    m = gl.IndexSet.explicit(_rand_prefix(rng, k + 2))
    m1 = gl.IndexSet.doubled_minus_one(m)
    m2 = gl.IndexSet.doubled(m)
    u = gl.IndexSet.union(m1, m2)
    checks = (
        (gl.gl_index_truncated(m, u, k).value, 3, "le"),
        (gl.gl_index_truncated(u, m, k).value, 2, "le"),
        (gl.gl_index_truncated(m2, m, k).value, 1, "eq"),
        (gl.gl_index_truncated(m2, m1, k).value, 1, "eq"),
        (gl.gl_index_truncated(m, m2, k).value, 2, "le"),
        (gl.gl_index_truncated(m1, m2, k).value, 2, "le"),
    )
    for value, bound, kind in checks:
        good = value == bound if kind == "eq" else value <= bound
        yield None if good else f"i={i} value={value} bound={bound} ({kind})"


def suite_gl_bounds(seed: int, jobs: int, *, count=200, K=12) -> list[dict]:
    return [
        _tally(
            "doubling-ensemble",
            "truncated indices for (M, 2M-1, 2M) respect (<=3, <=2, =1, =1, <=2, <=2)",
            _digest("gl-bounds", seed, count, K),
            partial(_gl_bounds, seed, K),
            range(count),
            jobs,
            "violations",
        )
    ]


# -- dispatch ---------------------------------------------------------------------

_SUITES = {
    "norm-oracle": suite_norm_oracle,
    "tau-oracle": suite_tau_oracle,
    "lemma22": suite_lemma22,
    "jameson": suite_jameson,
    "domination": suite_domination,
    "sigma": suite_sigma,
    "mpb": suite_mpb,
    "corollary64": suite_corollary64,
    "gl-bounds": suite_gl_bounds,
}


SUITE_NAMES = tuple(_SUITES)

# Each suite's sizes are the keyword-only parameters of its function, and
# their defaults are the one size schema: {suite: {key: default}}.
SIZES = {name: dict(fn.__kwdefaults__) for name, fn in _SUITES.items()}


def _json(v) -> str:
    return json.dumps(v, separators=(",", ":"), default=repr)


def describe_sizes(name: str) -> str:
    return " ".join(f"{key}={_json(v)}" for key, v in SIZES[name].items())


def _count(v) -> bool:
    return type(v) is int and v >= 1


def _number(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def check_sizes(name: str, sizes: dict) -> None:
    """Refuse a key the suite does not declare, a value unlike its default
    (an int takes an int >= 1, a tuple a non-empty list of its entries'
    kind), and the size combinations the suite cannot run."""
    schema = SIZES[name]
    for key, value in sizes.items():
        if key not in schema:
            raise InvalidInputError(
                f"--size {key} wants one of {name}'s sizes: {describe_sizes(name)}"
            )
        default = schema[key]
        if isinstance(default, tuple):
            ints = type(default[0]) is int
            entry = _count if ints else _number
            ok = type(value) in (list, tuple) and len(value) > 0 and all(map(entry, value))
            want = f"a non-empty list of {'integers >= 1' if ints else 'finite numbers'}"
        else:
            ok, want = _count(value), "an integer >= 1"
        if not ok:
            raise InvalidInputError(
                f"--size {key} wants {want} ({name} default {_json(default)}), got {_json(value)}"
            )
    s = {**schema, **sizes}
    if s.get("window", math.inf) < s.get("max_support", 0):
        raise InvalidInputError(
            f"--size window wants at least max_support: {name} draws up to "
            f"max_support={s['max_support']} indices from 1..window={s['window']}"
        )
    if name == "corollary64" and s["n_max"] < 9:
        raise InvalidInputError(
            f"--size n_max wants at least 9: every N that {name} draws holds 9, so L_N "
            f"needs the partition through J_9, got n_max={s['n_max']}"
        )
    if s.get("window", 0) > s.get("n_max", math.inf):
        raise InvalidInputError(
            f"--size window wants at most n_max: {name} certifies m in 2..window={s['window']} "
            f"on a partition materialized through n_max={s['n_max']}"
        )
    if any(p <= 1 for p in s.get("p_list", ())):
        raise InvalidInputError(
            f"--size p_list wants entries > 1: {name}'s K_p divides by 2^(p-1) - 1, "
            f"got {_json(s['p_list'])}"
        )


def run_suite(
    name: str,
    seed: int = 0,
    sizes: dict | None = None,
    jobs: int = 1,
    out_dir=None,
) -> SuiteReport:
    """Execute one named verification suite; optionally persist the report.

    The sizes pass check_sizes before any work; the report's params are
    exactly the sizes given, defaults left out.
    """
    if name not in _SUITES:
        raise InvalidInputError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    sizes = dict(sizes or {})
    check_sizes(name, sizes)
    t0 = time.perf_counter()
    records = _SUITES[name](seed, jobs, **sizes)
    elapsed = time.perf_counter() - t0
    params = {k: list(v) if isinstance(v, tuple) else v for k, v in sizes.items()}
    report = SuiteReport(
        suite=name, seed=seed, params=params, records=records, elapsed=elapsed
    )
    if out_dir is not None:
        report.write(out_dir)
    return report
