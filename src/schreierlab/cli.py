"""Command-line front end: norm/covering/index queries with JSON output,
constructions, and the seeded verification suites.

Exit codes: 0 success, 1 failed verification check, 2 parse/usage error,
3 truncation (index set or partition not materialized far enough),
4 oracle/size limit exceeded (float overflow, over-long integers), 5 internal error,
141 standard output closed early by its reader (as for a tool killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import constructions as cons
from . import glindex as gl
from . import norms, schreier, suites
from .errors import (
    InvalidInputError,
    OracleLimitError,
    SchreierLabError,
    SizeLimitError,
    TruncationError,
    VerificationError,
)
from .intset import IntSet
from .vectors import ints_from_json, scalar_from_json, vector_from_json_obj

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_TRUNCATION = 3
EXIT_ORACLE = 4
EXIT_INTERNAL = 5


def _parse_p(text: str):
    p = scalar_from_json(text)
    return int(p) if isinstance(p, Fraction) and p.denominator == 1 else p


def _parse_vec(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad vector JSON: {exc}") from exc
    return vector_from_json_obj(data)


def _parse_set(text: str) -> IntSet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad set JSON: {exc}") from exc
    return IntSet.from_iterable(ints_from_json(data, "set"))


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_norm(args) -> int:
    x = _parse_vec(args.vec)
    p = _parse_p(args.p)
    _emit(norms.norm(x, p, args.space, args.mode).to_json_obj())
    return EXIT_OK


def _cmd_tau(args) -> int:
    a = _parse_set(args.set)
    count, cert = schreier.tau1(a)
    obj = cert.to_json_obj()
    if args.oracle:
        obj["oracle"] = schreier.tau1_oracle(a)
        obj["agrees"] = obj["oracle"] == count
    _emit(obj)
    return EXIT_OK


def _cmd_glindex(args) -> int:
    m = gl.parse_index_rule(args.M)
    n = gl.parse_index_rule(args.N)
    res = gl.gl_index_truncated(m, n, args.K)
    obj = res.to_json_obj()
    obj["M"] = m.rule
    obj["N"] = n.rule
    obj["note"] = "lower-bound certificate at this truncation"
    _emit(obj)
    return EXIT_OK


def _cmd_construct(args) -> int:
    kind = args.what
    if kind == "mpb":
        part = cons.mpb_partition(args.n)
        obj = part.to_json_obj()
        obj["tau1_G"] = [schreier.tau1(part.g(i))[0] for i in range(1, args.n + 1)]
        _emit(obj)
    elif kind == "maxchain":
        chain = schreier.maximal_chain_from(args.start, args.count)
        _emit({"chain": chain.to_lists()})
    elif kind == "flat":
        chain = schreier.maximal_chain_from(args.start, args.count)
        p = _parse_p(args.p)
        result = norms.norm(cons.flat_vector(chain, p, args.space), p, args.space)
        _emit(
            {
                "blocks": chain.to_lists() if args.count <= 12 else len(chain),
                "norm": result.value,
                "space": args.space,
                "p": str(p),
            }
        )
    elif kind == "jameson":
        x = cons.jameson_extremal(args.k, args.truncation)
        s1 = Fraction(norms.schreier_norm(x, 1).value_pow)
        _emit(
            {
                "k": args.k,
                "truncation": args.truncation,
                "sup": str(Fraction(1, 2**args.k)),
                "s1_norm_pow": f"{s1.numerator}/{s1.denominator}",
                "runs": [[lo, hi, f"{v.numerator}/{v.denominator}"] for lo, hi, v in x.runs],
            }
        )
    elif kind == "lset":
        part = cons.mpb_partition(args.n_max)
        n_idx = gl.parse_index_rule(args.N)
        ls = cons.l_set(part, n_idx, args.through)
        _emit(ls.to_json_obj(min(ls.materialized_limit or 0, args.prefix)))
    elif kind == "adfamily":
        fam = cons.almost_disjoint_family(args.count, args.depth)
        _emit(
            {
                "depth": fam.depth,
                "branches": {
                    code: list(idx.prefix(fam.depth + 1))
                    for code, idx in fam.branches.items()
                },
            }
        )
    elif kind == "witness":
        part = cons.mpb_partition(args.n_max)
        m_idx = gl.parse_index_rule(args.M)
        n_idx = gl.parse_index_rule(args.N)
        wit = cons.divergence_witness(part, m_idx, n_idx, args.m)
        l_m = cons.l_set(part, m_idx, args.n_max)
        _emit(
            {
                "m": args.m,
                "witness_ordinals": [list(iv) for iv in wit.intervals],
                "tau1_of_selection": schreier.tau1(l_m.select(wit))[0],
            }
        )
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidInputError(f"unknown construction {kind!r}")
    return EXIT_OK


def _parse_sizes(pairs: list[str]) -> dict:
    """key=JSON pairs; which keys and values a suite takes is its own check."""
    sizes = {}
    for raw in pairs:
        key, sep, value = raw.partition("=")
        if not sep:
            raise InvalidInputError(f"--size wants key=value, got {raw!r}")
        try:
            sizes[key] = json.loads(value)
        except json.JSONDecodeError:
            raise InvalidInputError(f"--size {key} wants a JSON value, got {value!r}") from None
    return sizes


def _cmd_verify(args) -> int:
    sizes = _parse_sizes(args.size or [])
    names = suites.SUITE_NAMES if args.suite == "all" else (args.suite,)
    # one suite is handed every size; verify all hands each suite its own
    plan = {n: {k: v for k, v in sizes.items() if args.suite != "all" or k in suites.SIZES[n]}
            for n in names}
    unknown = set(sizes).difference(*plan.values())
    if unknown:
        raise InvalidInputError(
            f"--size {min(unknown)} wants a size that some suite declares (see verify --help)"
        )
    for name, own in plan.items():  # refuse every bad size before the first suite runs
        suites.check_sizes(name, own)
    all_ok = True
    for name, own in plan.items():
        report = suites.run_suite(
            name, seed=args.seed, sizes=own, jobs=args.jobs, out_dir=args.out
        )
        status = "PASS" if report.passed else "FAIL"
        summary = report.summary
        print(
            f"{status} {name}: {summary['checks'] - summary['failed']}/"
            f"{summary['checks']} checks"
        )
        print(f"  elapsed: {report.elapsed:.2f}s (not part of the report bytes)",
              file=sys.stderr)
        if not report.passed:
            all_ok = False
            for r in report.records:
                if not r["pass"]:
                    print(f"  FAILED {r['check']}: {r['tag']}")
                    print(f"    expected {r['expected']}, observed {r['observed']}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


_SIZES_HELP = "\n".join(
    ["sizes (--size KEY=VALUE, an integer >= 1 or a non-empty list) and defaults:"]
    + [f"  {n:<12} {suites.describe_sizes(n)}" for n in suites.SUITE_NAMES]
)


@functools.cache  # one tree per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schreier-lab",
        description="Exact norms, covering numbers and certificates for "
        "Schreier-type sequence spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="evaluate a norm with its witness")
    p_norm.add_argument("--vec", required=True, help="JSON array or {index: value}")
    p_norm.add_argument("--space", choices=("sp", "bp"), default="sp")
    p_norm.add_argument("--p", default="1")
    p_norm.add_argument("--mode", choices=("auto", "exact", "float"), default="auto")
    p_norm.set_defaults(func=_cmd_norm)

    p_tau = sub.add_parser("tau", help="covering number with certificate")
    p_tau.add_argument("--set", required=True, help="JSON integer array")
    p_tau.add_argument("--oracle", action="store_true", help="cross-check the oracle")
    p_tau.set_defaults(func=_cmd_tau)

    p_gl = sub.add_parser("glindex", help="truncated domination index")
    p_gl.add_argument("--M", required=True, help="rule or JSON array")
    p_gl.add_argument("--N", required=True, help="rule or JSON array")
    p_gl.add_argument("--K", type=int, required=True)
    p_gl.set_defaults(func=_cmd_glindex)

    p_con = sub.add_parser("construct", help="build the explicit objects")
    con_sub = p_con.add_subparsers(dest="what", required=True)
    c_mpb = con_sub.add_parser("mpb", help="interval partition")
    c_mpb.add_argument("--n", type=int, required=True)
    c_chain = con_sub.add_parser("maxchain", help="chain of maximal intervals")
    c_chain.add_argument("--start", type=int, required=True)
    c_chain.add_argument("--count", type=int, required=True)
    c_flat = con_sub.add_parser("flat", help="flat vector on a maximal chain")
    c_flat.add_argument("--start", type=int, required=True)
    c_flat.add_argument("--count", type=int, required=True)
    c_flat.add_argument("--p", default="2")
    c_flat.add_argument("--space", choices=("sp", "bp"), default="sp")
    c_jam = con_sub.add_parser("jameson", help="extremal family member")
    c_jam.add_argument("--k", type=int, required=True)
    c_jam.add_argument("--truncation", type=int, required=True)
    c_lset = con_sub.add_parser("lset", help="union of partition intervals")
    c_lset.add_argument("--N", required=True)
    c_lset.add_argument("--through", type=int, required=True)
    c_lset.add_argument("--n-max", dest="n_max", type=int, required=True)
    c_lset.add_argument("--prefix", type=int, default=30, help="prefix length to print")
    c_fam = con_sub.add_parser("adfamily", help="almost disjoint branch family")
    c_fam.add_argument("--count", type=int, required=True)
    c_fam.add_argument("--depth", type=int, required=True)
    c_wit = con_sub.add_parser("witness", help="divergence witness for (L_M, L_N)")
    c_wit.add_argument("--M", required=True)
    c_wit.add_argument("--N", required=True)
    c_wit.add_argument("--m", type=int, required=True)
    c_wit.add_argument("--n-max", dest="n_max", type=int, required=True)
    p_con.set_defaults(func=_cmd_construct)

    p_ver = sub.add_parser("verify", help="run a verification suite", epilog=_SIZES_HELP,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
    p_ver.add_argument("suite", choices=suites.SUITE_NAMES + ("all",))
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default="./reports")
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument(
        "--size",
        action="append",
        metavar="KEY=VALUE",
        help="override a suite size parameter (repeatable)",
    )
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`| head`): say nothing, and send what is
        # still buffered to devnull so the interpreter's final flush is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except TruncationError as exc:
        print(f"error (truncation): {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except SizeLimitError as exc:
        print(f"error (size limit): {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except OverflowError as exc:
        # float ** raises with an errno tuple, (34, 'Numerical result out of range');
        # other overflows (an int too large for a C index) name no float limit
        readable = exc.args and isinstance(exc.args[0], str)
        what = exc if readable else "a float result is out of range"
        if not readable or "float" in str(exc):
            what = f"{what}; the largest float is {sys.float_info.max!r}"
        print(f"error (size limit): {what}", file=sys.stderr)
        return EXIT_ORACLE
    except OracleLimitError as exc:
        print(f"error (oracle limit): {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except VerificationError as exc:
        print(f"error (verification): {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (InvalidInputError, SchreierLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # a bug: keep it apart from "verification failed"
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            limit = sys.get_int_max_str_digits()
            print(f"error (size limit): an integer has more than {limit} digits, Python's "
                  "int/str conversion limit (set by PYTHONINTMAXSTRDIGITS)", file=sys.stderr)
            return EXIT_ORACLE
        print(f"error (internal): {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
