"""schreier-lab benchmark: one workload per run, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload norm-queries --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
  verify         the nine verification suites at a tenth of acceptance size
  norm-queries   schreier_norm / baernstein_norm queries, each self-checked
  index-queries  truncated indices, tau1, interval partitions, union prefixes

Every workload is a closed loop: one client, one process, no extra threads,
each operation issued when the previous one returned.  A run first sets up
SETUP_SAMPLES times (a fresh import of the package from ./src plus the
seeded inputs of the first pass) and reports the median as setup_s.  It then
makes passes until --seconds have passed, at least MIN_PASSES of them and,
on the query workloads, at least MIN_QUERY_OPS operations in all, so that
op_p95_ms has at least ten samples beyond it.  Each pass runs on fresh
seeded inputs, generated before the pass and not timed.

wall_s is the median pass wall, where a pass wall is the time spent inside
its operations (the benchmark's own untimed checks between operations are
left out).  ops_per_s is the operations completed over the time spent in
them, over all untraced passes; op_p50_ms and op_p95_ms are percentiles of
every operation latency of the untraced passes.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced passes
for half of --seconds, then pass 0 twice more on freshly generated copies of
its inputs, untraced and then traced; it prints the per-layer self-time
table and the per-layer metrics (trace.overhead_frac compares those two
passes) and writes every span to .bench_out/.

Correctness: each operation self-checks (see workloads.py), and after the
timed passes the small instances of the first pass are compared with the
exhaustive oracles.  Typed refusals and mismatches count as failed, and so
does a traced pass whose results differ from the untraced pass 0.  The
digest line is sha256 over the first pass's canonical results; it repeats
for a seed across runs and across --trace.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_PASSES = 4
SETUP_SAMPLES = 7
MIN_QUERY_OPS = 200

SUITE_NAMES = ("norm-oracle", "tau-oracle", "lemma22", "jameson", "domination",
               "sigma", "mpb", "corollary64", "gl-bounds")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _per_layer() -> tuple[tuple[str, str], ...]:
    rows = []
    for engine in ("sp_scan", "bp_dp"):
        for kind in ("int", "frac", "float"):
            rows += [(f"norms.{engine}.{kind}.busy_s", "s"),
                     (f"norms.{engine}.{kind}.calls", "count")]
    rows += [("norms.sp_scan.candidates", "count"), ("norms.bp_dp.cells", "count")]
    for layer in ("norms.sp_window", "norms.bp_sandwich", "norms.check", "norms.oracle"):
        rows += [(f"{layer}.busy_s", "s"), (f"{layer}.calls", "count")]
    rows += [
        ("norms.refusals", "count"),
        ("glindex.gl_index.busy_s", "s"),
        ("glindex.gl_index.calls", "count"),
        ("glindex.gl_index.selections", "count"),
        ("glindex.gl_index.distinct_frac", "fraction"),
        ("glindex.check_domination.busy_s", "s"),
        ("glindex.check_domination.calls", "count"),
        ("glindex.index_element.busy_s", "s"),
        ("schreier.tau1.busy_s", "s"),
        ("schreier.tau1.calls", "count"),
        ("schreier.tau1.intervals", "count"),
        ("schreier.certificate_verify.busy_s", "s"),
        ("schreier.tau1_oracle.busy_s", "s"),
        ("schreier.tau1_oracle.calls", "count"),
        ("constructions.flat_vector.busy_s", "s"),
        ("constructions.mpb.busy_s", "s"),
        ("cli.main.busy_s", "s"),
        ("cli.main.calls", "count"),
    ]
    rows += [(f"suites.{name}.busy_s", "s") for name in SUITE_NAMES]
    rows += [("trace.overhead_frac", "fraction")]
    return tuple(rows)


PER_LAYER = _per_layer()


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    checks: int = 0
    failed: int = 0
    wrong: int = 0
    canon: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def import_lab():
    """Import schreierlab afresh from ./src, never from anywhere else."""
    for name in [n for n in sys.modules if n == "schreierlab" or n.startswith("schreierlab.")]:
        del sys.modules[name]
    lab = importlib.import_module("schreierlab")
    for sub in ("cli", "suites"):
        importlib.import_module(f"schreierlab.{sub}")
    if Path(lab.__file__).resolve().parent != (SRC / "schreierlab").resolve():
        raise RuntimeError(f"schreierlab imported from {lab.__file__}, not from {SRC}")
    return lab


def run_pass(lab, ops, tracer=None, keep=False) -> PassResult:
    """Run one pass; `keep` retains its canonical results and outputs.

    Typed refusals (size, oracle and truncation limits) count as failed; any
    other error of the package counts as failed and wrong."""
    refusals = (lab.OracleLimitError, lab.TruncationError)
    out = PassResult()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        t0 = perf_counter()
        try:
            result = op.run()
        except lab.SchreierLabError as exc:
            out.latencies.append(perf_counter() - t0)
            out.checks += 1
            out.failed += 1
            out.wrong += not isinstance(exc, refusals)
            if keep:
                out.canon.append(["error", type(exc).__name__])
                out.outputs.append(None)
            continue
        out.latencies.append(perf_counter() - t0)
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            checks, failed, canon = op.verify(result)
        out.checks += checks
        out.failed += failed
        out.wrong += failed
        if keep:
            out.canon.append(canon)
            out.outputs.append(result)
    return out


def oracle_sample(ops, first: PassResult) -> tuple[int, int]:
    """(compared, mismatches) over the first pass's small instances."""
    compared = mismatches = 0
    for op, result in zip(ops, first.outputs):
        if op.oracle is None or result is None:
            continue
        compared += 1
        if not op.oracle(result):
            mismatches += 1
    return compared, mismatches


def digest(first: PassResult) -> str:
    raw = json.dumps(first.canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode()).hexdigest()


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    import workloads

    build = workloads.BUILDERS[workload]
    min_ops = 0 if workload == "verify" else MIN_QUERY_OPS

    setups = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        lab = import_lab()
        first_ops = build(lab, seed, 0, scale)
        setups.append(perf_counter() - t0)

    # With --trace 1 the untraced passes use half the time, then the inputs of
    # pass 0 are generated again and run traced.
    passes: list[PassResult] = []
    budget = seconds / 2 if trace else seconds
    t_start = perf_counter()
    k = 0
    while True:
        ops = first_ops if k == 0 else build(lab, seed, k, scale)
        passes.append(run_pass(lab, ops, keep=k == 0))
        k += 1
        ran = sum(len(p.latencies) for p in passes)
        if perf_counter() - t_start >= budget and ran >= min_ops and len(passes) >= MIN_PASSES:
            break
    first = passes[0]
    all_passes = list(passes)
    compared, mismatches = oracle_sample(first_ops, first)

    tracer = None
    if trace:
        import spans

        # The reference for trace.overhead_frac: pass 0 untraced once more, as
        # warm as the traced pass that follows it.
        reference = run_pass(lab, build(lab, seed, 0, scale))
        traced_ops = build(lab, seed, 0, scale)
        tracer = spans.Tracer()
        tracer.install(lab)
        try:
            traced = run_pass(lab, traced_ops, tracer, keep=True)
        finally:
            tracer.uninstall()
        all_passes += [reference, traced]
        # tracing must not change a result
        mismatches += digest(traced) != digest(first)

    attempted = sum(p.checks for p in all_passes)
    failed = sum(p.failed for p in all_passes) + mismatches
    wrong = sum(p.wrong for p in all_passes) + mismatches
    walls = [p.wall for p in passes]
    latencies = [t for p in passes for t in p.latencies]

    lines = [
        f"workload {workload} seed {seed} scale {scale:g}: {len(passes)} untraced passes, "
        f"latency sample count {len(latencies)}",
        "pass walls (s): " + " ".join(f"{w:.3f}" for w in walls),
        "set-up times (s): " + " ".join(f"{t:.4f}" for t in setups),
        f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} checks; "
        f"{compared} small instances compared with the oracles, {mismatches} mismatched)",
        f"digest {workload} sha256:{digest(first)}",
    ]
    if trace:
        overhead = traced.wall / reference.wall - 1.0
        metrics = {}
        for name, unit in PER_LAYER:
            value = overhead if name == "trace.overhead_frac" else tracer.layer_value(name)
            metrics[name] = {"value": value, "unit": unit}
        path = OUT_DIR / f"spans-{workload}-seed{seed}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(path)
        lines += tracer.table()
        lines.append(f"{len(tracer.spans)} spans written to {path}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "ops_per_s": len(latencies) / sum(walls),
            "op_p50_ms": 1000 * quantile(latencies, 50),
            "op_p95_ms": 1000 * quantile(latencies, 95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    for line in lines:
        print(line)
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "norm-queries", "index-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply operation counts and sizes (smoke tests use a tiny scale)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    if not (SRC / "schreierlab" / "__init__.py").is_file():
        print(f"error: no schreierlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
