"""Span tracing around the calls into each schreierlab layer.

The traced pass replaces the public functions of each module (and a few
methods) with wrappers defined here, for the duration of the pass, and puts
every original back afterwards.  The program's own files are not touched:
spans are recorded from the benchmark's side of each call, which also
catches the calls one layer makes into another (suites -> norms, glindex ->
norms, constructions -> schreier, ...) because those go through the same
module attributes.

A span has a name, start, end, parent span and operation id.  Spans stay in
memory and are written out when the run ends.  A layer's busy time is its
self time: span duration minus the time covered by its child spans.  A call
made while a span of the same name is open (an oracle calling its own
helper) is folded into the open span instead of opening a new one.

Counts marked "computed" in BENCHMARK.json are derived from each call's
inputs with tracing paused, so they cost the measured spans nothing.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

COUNT_METRICS = (
    "norms.sp_scan.candidates",
    "norms.bp_dp.cells",
    "norms.refusals",
    "glindex.gl_index.selections",
    "schreier.tau1.intervals",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct_gl: set = set()
        self.op = -1
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._lab = None
        self._paused = False
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _call(self, name: str, fn, args, kwargs, after=None):
        stack = self._stack
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, name, perf_counter(), 0.0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._refusal(name, exc)
            raise
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - frame[2]
            self.self_s[name] += dur - frame[3]
            self.calls[name] += 1
            parent = stack[-1][0] if stack else -1
            if stack:
                stack[-1][3] += dur
            self.spans.append((span_id, parent, self.op, name, frame[2], end))
        if after is not None:
            with self.paused():
                after(result, *args, **kwargs)
        return result

    def _refusal(self, name: str, exc: Exception) -> None:
        if name.startswith("norms.") and isinstance(exc, self._lab.OracleLimitError):
            self.counts["norms.refusals"] += 1

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        prev, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = prev

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, classify, after=None, static=None):
        """`static` is the one name `classify` can return besides None; a call
        made while a span of that name is open skips classification."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if tracer._paused or (stack and stack[-1][1] == static):
                return fn(*args, **kwargs)
            tracer._paused = True
            try:
                name = classify(*args, **kwargs)
            finally:
                tracer._paused = False
            if name is None:
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs, after)

        return wrapper

    def _patch_function(self, module, attr: str, classify, after=None) -> None:
        """Replace every module-level binding of module.attr in the package."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, classify, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "schreierlab" or mod_name.startswith("schreierlab.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _patch_method(self, cls, attr: str, classify, static=None) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, classify, static=static))

    def install(self, lab) -> None:
        self._lab = lab
        norms, gl, sch, cons = lab.norms, lab.glindex, lab.schreier, lab.constructions
        named = lambda name: (lambda *a, **k: name)

        self._patch_function(norms, "schreier_norm", self._classify_sp)
        self._patch_function(norms, "baernstein_norm", self._classify_bp)
        self._patch_method(norms.NormResult, "check", named("norms.check"))
        self._patch_function(norms, "oracle_norm_pow", named("norms.oracle"))
        self._patch_function(norms, "oracle_norm", named("norms.oracle"))

        self._patch_function(gl, "gl_index_truncated", named("glindex.gl_index"),
                             after=self._count_gl)
        self._patch_function(gl, "check_domination", named("glindex.check_domination"))
        # Only prefix is wrapped, the entry point of gl_index and of the union
        # queries: element is called once per generated element inside the
        # union merge, and a wrapper there would mostly time itself.
        rule_backed = lambda idx, *a, **k: (
            "glindex.index_element" if idx.materialized_limit is None else None)
        self._patch_method(gl.IndexSet, "prefix", rule_backed, "glindex.index_element")

        self._patch_function(sch, "tau1", self._classify_tau1)
        self._patch_method(sch.CoveringCertificate, "verify",
                           named("schreier.certificate_verify"))
        self._patch_function(sch, "tau1_oracle", named("schreier.tau1_oracle"))

        self._patch_function(cons, "flat_vector", named("constructions.flat_vector"))
        for attr in ("mpb_partition", "l_set", "divergence_witness",
                     "divergence_certificates"):
            self._patch_function(cons, attr, named("constructions.mpb"))

        self._patch_function(lab.cli, "main", named("cli.main"))
        self._patch_function(lab.suites, "run_suite",
                             lambda name, *a, **k: f"suites.{name}")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- classification and computed counts -------------------------------------

    def _engine_kind(self, x, p, mode) -> str | None:
        try:
            resolved = self._lab.norms.resolve_mode(x, p, mode)
        except self._lab.InvalidInputError:
            return None
        if resolved == "float":
            return "float"
        return "int" if all(type(v) is int for _, _, v in x.runs) else "frac"

    def _classify_sp(self, x, p, mode="auto", *, scan_limit=None):
        kind = self._engine_kind(x, p, mode)
        if kind is None or x.is_zero:
            return None
        limit = self._lab.norms.DEFAULT_SCAN_LIMIT if scan_limit is None else scan_limit
        if x.support_size <= limit:
            self.counts["norms.sp_scan.candidates"] += x.support_size
            return f"norms.sp_scan.{kind}"
        return "norms.sp_window" if x.is_nonincreasing_abs() else "norms.sp_refused"

    def _classify_bp(self, x, p, mode="auto", *, dp_limit=None):
        kind = self._engine_kind(x, p, mode)
        if kind is None or x.is_zero:
            return None
        limit = self._lab.norms.DEFAULT_DP_LIMIT if dp_limit is None else dp_limit
        n = x.support_size
        if n <= limit:
            self.counts["norms.bp_dp.cells"] += n * (n + 1) // 2
            return f"norms.bp_dp.{kind}"
        return "norms.bp_sandwich" if x.is_nonincreasing_abs() else "norms.bp_refused"

    def _classify_tau1(self, a):
        IntSet = self._lab.IntSet
        if isinstance(a, IntSet):
            self.counts["schreier.tau1.intervals"] += len(a.intervals)
        elif isinstance(a, (list, tuple, set, frozenset)):
            self.counts["schreier.tau1.intervals"] += len(IntSet.from_iterable(a).intervals)
        return "schreier.tau1"

    def _count_gl(self, result, m, n, k):
        # selections: sum over j1 of C(K - j1, min(n_j1, K - j1 + 1) - 1), the
        # selection space gl_index_truncated enumerates before pruning
        mp, np_ = m.prefix(k), n.prefix(k)
        self.distinct_gl.add((mp, np_, k))
        self.counts["glindex.gl_index.selections"] += sum(
            math.comb(k - j1, min(np_[j1 - 1], k - j1 + 1) - 1) for j1 in range(1, k + 1)
        )

    # -- per-layer metrics ------------------------------------------------------

    def layer_value(self, metric: str) -> float:
        """Value of one per-layer metric named as in BENCHMARK.json."""
        if metric == "glindex.gl_index.distinct_frac":
            calls = self.calls["glindex.gl_index"]
            return len(self.distinct_gl) / calls if calls else 0.0
        if metric in COUNT_METRICS:
            return self.counts[metric]
        layer, _, field = metric.rpartition(".")
        if field == "busy_s":
            return self.self_s.get(layer, 0.0)
        if field == "calls":
            return self.calls[layer]
        raise KeyError(metric)

    def write_spans(self, path) -> None:
        """Spans as CSV, times in seconds from the first span's start."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for sid, parent, op, name, start, end in sorted(self.spans):
                fh.write(f"{sid},{parent},{op},{name},{start - t0:.9f},{end - t0:.9f}\n")

    def table(self) -> list[str]:
        total = sum(self.self_s.values()) or 1.0
        rows = [f"{'layer':34s} {'calls':>8s} {'self_s':>10s} {'share':>7s}"]
        for name, busy in sorted(self.self_s.items(), key=lambda t: -t[1]):
            rows.append(f"{name:34s} {self.calls[name]:8d} {busy:10.4f} {busy / total:7.1%}")
        return rows
