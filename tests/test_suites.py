import inspect
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schreierlab
from schreierlab import cli, suites
from schreierlab.errors import InvalidInputError


def test_sizes_are_the_keyword_defaults_of_each_suite():
    assert suites.SUITE_NAMES == tuple(suites.SIZES)
    assert suites.SIZES["domination"] == {"pairs": 50, "K": 12, "coeffs_per_combo": 100}
    assert suites.SIZES["lemma22"] == {"max_m": 20, "starts": (1, 2, 3, 5, 8)}
    assert suites.SIZES["sigma"] == {"count": 1000}


def test_sizes_are_a_copy_of_the_defaults(monkeypatch):
    monkeypatch.setitem(suites.SIZES["sigma"], "count", 1)
    assert suites.suite_sigma.__kwdefaults__ == {"count": 1000}


def test_parser_reuses_the_sizes_help_built_at_import(monkeypatch):
    def rebuilt(*_):
        raise AssertionError("sizes described again after import")

    monkeypatch.setattr(suites, "describe_sizes", rebuilt)
    monkeypatch.setattr(inspect, "signature", rebuilt)
    cli.build_parser.__wrapped__()  # a fresh tree, not the one cached for the process


@pytest.mark.parametrize(
    "name, sizes",
    [
        ("sigma", {"count": True}),
        ("sigma", {"count": 2.0}),
        ("lemma22", {"starts": (1, True)}),
        ("lemma22", {"starts": "15"}),
        ("jameson", {"p_list": (2.0, float("inf"))}),
        ("jameson", {"p_list": [0.5]}),
        ("jameson", {"max_support": 31}),
        ("corollary64", {"K": 3}),
    ],
)
def test_run_suite_refuses_before_any_work(monkeypatch, tmp_path, name, sizes):
    monkeypatch.setitem(suites._SUITES, name, None)  # calling it would raise TypeError
    with pytest.raises(InvalidInputError, match=r"^--size \w+ wants "):
        suites.run_suite(name, sizes=sizes, out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_params_record_exactly_the_given_sizes():
    assert suites.run_suite("sigma", seed=1, sizes={"count": 3}).params == {"count": 3}
    assert suites.run_suite("lemma22", seed=1, sizes={"starts": (2,), "max_m": 1}).params == {
        "starts": [2], "max_m": 1,
    }
    assert suites.run_suite("mpb", seed=1, sizes={}).params == {}


class _FakePool:
    def __init__(self, sizes, n):
        sizes.append(n)

    def __enter__(self):
        return self

    def __exit__(self, *_):
        return False

    def map(self, fn, tasks, chunksize):
        assert chunksize >= 1
        return [fn(t) for t in tasks]


class _FakeContext:
    def __init__(self):
        self.pool_sizes = []

    def Pool(self, n):
        return _FakePool(self.pool_sizes, n)


@pytest.mark.parametrize(
    "jobs, cpus, tasks, started",
    [
        (64, 3, 10, [3]),
        (2, 8, 10, [2]),
        (8, 8, 3, [3]),
        (8, None, 10, []),
        (1, 8, 10, []),
        (8, 8, 1, []),
    ],
)
def test_pmap_starts_at_most_one_worker_per_cpu_and_task(monkeypatch, jobs, cpus, tasks, started):
    ctx = _FakeContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda _: ctx)
    monkeypatch.setattr(suites.os, "cpu_count", lambda: cpus)
    assert suites._pmap(lambda t: t * t, list(range(tasks)), jobs) == [t * t for t in range(tasks)]
    assert ctx.pool_sizes == started


def test_importing_the_cli_does_not_load_multiprocessing():
    src = str(Path(schreierlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, schreierlab.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_a_tally_over_no_checks_fails():
    rec = suites._tally("c", "t", "i", lambda item: iter(()), range(3), 1, "violations")
    assert rec["expected"] == "0 violations in 0" and rec["pass"] is False


def test_domination_computes_each_pairs_index_once(monkeypatch):
    calls = []
    real = suites.gl.gl_index_truncated

    def counted(m, n, k):
        calls.append(k)
        return real(m, n, k)

    monkeypatch.setattr(suites.gl, "gl_index_truncated", counted)
    (rec,) = suites.suite_domination(0, 1, pairs=4, coeffs_per_combo=2)
    assert rec["pass"]
    assert calls == [12] * 4


def test_lemma22_chain_past_2_63_points_passes():
    # the chain of 66 maximal sets from 1 has runs longer than sys.maxsize
    records = list(suites._lemma22_chain(1, 66))
    assert len(records) == 7
    assert all(r["pass"] for r in records), [r["check"] for r in records if not r["pass"]]
