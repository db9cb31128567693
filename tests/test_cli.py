import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schreierlab import cli, suites


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_norm_bp_example(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "--space", "bp", "--p", "2", "--vec", "[1,1,1]"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(math.sqrt(5))
    assert obj["witness"] == [[1], [2, 3]]
    assert obj["value_pow"] == "5/1"
    assert obj["mode"] == "exact"


def test_norm_sp_example(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "--space", "sp", "--p", "1", "--vec", "[1,1,1]"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 2.0
    assert obj["witness"] == [2, 3]


def test_norm_empty_vector(capsys):
    code, out, _ = run_cli(capsys, "norm", "--space", "sp", "--p", "1", "--vec", "[]")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 0.0 and obj["zero"] is True


def test_norm_rational_entries_and_modes(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "--vec", '{"2": "1/2", "3": "1/2"}', "--p", "1"
    )
    assert code == 0
    assert json.loads(out)["value_pow"] == "1/1"
    code, out, _ = run_cli(
        capsys, "norm", "--vec", "[0.5, 0.5]", "--p", "2", "--mode", "exact"
    )
    assert code == 2  # float entries cannot run exactly


def test_tau_example(capsys):
    code, out, _ = run_cli(capsys, "tau", "--set", "[1,2,3]", "--oracle")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 2 and obj["agrees"] is True
    assert obj["chain"] == [[1], [2, 3]]


def test_tau_oracle_limit_exit_code(capsys):
    big = json.dumps(list(range(1, 30)))
    code, _, err = run_cli(capsys, "tau", "--set", big, "--oracle")
    assert code == 4
    assert "oracle" in err


def test_glindex_example(capsys):
    code, out, _ = run_cli(capsys, "glindex", "--M", "even", "--N", "all", "--K", "10")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 1  # the evens are a spread of the naturals
    code, out, _ = run_cli(capsys, "glindex", "--M", "all", "--N", "arith:5:5", "--K", "10")
    assert json.loads(out)["value"] >= 3


def test_glindex_truncation_exit_code(capsys):
    code, _, err = run_cli(capsys, "glindex", "--M", "[1,2]", "--N", "all", "--K", "5")
    assert code == 3
    assert "truncation" in err


@pytest.mark.parametrize("op", ["double:", "doubleodd:", "union:even;"])
def test_glindex_refuses_more_than_100_rule_operators(capsys, op):
    code, out, err = run_cli(capsys, "glindex", "--M", op * 101 + "all", "--N", "all", "--K", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "101 operators" in err and "100 allowed" in err


@pytest.mark.parametrize("op", ["double:", "union:even;"])
def test_glindex_answers_100_nested_rule_operators(capsys, op):
    # inside pytest, whose own frames count toward the recursion limit
    code, out, err = run_cli(capsys, "glindex", "--M", op * 100 + "all", "--N", "all", "--K", "3")
    assert code == 0 and err == ""
    assert json.loads(out)["K"] == 3


def test_construct_mpb_echoes_covering_numbers(capsys):
    code, out, _ = run_cli(capsys, "construct", "mpb", "--n", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["tau1_G"] == [1, 2, 3, 4, 5]
    assert obj["G"][0] == [[1, 1]]


def test_construct_flat_and_maxchain(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "maxchain", "--start", "3", "--count", "2"
    )
    assert code == 0
    assert json.loads(out)["chain"] == [[3, 4, 5], [6, 7, 8, 9, 10, 11]]
    code, out, _ = run_cli(
        capsys,
        "construct", "flat", "--start", "3", "--count", "3", "--p", "2", "--space", "bp",
    )
    assert code == 0
    obj = json.loads(out)
    assert math.sqrt(3) <= obj["norm"] <= 2 * math.sqrt(3)


def test_construct_jameson(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "jameson", "--k", "2", "--truncation", "8"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["sup"] == "1/4" and obj["s1_norm_pow"] == "1/1"


def test_construct_witness(capsys):
    code, out, _ = run_cli(
        capsys,
        "construct", "witness", "--M", "all", "--N", "even", "--m", "3", "--n-max", "6",
    )
    assert code == 0
    assert json.loads(out)["tau1_of_selection"] == 3


def test_construct_adfamily(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "adfamily", "--count", "2", "--depth", "3"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["branches"]["000"] == [1, 2, 4, 8]
    assert obj["branches"]["100"] == [1, 3, 6, 12]


def test_verify_suite_writes_reports(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "mpb", "--seed", "3", "--out", str(tmp_path), "--size", "n_max=6",
    )
    assert code == 0
    assert "PASS mpb" in out
    assert (tmp_path / "mpb.json").exists()
    assert (tmp_path / "mpb.csv").exists()
    obj = json.loads((tmp_path / "mpb.json").read_text())
    assert obj["summary"]["failed"] == 0
    assert "elapsed" not in json.dumps(obj)


def test_verify_reports_are_byte_reproducible(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for out_dir in (a_dir, b_dir):
        code, _, _ = run_cli(
            capsys,
            "verify", "sigma", "--seed", "7", "--out", str(out_dir),
            "--size", "count=60",
        )
        assert code == 0
    assert (a_dir / "sigma.json").read_bytes() == (b_dir / "sigma.json").read_bytes()
    assert (a_dir / "sigma.csv").read_bytes() == (b_dir / "sigma.csv").read_bytes()


def test_verify_domination_at_large_k_finishes(tmp_path, capsys):
    # the truncated index is a max over K windows, so K=40 is as cheap as
    # K=12; no timing bound, a return to exponential search hangs here
    code, out, _ = run_cli(
        capsys,
        "verify", "domination", "--out", str(tmp_path),
        "--size", "K=40", "--size", "pairs=2", "--size", "coeffs_per_combo=2",
    )
    assert code == 0
    assert [line for line in out.splitlines() if "PASS" in line] == [
        "PASS domination: 1/1 checks"
    ]


def test_verify_unknown_suite_is_parse_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "nonsense")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert cli.main(["norm"]) == 2  # missing --vec


@pytest.mark.parametrize(
    "argv",
    [
        ("--vec", "[NaN,1]"),
        ("--vec", "[Infinity,1]"),
        ("--vec", "[1,1]", "--p", "1e999"),
    ],
)
def test_norm_rejects_non_finite_input(capsys, argv):
    code, out, err = run_cli(capsys, "norm", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "vec, p",
    [
        ("[1e200,1]", "2"),  # the float power raises
        ("[1" + "0" * 200 + ",1]", "2"),  # the exact power does not fit a float
        ('{"2": 1e308, "3": 1e308}', "1"),  # the float sum becomes inf
    ],
)
def test_norm_float_overflow_is_a_size_limit(capsys, vec, p):
    code, out, err = run_cli(capsys, "norm", "--vec", vec, "--p", p)
    assert code == 4
    assert out == ""
    assert err.startswith("error (size limit):") and err.count("\n") == 1
    assert f"the largest float is {sys.float_info.max!r}" in err


@pytest.mark.parametrize(
    "vec, p",
    [
        ("[1e200,1]", "2"),
        ("[1e300,1e300]", "1.5"),
    ],
)
def test_chain_norm_float_overflow_names_the_limit(capsys, vec, p):
    # float ** raises OverflowError(34, 'Numerical result out of range')
    code, out, err = run_cli(capsys, "norm", "--space", "bp", "--vec", vec, "--p", p)
    assert code == 4
    assert out == ""
    assert err == (
        "error (size limit): a float result is out of range; "
        f"the largest float is {sys.float_info.max!r}\n"
    )


def test_norm_past_the_chain_dp_limit_is_a_size_limit(capsys):
    # 200 points, not monotone: the chain DP refuses it, the Schreier scan
    # answers it
    vec = json.dumps([1 + i % 3 for i in range(200)])
    code, out, err = run_cli(capsys, "norm", "--space", "bp", "--p", "2", "--vec", vec)
    assert code == 4
    assert out == ""
    assert err.startswith("error (size limit):") and "chain DP limit" in err
    code, out, _ = run_cli(capsys, "norm", "--space", "sp", "--p", "2", "--vec", vec)
    assert code == 0 and json.loads(out)["value_pow"] == "521/1"


@pytest.mark.parametrize(
    "argv",
    [
        ("norm", "--vec", '["1/3"]', "--p", "10000"),  # 3^10000 has 4,772 digits
        ("construct", "mpb", "--n", "170"),
    ],
)
def test_integers_too_long_to_print_are_a_size_limit(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("error (size limit):") and err.count("\n") == 1
    assert f"{sys.get_int_max_str_digits()} digits" in err


BEYOND_FLOAT = "1" + "0" * 400  # 10^400, past the largest float


@pytest.mark.parametrize("space", ["sp", "bp"])
@pytest.mark.parametrize(
    "entry, what",
    [
        (BEYOND_FLOAT, "int too large to convert to float"),
        (f'"{BEYOND_FLOAT}/3"', "integer division result too large for a float"),
    ],
)
def test_float_mode_entry_overflows_name_the_conversion(capsys, space, entry, what):
    # the entry 1.5 puts the query in float mode, where the huge entry is
    # converted to a float before its power is taken
    vec = '{"1": 1.5, "2": ' + entry + "}"
    code, out, err = run_cli(capsys, "norm", "--space", space, "--p", "2", "--vec", vec)
    assert code == 4
    assert out == ""
    assert err == f"error (size limit): {what}; the largest float is {sys.float_info.max!r}\n"


def test_oversized_lset_prefix_is_refused_before_the_stream_is_read(capsys):
    code, out, err = run_cli(
        capsys, "construct", "lset", "--N", "all", "--through", "30", "--n-max", "30",
        "--prefix", "300000000",
    )
    assert code == 4
    assert out == ""
    assert err == "error (size limit): refusing to materialize 300000000 elements (limit 200000)\n"


def test_int_overflow_names_no_float_limit(capsys, monkeypatch):
    def broken(_):
        raise OverflowError("Python int too large to convert to C ssize_t")

    monkeypatch.setattr(cli.schreier, "tau1", broken)
    code, out, err = run_cli(capsys, "tau", "--set", "[1, 2]")
    assert code == 4
    assert out == ""
    assert err == "error (size limit): Python int too large to convert to C ssize_t\n"


def test_other_value_errors_stay_internal(capsys, monkeypatch):
    def broken(_):
        raise ValueError("boom")

    monkeypatch.setattr(cli.schreier, "tau1", broken)
    code, out, err = run_cli(capsys, "tau", "--set", "[1, 2]")
    assert code == 5
    assert err == "error (internal): ValueError: boom\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("tau", "--set", "[true,2]"),
        ("tau", "--set", "[false,2]"),
        ("glindex", "--M", "[true,3]", "--N", "all", "--K", "2"),
        ("glindex", "--M", "all", "--N", "[1,true]", "--K", "2"),
        ("construct", "witness", "--M", "[true,3]", "--N", "even", "--m", "3", "--n-max", "6"),
        ("construct", "lset", "--N", "[true,3]", "--through", "3", "--n-max", "4"),
    ],
)
def test_json_booleans_are_not_integers(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.endswith("must be a JSON array of integers\n")


@pytest.mark.parametrize(
    "value", ["1.5", "NaN", '"x"', "x", "true", "-3", "[1, NaN]", "[true]", "{}"]
)
def test_verify_rejects_bad_size_values(tmp_path, capsys, value):
    code, out, err = run_cli(
        capsys, "verify", "sigma", "--out", str(tmp_path), "--size", f"count={value}"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --size count wants") and err.count("\n") == 1
    assert not (tmp_path / "sigma.json").exists()


def test_size_values_are_counts_or_number_lists():
    assert cli._parse_sizes(["count=0", "p_list=[1.5, 2]", "starts=[]"]) == {
        "count": 0, "p_list": [1.5, 2], "starts": [],
    }


def test_uncaught_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(_):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.schreier, "tau1", broken)
    code, out, err = run_cli(capsys, "tau", "--set", "[1, 2]")
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err == "error (internal): RuntimeError: boom\n"


def test_a_reader_that_closes_the_pipe_early_gets_a_silent_exit_141():
    # `schreier-lab construct lset ... | head -c 100`: the L set's prefix is
    # about 1.5 MB, far more than a pipe holds, so the writer meets the closed pipe
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["construct", "lset", "--N", "all", "--through", "14", "--n-max", "14",
            "--prefix", "200000"]
    with subprocess.Popen([sys.executable, "-m", "schreierlab", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(100).startswith(b'{"prefix": [1, 2, 3,')
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_the_broken_pipe_handler_closes_the_devnull_descriptor(monkeypatch):
    # os.open, os.dup2 and os.close are stubs here, so no real descriptor
    # of the test process is touched
    calls = []
    monkeypatch.setattr(os, "open", lambda path, flags: calls.append(("open", path)) or 1234)
    monkeypatch.setattr(os, "dup2", lambda fd, fd2: calls.append(("dup2", fd, fd2)))
    monkeypatch.setattr(os, "close", lambda fd: calls.append(("close", fd)))

    class ClosedPipe(io.StringIO):
        def fileno(self):
            return 99

        def flush(self):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(["tau", "--set", "[1, 2]"]) == 141
    assert calls == [("open", os.devnull), ("dup2", 1234, 99), ("close", 1234)]


@pytest.mark.parametrize(
    "suite, size, knobs",
    [
        ("sigma", "count=[1,2]", ["count"]),
        ("sigma", "cnt=5", ["cnt", "count=1000"]),
        ("sigma", "count=0", ["count"]),
        ("lemma22", "max_m=0", ["max_m"]),
        ("lemma22", "starts=[]", ["starts"]),
        ("domination", "K=0", ["K"]),
        ("norm-oracle", "max_support=0", ["max_support"]),
        ("jameson", "p_list=[1]", ["p_list"]),
        ("norm-oracle", "window=5", ["window", "max_support"]),
        ("norm-oracle", "max_support=30", ["window", "max_support"]),
        ("jameson", "window=5", ["window", "max_support"]),
        ("all", "cnt=5", ["cnt"]),
        ("all", "starts=[]", ["starts"]),
        ("all", "window=5", ["window", "max_support"]),
        ("corollary64", "n_max=8", ["n_max"]),
        ("corollary64", "window=11", ["window", "n_max"]),
        ("all", "n_max=3", ["n_max"]),
        ("all", "window=12", ["window", "n_max"]),
    ],
)
def test_verify_refuses_sizes_before_any_work(tmp_path, capsys, suite, size, knobs):
    code, out, err = run_cli(
        capsys, "verify", suite, "--out", str(tmp_path), "--size", size
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --size ") and err.count("\n") == 1
    assert all(k in err for k in knobs)
    assert not tmp_path.exists() or list(tmp_path.iterdir()) == []


def test_verify_all_hands_each_suite_only_its_own_sizes(tmp_path, capsys):
    small = {
        "count": 5, "sign_indices": 2, "randoms_per_p": 2, "exhaustive_universe": 3,
        "random_count": 5, "max_m": 2, "starts": [3], "upper_count": 5, "max_k": 2,
        "pairs": 2, "K": 4, "coeffs_per_combo": 2,
    }
    argv = [f"--size={k}={json.dumps(v)}" for k, v in small.items()]
    code, out, _ = run_cli(capsys, "verify", "all", "--out", str(tmp_path), *argv)
    assert code == 0
    assert out.count("PASS ") == len(suites.SUITE_NAMES)
    for name in suites.SUITE_NAMES:
        params = json.loads((tmp_path / f"{name}.json").read_text())["params"]
        assert params == {k: v for k, v in small.items() if k in suites.SIZES[name]}
    assert [
        name for name in suites.SUITE_NAMES
        if "count" in json.loads((tmp_path / f"{name}.json").read_text())["params"]
    ] == ["sigma", "gl-bounds"]


def test_verify_help_lists_every_size_with_its_default(capsys):
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0
    for literal in ("count=1000", "K=12", "starts=[1,2,3,5,8]", "p_list=[1.5,2.0,3.0]"):
        assert literal in out
    for name, schema in suites.SIZES.items():
        line = next(line for line in out.splitlines() if line.split()[:1] == [name])
        for key, default in schema.items():
            shown = json.dumps(
                list(default) if isinstance(default, tuple) else default,
                separators=(",", ":"),
            )
            assert f" {key}={shown}" in line


def test_back_to_back_calls_match_calls_on_fresh_parsers(tmp_path, capsys, monkeypatch):
    """main reuses one parser per process; a run of calls that mixes
    commands, --size lists of different lengths, a call without --size and
    usage errors prints what the same calls print on fresh parsers."""
    calls = [
        ("norm", "--space", "bp", "--p", "2", "--vec", "[1,1,1]"),
        ("tau", "--set", "[1,2,3]", "--oracle"),
        ("verify", "sigma", "--seed", "7", "--size", "count=5"),
        ("verify", "mpb", "--size", "n_max=6"),
        ("verify", "mpb"),  # the earlier --size list must not carry over
        ("verify", "gl-bounds", "--size", "count=4", "--size", "K=6"),
        ("norm", "--vec", "[1,2]", "--space", "lp"),
        ("tau", "--set", "[2,3,5]"),
        ("verify", "sigma", "--seed", "8", "--size", "count=3"),
        ("norm", "--space", "sp", "--p", "1.5", "--vec", '{"3": "1/2", "5": 2}'),
    ]

    def run_all(out_dir):
        seen = []
        for argv in calls:
            argv = (*argv, "--out", str(out_dir)) if argv[0] == "verify" else argv
            code, out, err = run_cli(capsys, *argv)
            err = "".join(line for line in err.splitlines(True) if "elapsed:" not in line)
            seen.append((code, out, err))
        reports = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
        return seen, reports

    assert cli.build_parser() is cli.build_parser()
    cached = run_all(tmp_path / "cached")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = run_all(tmp_path / "fresh")
    assert cached == fresh
    assert [code for code, _, _ in cached[0]] == [0, 0, 0, 0, 0, 0, 2, 0, 0, 0]
    assert "PASS mpb: " in cached[0][4][1] and cached[0][4][1] != cached[0][3][1]
