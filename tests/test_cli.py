import json
import math

import pytest

from schreierlab import cli


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
