import json

from biforms.cli import main
from biforms import checks


def test_verify_single_check(capsys, tmp_path):
    assert main(["verify", "--check", "C05", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"][0]["id"] == "C05"
    assert payload["summary"]["pass"] == 1
    out = tmp_path / "report.md"
    assert main(["verify", "--check", "C14", "--format", "md", "--out", str(out)]) == 0
    assert "| C14 | pass |" in out.read_text()


def test_verify_failing_check_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(
        checks.REGISTRY, "C05", ("stub", lambda rng: ("fail", {"reason": "forced"}))
    )
    assert main(["verify", "--check", "C05"]) == 1


def test_verify_unknown_check_exits_2(capsys):
    assert main(["verify", "--check", "C99"]) == 2


def test_transvect_binary(capsys):
    assert main(["transvect", "--lhs", "X^2*Y^6", "--rhs", "X^4", "--r", "2"]) == 0
    assert capsys.readouterr().out.strip() == "360*X^4*Y^4"


def test_transvect_biform(capsys):
    code = main([
        "transvect",
        "--lhs", "X1*X2^2*Y2^6 + Y1*X2^6*Y2^2",
        "--rhs", "X1*Y2^4 + Y1*X2^4",
        "--r", "1", "--s", "2",
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_transvect_parse_error_exits_2(capsys):
    assert main(["transvect", "--lhs", "X^2 +", "--rhs", "Y", "--r", "0"]) == 2
    assert main(["transvect", "--lhs", "X", "--rhs", "Y", "--r", "5"]) == 2
    assert main(["transvect", "--lhs", "X + X^2", "--rhs", "Y", "--r", "0"]) == 2
    assert main(["transvect", "--lhs", "X1*X2 + Y1", "--rhs", "X1", "--r", "0", "--s", "0"]) == 2
    assert main(["transvect", "--lhs", "0", "--rhs", "X", "--r", "0"]) == 2
    assert main(["transvect", "--lhs", "X1", "--rhs", "0", "--r", "0", "--s", "0"]) == 2


def test_deeply_nested_form_exits_2(capsys):
    form = "X1*Y2^2 + Y1*X2^2"
    assert main(["curve", "--form", "(" * 50 + form + ")" * 50, "--span"]) == 0
    assert main(["curve", "--form", "(" * 3000 + form + ")" * 3000, "--span"]) == 2
    assert "nesting" in capsys.readouterr().err


def test_usage_error_exits_2():
    assert main(["transvect", "--lhs", "X"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["curve", "--form", "0", "--span"]) == 2
    assert main(["kernel", "--form", "0", "--r", "0", "--s", "0", "--source", "1,1"]) == 2


def test_kernel_command(capsys):
    code = main([
        "kernel",
        "--form", "X1*X2^3*Y2^3 + Y1*(X2^4*Y2^2 + X2^2*Y2^4)",
        "--r", "1", "--s", "2", "--source", "1,2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "rank: 5" in out
    assert "kernel dimension: 1" in out
    assert "kernel basis: X1*X2*Y2 - 4/3*Y1*X2^2 - 4/3*Y1*Y2^2" in out


def test_curve_commands(capsys):
    form = "X1*Y2^2 + Y1*X2^2"
    assert main(["curve", "--form", form, "--span"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["curve", "--form", form, "--branch"]) == 0
    branch = capsys.readouterr().out.strip()
    assert branch == "4*X*Y"
    assert main(["curve", "--form", form, "--degree"]) == 0
    assert capsys.readouterr().out.strip() == "1"
