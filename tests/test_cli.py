import json
import resource
import signal
from pathlib import Path
from time import perf_counter

import pytest

from biforms import checks, cli
from biforms.cli import main

GOLDEN_SEED0 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "registry_seed0.json"


def test_verify_single_check(capsys, tmp_path):
    assert main(["verify", "--check", "C05", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"][0]["id"] == "C05"
    assert payload["summary"]["pass"] == 1
    out = tmp_path / "report.md"
    assert main(["verify", "--check", "C14", "--format", "md", "--out", str(out)]) == 0
    assert "| C14 | pass |" in out.read_text()


def test_verify_all_checks_matches_the_seed0_golden(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--seed", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    for check in payload["checks"]:
        del check["ms"]
    assert json.dumps(payload, indent=2) == GOLDEN_SEED0.read_text()


def test_verify_failing_check_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(
        checks.REGISTRY, "C05", ("stub", lambda rng, seed: ("fail", {"reason": "forced"}))
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


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(f):
        raise RuntimeError("broken\nhandler")
    monkeypatch.setattr(cli, "branch_form", broken)
    assert main(["curve", "--form", "X1*Y2^2 + Y1*X2^2", "--branch"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError('broken\\nhandler')\n"
    monkeypatch.setitem(checks.REGISTRY, "C05", ("stub", lambda rng, seed: 1 / 0))
    assert main(["verify", "--check", "C05"]) == 3
    assert capsys.readouterr().err.count("\n") == 1


def test_usage_error_exits_2():
    assert main(["transvect", "--lhs", "X"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["curve", "--form", "0", "--span"]) == 2
    assert main(["kernel", "--form", "0", "--r", "0", "--s", "0", "--source", "1,1"]) == 2


def test_malformed_source_exits_2(capsys):
    assert main(["kernel", "--form", "X1*X2", "--r", "0", "--s", "0", "--source", "1"]) == 2
    assert "bad --source" in capsys.readouterr().err


def _bounded_main(argv):
    """(exit code, seconds) of main(argv), stopped by an alarm after 2 s and
    by MemoryError past 1 GB more address space, so that an input that is
    not refused fails the test instead of running away."""
    with open("/proc/self/statm") as fh:
        used = int(fh.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = used + 2 ** 30
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)

    def stop(signum, frame):
        raise TimeoutError("input not refused within 2 s")

    previous = signal.signal(signal.SIGALRM, stop)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    start = perf_counter()
    try:
        code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    return code, perf_counter() - start


_BIG = "1234567890" * 430
# 46,000 pairs of 14,000-bit fractions: each piece is small, the products are not
_LONG_LITERALS = (f"({_BIG}/{_BIG[:-1]}7*X1 + {_BIG[:-2]}9/{_BIG[:-3]}1*Y1)*(X1+Y1)^150"
                  f"*({_BIG}/{_BIG[:-1]}3*X2 + {_BIG[:-1]}1/{_BIG[:-3]}7*Y2)*(X2+Y2)^150")


@pytest.mark.parametrize("argv", [
    ["transvect", "--lhs", "X^99999999999", "--rhs", "X", "--r", "0"],
    ["transvect", "--lhs", "(X+Y)^20000", "--rhs", "X", "--r", "0"],
    ["transvect", "--lhs", "((X+Y)^100)^100", "--rhs", "X", "--r", "0"],
    ["kernel", "--form", "X1*X2", "--r", "0", "--s", "0", "--source", "200,200"],
    ["transvect", "--lhs", "(X+Y)^399*(X+Y)^399", "--rhs", "X", "--r", "0"],
    ["transvect", "--lhs", "*".join(["X1^400"] * 5 + ["X2^400"] * 5), "--rhs", "X1",
     "--r", "0", "--s", "0"],
    ["transvect", "--lhs", "((9^400)^400)^400*X", "--rhs", "X", "--r", "0"],
    ["transvect", "--lhs", "(X1+Y1)^128*(X2+Y2)^128" + "*X1" * 300, "--rhs", "X1",
     "--r", "0", "--s", "0"],
    ["transvect", "--lhs", _LONG_LITERALS, "--rhs", "X1", "--r", "0", "--s", "0"],
], ids=["huge-exponent", "dense-power", "nested-power", "huge-source",
        "long-product", "huge-form", "huge-coefficients", "product-chain", "long-literals"])
def test_hostile_input_exits_2_within_1s(argv, capsys):
    code, seconds = _bounded_main(argv)
    assert code == 2, capsys.readouterr().err
    assert seconds < 1


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
