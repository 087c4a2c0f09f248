import json
import resource
import signal
from pathlib import Path
from time import perf_counter

import pytest

from biforms import checks, cli, forms, parsing
from biforms.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_SEED0 = ROOT / "perfbench" / "data" / "registry_seed0.json"


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


def test_verify_to_an_unwritable_path_exits_2(monkeypatch, capsys, tmp_path):
    # refused before any check runs
    def no_run(*args):
        raise AssertionError("a check ran before --out was refused")

    monkeypatch.setattr(cli, "run_all", no_run)
    monkeypatch.setattr(cli, "run_check", no_run)
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        assert main(["verify", "--check", "C05", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1


def test_malformed_source_exits_2(capsys):
    assert main(["kernel", "--form", "X1*X2", "--r", "0", "--s", "0", "--source", "1"]) == 2
    assert "bad --source" in capsys.readouterr().err


def test_negative_source_degree_exits_2(capsys):
    # the message blames the degree, not the order it would put out of range
    assert main(["kernel", "--form", "X1*X2", "--r", "0", "--s", "0", "--source", "1,-2"]) == 2
    assert capsys.readouterr().err == "error: --source 1,-2: degrees must be >= 0\n"


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


_WORK = "more than 100000 term operations"


# each case names the message fragment that shows which bound refused it
@pytest.mark.parametrize("argv, message", [
    (["transvect", "--lhs", "X^99999999999", "--rhs", "X", "--r", "0"],
     "coefficients, more than 10000"),
    (["transvect", "--lhs", "(X+Y)^20000", "--rhs", "X", "--r", "0"], _WORK),
    (["transvect", "--lhs", "((X+Y)^100)^100", "--rhs", "X", "--r", "0"], _WORK),
    (["kernel", "--form", "X1*X2", "--r", "0", "--s", "0", "--source", "200,200"],
     "entries, more than 100000"),
    (["transvect", "--lhs", "(X+Y)^399*(X+Y)^399", "--rhs", "X", "--r", "0"], _WORK),
    (["transvect", "--lhs", "*".join(["X1^400"] * 5 + ["X2^400"] * 5), "--rhs", "X1",
      "--r", "0", "--s", "0"], "coefficients, more than 10000"),
    (["transvect", "--lhs", "((9^400)^400)^400*X", "--rhs", "X", "--r", "0"], _WORK),
    (["transvect", "--lhs", "(X1+Y1)^128*(X2+Y2)^128" + "*X1" * 300, "--rhs", "X1",
      "--r", "0", "--s", "0"], _WORK),
    (["transvect", "--lhs", _LONG_LITERALS, "--rhs", "X1", "--r", "0", "--s", "0"], _WORK),
    (["transvect", "--lhs", "1" * 4301 + "*X", "--rhs", "X", "--r", "0"],
     "integer literal longer than 4300 digits (at position 0)"),
    # a superscript is a digit to str.isdigit but no decimal digit to int
    (["transvect", "--lhs", "X^²", "--rhs", "X", "--r", "0"],
     "unexpected character '²' (at position 2)"),
    # an Arabic-Indic three is a decimal digit to str.isdecimal, but no ASCII literal
    (["transvect", "--lhs", "X^\u0663 + \u0664*Y^3", "--rhs", "X", "--r", "0"],
     "unexpected character '\u0663' (at position 2)"),
    # the input is accepted; its 5,000-digit result is refused, not printed
    (["transvect", "--lhs", f"({'9' * 1000}*X)^5", "--rhs", "X", "--r", "0"],
     "coefficient longer than 4300 digits"),
    # one nonzero Cayley term, 4300!^2; the other 4,300 orders vanish and are not visited
    (["transvect", "--lhs", "X^4300", "--rhs", "Y^4300", "--r", "4300"],
     "coefficient longer than 4300 digits"),
    # all 2,001 first-pair orders are nonzero, each a product of falling
    # factorials of thousands of digits: refused before the Cayley sum starts
    (["transvect", "--lhs", "X^2000*Y^2000", "--rhs", "X^2000*Y^2000", "--r", "2000"],
     "word operations, more than 1000000"),
    # a 1 x 10,000 map, but a kernel basis of 9,999 rows of 10,000 entries
    (["kernel", "--form", "X1^99*X2^99", "--r", "99", "--s", "99", "--source", "99,99"],
     "entries, more than 100000"),
    # both factors of the target's size are negative: the order is refused before the size
    (["kernel", "--form", "X1*Y2^2 + Y1*X2^2", "--r", "200", "--s", "200", "--source", "1,1"],
     "first-pair order 200 out of range"),
], ids=["huge-exponent", "dense-power", "nested-power", "huge-source",
        "long-product", "huge-form", "huge-coefficients", "product-chain", "long-literals",
        "overlong-literal", "superscript-exponent", "non-ascii-digit", "overlong-output",
        "vanishing-cayley-terms", "cayley-work", "huge-kernel-basis", "kernel-order-out-of-range"])
def test_hostile_input_exits_2_within_1s(argv, message, capsys):
    code, seconds = _bounded_main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert message in err
    assert seconds < 1


def test_readme_states_every_input_limit():
    text = (ROOT / "README.md").read_text()
    limits = " ".join(text[text.index("Input limits"):text.index("## Demos")].split())
    for value, unit in [(parsing.MAX_DEPTH, "deep"), (parsing.MAX_WORK, "term operations"),
                        (parsing.WEIGHT_BITS, "bits"), (parsing.MAX_DIGITS, "digits"),
                        (forms.MAX_DIM, "coefficients"), (cli.MAX_KERNEL_CELLS, "entries"),
                        (cli.MAX_CAYLEY_WORDS, "word operations")]:
        assert f"{value:,} {unit}" in limits, (value, unit)


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
