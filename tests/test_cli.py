import argparse
import concurrent.futures
import hashlib
import io
import multiprocessing
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings

from comprelie import cli
from comprelie.cli import build_parser, main
from comprelie.handles import HANDLE_NAMES, get_handle
from comprelie.lincomb import LinComb, fmt_lincomb, parse_lincomb, unit
from comprelie.ptree import parse, serialize
from comprelie.shuffle import parse_word

from oracles import parser_inputs

# Child processes import the package from here, whatever the PYTHONPATH.
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


# --- golden invocations -------------------------------------------------------

def test_eval_golden(capsys):
    rc, out = run(capsys, "eval", "--algebra", "cp", "--op", "prelie",
                  "{[d]}", "{[e]}")
    assert rc == 0
    assert out == "1*{[d([e])]}\n"


def test_kerdelta_golden(capsys):
    rc, out = run(capsys, "kerdelta", "--degree", "4", "--labels", "2")
    assert rc == 0
    assert out == "25\n"


def test_kerdelta_bench_invocation(capsys):
    rc, out = run(capsys, "kerdelta", "--degree", "7", "--labels", "2",
                  "--force")
    assert (rc, out) == (0, "4342\n")


def test_kerdelta_reaches_degree_8(capsys, monkeypatch):
    monkeypatch.setenv("COMPRELIE_MAXDEG", "8")
    rc, out = run(capsys, "kerdelta", "--degree", "8", "--labels", "2",
                  "--force")
    assert (rc, out) == (0, "27608\n")


def test_kerdelta_reaches_degree_9(capsys, monkeypatch):
    monkeypatch.setenv("COMPRELIE_MAXDEG", "9")
    rc, out = run(capsys, "kerdelta", "--degree", "9", "--labels", "2",
                  "--force")
    assert (rc, out) == (0, "180198\n")


def test_enum_golden(capsys):
    rc, out = run(capsys, "enum", "--n", "3", "--labels", "1",
                  "--mode", "partitioned")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert len(set(lines)) == 5
    assert lines == sorted(lines)
    for line in lines:
        assert serialize(parse(line)) == line


def test_enum_writes_nothing_for_an_empty_listing(capsys):
    assert run(capsys, "enum", "--n", "0", "--mode", "one-rooted") == (0, "")
    assert run(capsys, "enum", "--n", "0") == (0, "{}\n")


def test_enum_other_modes(capsys):
    assert run(capsys, "enum", "--n", "0", "--labels", "1")[1] == "{}\n"
    rc, out = run(capsys, "enum", "--n", "3", "--labels", "1",
                  "--mode", "plain-forests")
    assert len(out.splitlines()) == 4
    rc, out = run(capsys, "enum", "--n", "2", "--alphabet", "a,b",
                  "--mode", "plain-trees")
    assert out.splitlines() == ["{[a([a])]}", "{[a([b])]}",
                               "{[b([a])]}", "{[b([b])]}"]


# --- expression parsing -------------------------------------------------------

def test_parse_lincomb_terms():
    from fractions import Fraction
    x = parse_lincomb("2*{[d]} + 1/2*{[e]} - {[d,d]}", parse)
    assert x[parse("{[d]}")] == 2
    assert x[parse("{[e]}")] == Fraction(1, 2)
    assert x[parse("{[d,d]}")] == -1
    assert len(x) == 3
    assert parse_lincomb("0", parse) == LinComb()
    assert parse_lincomb("-{[d]}", parse)[parse("{[d]}")] == -1
    assert parse_lincomb("-2*{[d]}", parse)[parse("{[d]}")] == -2
    assert parse_lincomb("eps", parse_word) == unit(())


def test_parse_lincomb_roundtrip():
    for text in ("0", "1*{[d([e])]}", "-3/2*{[e,e]} + 2*{[d]}"):
        x = parse_lincomb(text, parse)
        assert parse_lincomb(fmt_lincomb(x, serialize), parse) == x
    # formatted output is itself valid input
    assert fmt_lincomb(parse_lincomb("-1*{[e]} + 1*{[d]}", parse),
                       serialize) == "1*{[d]} + -1*{[e]}"


def test_eval_expression_inputs(capsys):
    rc, out = run(capsys, "eval", "--algebra", "cp", "--op", "mul",
                  "{[d]} + 2*{[e]}", "{[d]}")
    assert rc == 0
    assert parse_lincomb(out.strip(), parse) == \
        parse_lincomb("1*{[d,d]} + 2*{[d,e]}", parse)


def test_eval_word_algebras(capsys):
    rc, out = run(capsys, "eval", "--algebra", "tvf", "--op", "mul",
                  "a", "b.b")
    assert out == "1*a.b.b + 1*b.a.b + 1*b.b.a\n"
    rc, out = run(capsys, "eval", "--algebra", "degneg1", "--op", "prelie",
                  "x", "eps")
    assert rc == 0


# --- coproducts ---------------------------------------------------------------

def test_coprod_tensor_format(capsys):
    rc, out = run(capsys, "coprod", "--algebra", "cp", "{[d]}")
    assert out == "1*{[d]} (x) {} + 1*{} (x) {[d]}\n"
    rc, out = run(capsys, "coprod", "--algebra", "tvf", "a.b")
    assert out == "1*a (x) b + 1*a.b (x) eps + 1*eps (x) a.b\n"


def test_delta_verb(capsys):
    rc, out = run(capsys, "delta", "{[d([e],[f])]}")
    assert out == "1*{[d([e])]} (x) {[f]} + 1*{[d([f])]} (x) {[e]}\n"


# --- cm / diamond / theta / psi -----------------------------------------------

def test_cm_verbs(capsys):
    assert run(capsys, "cm", "d.e")[1] == "1*{[d([e])]}\n"
    rc, out = run(capsys, "cm", "--show", "delta", "d.e.f")
    assert out == "1*d (x) e.f + 2*d.e (x) f + 1*d.f (x) e\n"


def test_diamond_variants(capsys):
    assert run(capsys, "diamond", "--variant", "cp",
               "{[d]}", "{[e]}")[1] == "1*{[d([e])]}\n"
    # grafting at counter zero vanishes in the counter-lowering variant
    assert run(capsys, "diamond", "--variant", "ucp",
               "{[d]}", "{[e]}")[1] == "0\n"
    assert run(capsys, "diamond", "--variant", "ucp",
               "{[d:1]}", "{[e]}")[1] == "1*{[d([e])]}\n"


def test_theta_verb(capsys):
    rc, out = run(capsys, "theta", "{[d([d])]}")
    assert out == "1*{[<{[d]}>([<{[d]}>])]}\n"


def test_psi_inverse_inverts(capsys):
    tree = "{[d([d],[d])]}"
    rc, image = run(capsys, "psi", tree)
    rc, back = run(capsys, "psi", "--inverse", image.strip())
    assert back == "1*%s\n" % tree


# --- rigidity -----------------------------------------------------------------

def test_rigidity_iso_report(capsys):
    rc, out = run(capsys, "rigidity", "iso", "--algebra", "hck",
                  "--maxdeg", "2")
    assert rc == 0
    lines = out.splitlines()
    assert "degree 1" in lines and "degree 2" in lines
    assert "words: v1_0.v1_0 v2_0" in lines
    i = lines.index("checks:")
    assert lines[i + 1:] == [
        "omega-iso hck 1 PASS",
        "omega-iso hck 2 PASS",
        "omega-coalgebra hck 2 PASS",
        "hopf-iso hck 1 PASS",
        "hopf-iso hck 2 PASS",
        "varpi-primitives hck 2 PASS",
        "hopf-projection hck 2 PASS",
        "hopf-coalgebra hck 2 PASS",
        "hopf-multiplicative hck 2 PASS",
    ]


def test_rigidity_obstruction(capsys):
    assert run(capsys, "rigidity", "obstruction")[1] == "infeasible\n"
    rc, out = run(capsys, "rigidity", "obstruction", "--labels", "1")
    assert out == "solution: 1/2*{[d1,d1]}\n"


# --- check --------------------------------------------------------------------

def test_check_lines(capsys):
    rc, out = run(capsys, "check", "--algebra", "cp", "--maxdeg", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "commutativity cp 2 PASS"
    assert len(lines) == 9
    assert all(l.endswith("PASS") for l in lines)


def test_check_bare_prelie(capsys):
    rc, out = run(capsys, "check", "--algebra", "dual-ucp", "--maxdeg", "2")
    assert out == "prelie dual-ucp 2 PASS\n"


def test_check_failure_exits_1(capsys):
    rc, out = run(capsys, "check", "--algebra", "degneg1",
                  "--abc", "1,1,1", "--maxdeg", "3")
    assert rc == 1
    assert "prelie degneg1 3 FAIL" in out


def test_check_on_hyperboloid_passes(capsys):
    # a=0, bc=0 solves a*a - a + b*c = 0
    rc, out = run(capsys, "check", "--algebra", "degneg1",
                  "--abc", "0,2,0", "--maxdeg", "3")
    assert rc == 0


def test_check_degneg1_on_any_three_letters(capsys):
    # the family is laid onto the alphabet's three letters in order: the
    # same reports, and off the surface the same failure
    assert run(capsys, "check", "--algebra", "degneg1", "--maxdeg", "3",
               "--alphabet", "a,b,c") == run(
        capsys, "check", "--algebra", "degneg1", "--maxdeg", "3")
    rc, out = run(capsys, "check", "--algebra", "degneg1", "--abc", "1,1,1",
                  "--maxdeg", "3", "--alphabet", "a,b,c")
    assert rc == 1
    assert "prelie degneg1 3 FAIL" in out


@pytest.mark.parametrize("alphabet, count", [("p,q", 2), ("a,b,c,e", 4)])
def test_check_degneg1_needs_three_letters(capsys, monkeypatch, alphabet,
                                           count):
    # refused before degneg1 is swept, and before any report is printed
    swept = []
    real = cli.run_all

    def recording(alg, *args, **kwargs):
        swept.append(alg.name)
        return real(alg, *args, **kwargs)

    monkeypatch.setattr(cli, "run_all", recording)
    for algebra in ("degneg1", "all"):
        rc = main(["check", "--algebra", algebra, "--maxdeg", "1",
                   "--alphabet", alphabet])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == ("error: degneg1 needs an alphabet of 3 letters, "
                       f"got {count}\n")
    assert "degneg1" not in swept


@pytest.mark.parametrize("argv, digest", [
    ("check --algebra all --maxdeg 4",
     "21507d1f0fbc49f2f98ad49efdf7a10adfb03b6353f298a1d1d81352af710a2c"),
    ("check --algebra all --maxdeg 3 --selftest",
     "9ef09754e66d8aa534f1bb2fae405239f6a1dcc3803e4007e641daa6ce57cf4c"),
    ("check --algebra all --maxdeg 2 --selftest",
     "07d7af5a9c155220a9316c7b474f3c26701098dbeda1813103fdfb9da0385c7e"),
])
def test_check_stdout_is_pinned(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("maxdeg", ["0", "1", "2"])
def test_check_selftest_below_degree_3(capsys, maxdeg):
    # the corruptions need degree 3 to break every law, so the self-test
    # runs there whatever --maxdeg is
    rc, out = run(capsys, "check", "--algebra", "all", "--maxdeg", maxdeg,
                  "--selftest")
    assert rc == 0
    assert [ln for ln in out.splitlines() if ln.startswith("selftest")] == [
        f"selftest {name} PASS" for name in HANDLE_NAMES]


def test_check_jobs_matches_serial(capsys):
    rc1, out1 = run(capsys, "check", "--algebra", "all", "--maxdeg", "2")
    rc2, out2 = run(capsys, "check", "--algebra", "all", "--maxdeg", "2",
                    "--jobs", "2")
    assert (rc1, out1) == (rc2, out2)
    assert len(out1.splitlines()) == 50


def test_check_selftest(capsys):
    rc, out = run(capsys, "check", "--algebra", "cp", "--maxdeg", "2",
                  "--selftest")
    assert rc == 0
    assert out.splitlines()[-1] == "selftest cp PASS"


def test_check_selftest_every_algebra(capsys):
    rc, out = run(capsys, "check", "--algebra", "all", "--maxdeg", "3",
                  "--selftest")
    assert rc == 0
    assert [ln for ln in out.splitlines() if ln.startswith("selftest")] == [
        f"selftest {name} PASS" for name in HANDLE_NAMES]


def test_check_sampled_mode(capsys):
    rc, out = run(capsys, "check", "--algebra", "tvf", "--maxdeg", "3",
                  "--mode", "sampled", "--samples", "10", "--seed", "3")
    assert rc == 0


def test_check_pool_never_outnumbers_the_algebras(capsys, monkeypatch):
    # a stand-in pool that records its size and maps in this process, so
    # no worker is started whatever --jobs says
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    serial = run(capsys, "check", "--algebra", "all", "--maxdeg", "1")
    for jobs, size in (("100000", 7), ("3", 3)):
        assert run(capsys, "check", "--algebra", "all", "--maxdeg", "1",
                   "--jobs", jobs) == serial
        assert sizes.pop() == size
    run(capsys, "check", "--algebra", "cp", "--maxdeg", "1", "--jobs", "8")
    assert sizes == []


def test_check_pool_sends_only_what_pickles(capsys, monkeypatch):
    # a spawned worker shares no memory with this process, as one started
    # by forkserver (Python 3.14's default on Linux) does not either: the
    # job and the handles reach it pickled
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        partial(concurrent.futures.ProcessPoolExecutor,
                mp_context=multiprocessing.get_context("spawn")))
    rc, out = run(capsys, "check", "--algebra", "all", "--maxdeg", "2",
                  "--selftest", "--jobs", "2")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "07d7af5a9c155220a9316c7b474f3c26701098dbeda1813103fdfb9da0385c7e")


@pytest.fixture
def check_calls(monkeypatch):
    """What `check` asks of `get_handle` and `run_all`, in order."""
    calls = []
    real_handle, real_run_all = cli.get_handle, cli.run_all

    def get_handle(name, *args):
        calls.append(("get_handle", name))
        return real_handle(name, *args)

    def run_all(alg, *args, **kwargs):
        calls.append(("run_all", alg.name))
        return real_run_all(alg, *args, **kwargs)

    monkeypatch.setattr(cli, "get_handle", get_handle)
    monkeypatch.setattr(cli, "run_all", run_all)
    return calls


def test_check_builds_each_handle_once_before_any_sweep(capsys, check_calls):
    rc, out = run(capsys, "check", "--algebra", "all", "--maxdeg", "1",
                  "--selftest")
    assert rc == 0
    assert check_calls == ([("get_handle", n) for n in HANDLE_NAMES]
                           + [("run_all", n) for n in HANDLE_NAMES])


def test_check_refuses_a_parameter_before_any_sweep(capsys, check_calls):
    # degneg1, fifth of the algebras, takes no two-letter alphabet
    assert main(["check", "--algebra", "all", "--alphabet", "p,q",
                 "--maxdeg", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: degneg1 needs an alphabet of 3 letters, "
                            "got 2\n")
    assert [c for c, _ in check_calls] == ["get_handle"] * 5


# --- exit codes and guards ----------------------------------------------------

def test_guard_needs_force(capsys):
    assert main(["enum", "--n", "6", "--labels", "1"]) == 3
    capsys.readouterr()
    assert main(["enum", "--n", "6", "--labels", "1", "--force"]) == 0
    capsys.readouterr()


def test_env_cap_beats_force(capsys, monkeypatch):
    monkeypatch.setenv("COMPRELIE_MAXDEG", "4")
    assert main(["kerdelta", "--degree", "5", "--labels", "1",
                 "--force"]) == 3
    err = capsys.readouterr().err
    assert "COMPRELIE_MAXDEG=4" in err


def test_env_cap_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("COMPRELIE_MAXDEG", "x")
    assert main(["kerdelta", "--degree", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: COMPRELIE_MAXDEG='x' is not a nonnegative integer\n")


@pytest.mark.parametrize("argv", [
    ["enum", "--n", "1", "--labels", "6"],
    ["enum", "--n", "1", "--alphabet", "a,b,c,d,e,f"],
    ["enum", "--n", "0", "--labels", "100000", "--force"],
    ["rigidity", "obstruction", "--cap", "8"],
    ["rigidity", "obstruction", "--labels", "8"],
])
def test_label_count_and_cap_are_guarded(capsys, monkeypatch, argv):
    monkeypatch.delenv("COMPRELIE_MAXDEG", raising=False)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds" in captured.err


def test_label_count_and_cap_within_bounds(capsys, monkeypatch):
    monkeypatch.delenv("COMPRELIE_MAXDEG", raising=False)
    assert main(["enum", "--n", "1", "--labels", "6", "--force"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    # obstruction has no --force: COMPRELIE_MAXDEG alone bounds it
    assert main(["rigidity", "obstruction", "--cap", "6"]) == 0
    assert main(["rigidity", "obstruction", "--labels", "7"]) == 0
    capsys.readouterr()


def test_parse_error_exits_2(capsys):
    assert main(["eval", "--algebra", "cp", "--op", "prelie",
                 "{[d", "{[e]}"]) == 2
    assert main(["delta", "{[d],[e]}"]) == 2
    assert main(["eval", "--algebra", "dual-ucp", "--op", "mul",
                 "{[d]}", "{[d]}"]) == 2
    assert main(["coprod", "--algebra", "dual-cp", "{[d]}"]) == 2
    capsys.readouterr()


def test_overlong_counter_exits_2(capsys):
    """Python refuses to convert more than 4300 digits; that is a parse
    error at the counter's position, not an internal one."""
    assert main(["delta", "{[d:%s]}" % ("9" * 5000)]) == 2
    err = capsys.readouterr().err
    assert err == "error: counter of 5000 digits at position 4 is too long\n"


def test_zero_denominator_exits_2(capsys):
    assert main(["eval", "--algebra", "cp", "1/0*{[d]}", "{[d]}"]) == 2
    assert main(["check", "--algebra", "degneg1", "--maxdeg", "1",
                 "--abc", "1/0,1,1"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_bad_word_letter_exits_2(capsys):
    assert main(["eval", "--algebra", "tvf", "a.b", "{[d]}"]) == 2
    assert main(["cm", "d.e f"]) == 2
    assert main(["cm", "d..e"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad letter" in captured.err


@pytest.mark.parametrize("argv", [
    ["eval", "--algebra", "tvf", "a.z", "b"],
    ["eval", "--algebra", "tvf", "--op", "mul", "a", "b + 2*q.a"],
    ["coprod", "--algebra", "tvf", "a.b.c"],
    ["eval", "--algebra", "degneg1", "x.q", "y"],
    ["eval", "--algebra", "degneg1", "x", "a"],
    ["coprod", "--algebra", "degneg1", "x - q"],
])
def test_word_letter_outside_the_alphabet_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["coprod", "--algebra", "cp", "{[d],[e]}"],
    ["coprod", "--algebra", "ucp", "{[d],[e]}"],
    ["coprod", "--algebra", "hck", "{[d,e]}"],
    ["eval", "--algebra", "cp", "{[d],[e]}", "{}"],
    ["eval", "--algebra", "dual-ucp", "{}", "{[d]}"],
])
def test_tree_outside_the_basis_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "outside the" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--algebra", "ucp", "{[d:2,e([d:1],[e])]}", "{}"],
    ["eval", "--algebra", "dual-ucp", "{[d:1([e])]}", "{[e([e,e])]}"],
    ["coprod", "--algebra", "hck", "{[d],[e([d],[e])]}"],
    ["coprod", "--algebra", "cp", "{[d,e([d,e])]}"],
])
def test_tree_in_the_basis_is_accepted(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["enum", "--n", "-2"],
    ["kerdelta", "--degree", "-1"],
    ["check", "--algebra", "cp", "--maxdeg", "-3"],
    ["rigidity", "iso", "--algebra", "cp", "--maxdeg", "-1"],
])
def test_negative_degree_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be nonnegative" in captured.err


@pytest.mark.parametrize("argv", [
    ["rigidity", "obstruction", "--labels", "0"],
    ["check", "--algebra", "cp", "--maxdeg", "2", "--labels", "0"],
    ["enum", "--n", "3", "--labels", "-2"],
    ["kerdelta", "--degree", "3", "--alphabet", ","],
    ["check", "--algebra", "tvf", "--alphabet", ""],
    ["check", "--algebra", "cp", "--mode", "sampled", "--samples", "-3"],
    ["check", "--algebra", "cp", "--samples", "0"],
    ["rigidity", "obstruction", "--cap", "-1"],
    ["check", "--algebra", "cp", "--jobs", "0"],
    ["check", "--algebra", "all", "--jobs", "-4"],
])
def test_count_flag_out_of_range_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_count_flags_at_their_least_value(capsys):
    assert main(["rigidity", "obstruction", "--cap", "0"]) == 0
    assert main(["check", "--algebra", "cp", "--maxdeg", "1", "--mode",
                 "sampled", "--samples", "1", "--jobs", "1"]) == 0
    assert main(["enum", "--n", "1", "--alphabet", " ,x"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "{[x]}"


@pytest.mark.parametrize("argv", [
    ["enum", "--n", "1", "--alphabet", "d e,f(x"],
    ["enum", "--n", "2", "--alphabet", "d,d"],
    ["rigidity", "iso", "--algebra", "cp", "--maxdeg", "2", "--alphabet",
     "d,d"],
    ["check", "--algebra", "tvf", "--maxdeg", "1", "--alphabet", "a,b.c"],
    ["rigidity", "obstruction", "--alphabet", "d, e ,d"],
])
def test_bad_alphabet_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --alphabet ")


def test_word_algebras_parse_the_alphabet_like_every_verb(capsys,
                                                        monkeypatch):
    # blank parts and the spaces around letters are dropped, as for trees
    swept = []
    real = cli.get_handle

    def recording(name, labels=("d",), alphabet=None, abc=None):
        swept.append(alphabet)
        return real(name, labels, alphabet, abc)

    monkeypatch.setattr(cli, "get_handle", recording)
    for alphabet in ("a,b", "a, b", "a,,b", " a ,b,"):
        assert main(["check", "--algebra", "tvf", "--maxdeg", "1",
                     "--alphabet", alphabet]) == 0
    assert swept == [("a", "b")] * 4


def _every_verb_on_every_handle():
    """(argv, what the handle lacks or None): one degree-1 key each."""
    lacks = {("mul", "dual-ucp"): "has no commutative product",
             ("coprod", "dual-cp"): "has no coproduct",
             ("coprod", "dual-ucp"): "has no coproduct"}
    runs = []
    for name in HANDLE_NAMES:
        alg = get_handle(name)
        key = alg.key_str(alg.basis(1)[0])
        runs += [(["eval", "--algebra", name, "--op", op, key, key], op)
                 for op in ("prelie", "mul")]
        runs += [(["coprod", "--algebra", name, key], "coprod"),
                 (["check", "--algebra", name, "--maxdeg", "1"], "check")]
    runs += [(["rigidity", "iso", "--algebra", name, "--maxdeg", "2"], "iso")
             for name in ("cp", "hck")]
    return [pytest.param(argv, lacks.get((what, argv[2])), id=" ".join(argv))
            for argv, what in runs]


@pytest.mark.parametrize("argv,lacks", _every_verb_on_every_handle())
def test_every_verb_on_every_handle(argv, lacks):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    if lacks is None:
        assert (rc, err.getvalue()) == (0, "")
        assert out.getvalue()
    else:
        assert rc == 2
        assert out.getvalue() == ""
        assert err.getvalue() == f"error: {argv[2]} {lacks}\n"


def _surface(parser, verb=()):
    """verb (and subverb) -> the option strings its parser accepts."""
    out = {" ".join(verb): [o for a in parser._actions
                            for o in a.option_strings]} if verb else {}
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            for name, sub in a.choices.items():
                out.update(_surface(sub, verb + (name,)))
    return out


def test_cli_surface_is_pinned():
    # a change that adds or drops a flag shows up here
    h = ["-h", "--help"]
    alphabet = ["--labels", "--alphabet"]
    assert _surface(build_parser()) == {
        "enum": h + ["--n", "--mode"] + alphabet + ["--force"],
        "eval": h + ["--algebra", "--op"],
        "coprod": h + ["--algebra"],
        "delta": h,
        "kerdelta": h + ["--degree"] + alphabet + ["--force"],
        "cm": h + ["--show", "--force"],
        "diamond": h + ["--variant"],
        "theta": h,
        "psi": h + ["--inverse"],
        "rigidity": h,
        "rigidity iso": h + ["--algebra", "--maxdeg"] + alphabet
        + ["--force"],
        "rigidity obstruction": h + alphabet + ["--cap"],
        "check": h + ["--algebra", "--maxdeg", "--mode", "--seed",
                      "--samples", "--selftest", "--abc", "--jobs"]
        + alphabet + ["--force"],
    }


def exits_0_or_2(argv):
    """Run `main` in process: exit 0 with output and a quiet stderr, or
    exit 2 with nothing on stdout and one error line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert rc == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


@settings(max_examples=200, deadline=None)
@given(parser_inputs)
def test_delta_on_any_text_exits_0_or_2(text):
    exits_0_or_2(["delta", text])


@pytest.mark.parametrize("algebra", ["ucp", "cp", "hck"])
@settings(max_examples=200, deadline=None)
@given(text=parser_inputs)
def test_coprod_on_any_text_exits_0_or_2(algebra, text):
    exits_0_or_2(["coprod", "--algebra", algebra, text])


DEEP_PATH = "{[" + "d([" * 399 + "d" + "])" * 399 + "]}"


@pytest.mark.parametrize("argv", [
    ["delta", DEEP_PATH],
    ["coprod", "--algebra", "cp", DEEP_PATH],
])
def test_deep_input_exits_3(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(t):
        raise MemoryError

    monkeypatch.setattr(cli, "delta_perm", exhausted)
    assert main(["delta", "{[d]}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_dead_check_worker_exits_3():
    # a worker that dies (the kernel's OOM kill, say) is a resource bound,
    # not a failed check; fork, so the worker runs the patched run_all
    code = ("import multiprocessing, os, sys\n"
            "multiprocessing.set_start_method('fork')\n"
            "from comprelie import cli\n"
            "cli.run_all = lambda *args, **kwargs: os._exit(9)\n"
            "sys.exit(cli.main(['check', '--algebra', 'all', '--maxdeg', "
            "'1', '--jobs', '2']))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, cwd=SRC)
    assert (r.returncode, r.stdout, r.stderr) == (
        3, "", "error: a check worker process died\n")


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["bogus"])
    assert e.value.code == 2


def test_cm_rejects_empty_word(capsys):
    assert main(["cm", "eps"]) == 2
    capsys.readouterr()


# --- determinism and the installed entry point ---------------------------------

def test_identical_invocations_identical_bytes():
    cmd = [sys.executable, "-m", "comprelie.cli", "rigidity", "iso",
           "--algebra", "cp", "--maxdeg", "3"]
    a = subprocess.run(cmd, capture_output=True, text=True, cwd=SRC)
    b = subprocess.run(cmd, capture_output=True, text=True, cwd=SRC)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_module_entry_point():
    r = subprocess.run([sys.executable, "-m", "comprelie.cli", "eval",
                        "--algebra", "cp", "--op", "prelie",
                        "{[d]}", "{[e]}"], capture_output=True, text=True,
                       cwd=SRC)
    assert r.returncode == 0
    assert r.stdout == "1*{[d([e])]}\n"


def test_import_leaves_the_process_pool_out():
    code = ("import sys, comprelie.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, cwd=SRC)
    assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("extra,lines", [([], 50), (["--selftest"], 57)],
                         ids=["sweep", "selftest"])
def test_check_jobs_in_a_fresh_process_matches_serial(extra, lines):
    # here the pool's module is first imported inside `check`
    cmd = [sys.executable, "-m", "comprelie.cli", "check", "--algebra",
           "all", "--maxdeg", "2", *extra, "--jobs"]
    one, two = (subprocess.run(cmd + [jobs], capture_output=True, cwd=SRC)
                for jobs in ("1", "2"))
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout
    assert len(one.stdout.splitlines()) == lines


@pytest.mark.parametrize("argv,first", [
    # 111 kB of output, more than the pipe and both stdio buffers hold: the
    # CLI is still printing when the reader closes its end
    (["enum", "--n", "6", "--labels", "2", "--mode", "one-rooted", "--force"],
     b"{[d1([d1([d1([d1([d1([d1])])])])])]}\n"),
    # one line, still buffered when the reader has already gone
    (["eval", "--algebra", "cp", "--op", "prelie", "{[d]}", "{[e]}"], None),
    (["enum", "--help"], None),
], ids=["printing", "buffered", "help"])
def test_closed_stdout_exits_without_traceback(argv, first):
    # stdout block-buffered, as Python leaves a pipe by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    p = subprocess.Popen([sys.executable, "-m", "comprelie.cli", *argv],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         cwd=SRC, env=env)
    if first is not None:
        assert p.stdout.readline() == first
    p.stdout.close()
    err = p.stderr.read()
    p.stderr.close()
    assert p.wait(timeout=60) == cli.EXIT_CLOSED_PIPE
    assert err == b""
