"""Command-line front end.

Verbs:
  enum       list canonical basis elements of a given size
  eval       apply `prelie` or `mul` of an algebra to two linear combinations
  coprod     apply an algebra's coproduct
  delta      block-pruning coproduct of a partitioned tree
  kerdelta   kernel dimension of the block-pruning coproduct per degree
  cm         Connes-Moscovici elements and their index-word coproduct
  diamond    grafting products dual to the cutting coproducts
  theta      contraction morphism onto trees over the generator alphabet
  psi        block-coarsening morphism (or its inverse)
  rigidity   cofreeness isomorphisms (iso) and the counterexample (obstruction)
  check      run the axiom sweeps, optionally the harness self-test

Linear combinations on the command line look like the output format:
terms `coeff*KEY` or bare `KEY`, joined by ` + ` or ` - ` (spaces required
around the sign).  Tree keys use the `{[d:k([e],[f])]}` grammar, word keys
are dot-separated letters with `eps` for the empty word.

Exit codes: 0 ok, 1 a requested check failed, 2 bad arguments or
unparseable input (including negative size flags, a COMPRELIE_MAXDEG
that is not a nonnegative integer, --labels, --samples or --jobs below 1,
an --alphabet with no letter, a letter outside [A-Za-z0-9_]+ or a
repeated letter, a word with a letter outside its algebra's alphabet, and
a tree outside its algebra's basis shapes; `check` builds every handle
before its first sweep, so a parameter one refuses costs no sweep),
3 resource bound exceeded (including input nested too deeply for the
recursion limit, running out of memory, and a `check --jobs` worker
process that dies), 141 (128 + SIGPIPE, what a
shell reports for a process that SIGPIPE ends) when the reader closes
stdout before the output is written, as `| head` does; the rest of the
output is dropped without a traceback.
Size flags (degrees, --n, the word length, the label count and --cap)
above 5 need --force; the COMPRELIE_MAXDEG environment variable (default
7) is a hard ceiling, and the only bound of `rigidity obstruction`, which
has no --force.  Identical invocations produce byte-identical output.
"""

import argparse
import os
import sys
from functools import partial

from .axioms import all_pass, report_lines, run_all, selftest_gaps
from .dual import diamond, diamond_down, psi_inverse, psi_map, theta
from .handles import HANDLE_NAMES, get_handle
from .lincomb import (bilinear_extend, fmt_lincomb, fmt_scalar, fmt_tensor2,
                      parse_lincomb, parse_scalar)
from .ptree import (LABEL_RE, ParseError, enum_one_rooted, enum_partitioned,
                    enum_plain_forests, enum_plain_trees, is_partitioned_tree,
                    parse, serialize)
from .rigidity import HopfIso, TruncatedBialgebra, cofree_obstruction
from .shuffle import fmt_word, parse_word
from .ucp import cm_delta_closed, cm_x, delta_perm, kernel_delta_dim

SOFT_BOUND = 5
EXIT_CLOSED_PIPE = 141


class CliError(Exception):
    """Bad input on the command line (exit 2)."""


class ResourceBound(Exception):
    """A degree flag exceeds its bound (exit 3)."""


def guard(value: int, force: bool, what: str) -> None:
    """Refuse negative size values (bad input), and values beyond the soft
    bound (without --force) or beyond the COMPRELIE_MAXDEG hard ceiling
    (always)."""
    if value < 0:
        raise CliError(f"{what} must be nonnegative, got {value}")
    raw = os.environ.get("COMPRELIE_MAXDEG", "7")
    if not raw.isdecimal():
        raise CliError(f"COMPRELIE_MAXDEG={raw!r} is not a nonnegative integer")
    cap = int(raw)
    if value > cap:
        raise ResourceBound(
            f"{what} {value} exceeds COMPRELIE_MAXDEG={cap}")
    if value > SOFT_BOUND and not force:
        raise ResourceBound(
            f"{what} {value} exceeds the default bound {SOFT_BOUND}; "
            "pass --force to proceed")


def at_least(value: int, low: int, what: str) -> int:
    """Refuse a count-like flag below its least meaningful value."""
    if value < low:
        raise CliError(f"{what} must be at least {low}, got {value}")
    return value


def labels_from(args, force: bool) -> tuple:
    """--alphabet a,b,c wins and must name distinct [A-Za-z0-9_]+ letters
    (blank parts dropped); else --labels k (at least 1) means d1..dk."""
    if args.alphabet is None:
        k = at_least(args.labels, 1, "--labels")
        guard(k, force, "--labels")
        return tuple(f"d{i}" for i in range(1, k + 1))
    labels = tuple(p.strip() for p in args.alphabet.split(",") if p.strip())
    if not labels:
        raise CliError(f"--alphabet {args.alphabet!r} names no letter")
    for letter in labels:
        if not LABEL_RE.fullmatch(letter):
            raise CliError(f"--alphabet letter {letter!r} is not "
                           "[A-Za-z0-9_]+")
    if len(set(labels)) < len(labels):
        raise CliError(f"--alphabet {args.alphabet!r} repeats a letter")
    guard(len(labels), force, "--alphabet size")
    return labels


# ---------------------------------------------------------------------------
# Verbs.
# ---------------------------------------------------------------------------

_ENUMERATORS = {
    "partitioned": enum_partitioned,
    "one-rooted": enum_one_rooted,
    "plain-trees": enum_plain_trees,
    "plain-forests": enum_plain_forests,
}


def cmd_enum(args) -> int:
    guard(args.n, args.force, "--n")
    items = _ENUMERATORS[args.mode](args.n, labels_from(args, args.force))
    lines = sorted(serialize(t) for t in items)
    if lines:
        # One write: under PYTHONUNBUFFERED a print per line is two
        # syscalls, tens of thousands for a large listing.
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_eval(args) -> int:
    alg = get_handle(args.algebra)
    op = alg.prelie if args.op == "prelie" else alg.mul
    if op is None:
        raise CliError(f"{args.algebra} has no commutative product")
    x = parse_lincomb(args.x, alg.parse_key)
    y = parse_lincomb(args.y, alg.parse_key)
    print(fmt_lincomb(bilinear_extend(op, x, y), alg.key_str))
    return 0


def cmd_coprod(args) -> int:
    alg = get_handle(args.algebra)
    if alg.coproduct is None:
        raise CliError(f"{args.algebra} has no coproduct")
    x = parse_lincomb(args.x, alg.parse_key)
    print(fmt_tensor2(x.map_linear(alg.coproduct), alg.key_str))
    return 0


def cmd_delta(args) -> int:
    t = parse(args.tree)
    if not is_partitioned_tree(t):
        raise CliError(f"{serialize(t)} is not a partitioned tree")
    print(fmt_tensor2(delta_perm(t), serialize))
    return 0


def cmd_kerdelta(args) -> int:
    guard(args.degree, args.force, "--degree")
    print(kernel_delta_dim(args.degree, labels_from(args, args.force)))
    return 0


def cmd_cm(args) -> int:
    word = parse_word(args.word)
    if not word:
        raise CliError("the index word must be nonempty")
    guard(len(word), args.force, "word length")
    if args.show == "x":
        print(fmt_lincomb(cm_x(word), serialize))
    else:
        print(fmt_tensor2(cm_delta_closed(word), fmt_word))
    return 0


# One grafting rule, `ptree.grafts` into every child block and a new one,
# underlies three preLie structures: on one-rooted trees with counters
# (each graft lowers its vertex's counter), on one-rooted trees without,
# and on arbitrary partitioned forests.
_DIAMONDS = {"ucp": diamond_down, "cp": diamond, "ext": diamond}


def cmd_diamond(args) -> int:
    x = parse_lincomb(args.x, parse)
    y = parse_lincomb(args.y, parse)
    print(fmt_lincomb(bilinear_extend(_DIAMONDS[args.variant], x, y),
                      serialize))
    return 0


def cmd_theta(args) -> int:
    x = parse_lincomb(args.tree, parse)
    print(fmt_lincomb(x.map_linear(theta), serialize))
    return 0


def cmd_psi(args) -> int:
    x = parse_lincomb(args.tree, parse)
    fn = psi_inverse if args.inverse else psi_map
    print(fmt_lincomb(x.map_linear(fn), serialize))
    return 0


def cmd_rigidity_iso(args) -> int:
    guard(args.maxdeg, args.force, "--maxdeg")
    alg = get_handle(args.algebra, labels=labels_from(args, args.force))
    tb = TruncatedBialgebra(alg, args.maxdeg)
    iso = HopfIso(tb)
    om = iso.omega
    for n in range(1, args.maxdeg + 1):
        print(f"degree {n}")
        print("words: " + " ".join(fmt_word(w) for w in om.words(n)))
        print("basis: " + " ".join(alg.key_str(k) for k in tb.slices[n]))
        print("omega:")
        for row in om.matrix(n):
            print(_fmt_row(row))
        print("F:")
        for row in iso.matrix(n):
            print(_fmt_row(row))
    reports = iso.run_checks()
    print("checks:")
    for line in report_lines(reports):
        print(line)
    return 0 if all_pass(reports) else 1


def _fmt_row(row) -> str:
    return " ".join(fmt_scalar(c) for c in row)


def cmd_rigidity_obstruction(args) -> int:
    # Degree 2 only, so no --force: COMPRELIE_MAXDEG alone bounds it.
    guard(args.cap, True, "--cap")
    sol = cofree_obstruction(labels_from(args, True), counter_cap=args.cap)
    if sol is None:
        print("infeasible")
    else:
        print("solution: " + fmt_lincomb(sol, serialize))
    return 0


def _check_job(args, alg) -> tuple:
    """One algebra's reports, and its self-test gaps under --selftest."""
    reports = run_all(alg, args.maxdeg, mode=args.mode, seed=args.seed,
                      samples=args.samples)
    return reports, selftest_gaps(alg) if args.selftest else None


def cmd_check(args) -> int:
    guard(args.maxdeg, args.force, "--maxdeg")
    at_least(args.samples, 1, "--samples")
    names = list(HANDLE_NAMES) if args.algebra == "all" else [args.algebra]
    labels = labels_from(args, args.force)
    alphabet = labels if args.alphabet else None
    abc = (tuple(parse_scalar(p) for p in args.abc.split(","))
           if args.abc else None)
    if abc is not None and len(abc) != 3:
        raise CliError("--abc needs exactly three rationals")
    # Every handle before any sweep: a parameter one refuses costs no work.
    algs = [get_handle(name, labels, alphabet, abc) for name in names]
    job = partial(_check_job, args)
    workers = min(at_least(args.jobs, 1, "--jobs"), len(algs))
    if workers > 1:
        # Imported here: it would add about 20 ms to every start-up.
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                blocks = list(pool.map(job, algs))
        except BrokenExecutor:  # a worker died, say at the kernel's OOM kill
            raise ResourceBound("a check worker process died") from None
    else:
        blocks = list(map(job, algs))
    reports = [r for block, _ in blocks for r in block]
    for line in report_lines(reports):
        print(line)
    failed = not all_pass(reports)
    for name, (_, gaps) in zip(names, blocks):
        if gaps:
            print(f"selftest {name} FAIL gaps={','.join(gaps)}")
            failed = True
        elif gaps is not None:
            print(f"selftest {name} PASS")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def _add_alphabet_flags(p, default_labels: int = 1) -> None:
    p.add_argument("--labels", type=int, default=default_labels,
                   metavar="K", help="use the alphabet d1..dK (default %(default)s)")
    p.add_argument("--alphabet", metavar="A,B,C",
                   help="explicit comma-separated alphabet (overrides --labels)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="comprelie",
        description="Exact computer algebra for Com-PreLie (bi)algebras "
                    "on partitioned rooted trees and shuffle algebras.")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enum", help="list basis elements of size n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=sorted(_ENUMERATORS), default="partitioned")
    _add_alphabet_flags(p)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("eval", help="apply prelie or mul to two elements")
    p.add_argument("--algebra", choices=HANDLE_NAMES, required=True)
    p.add_argument("--op", choices=("prelie", "mul"), default="prelie")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("coprod", help="apply an algebra's coproduct")
    p.add_argument("--algebra", choices=HANDLE_NAMES, required=True)
    p.add_argument("x")
    p.set_defaults(func=cmd_coprod)

    p = sub.add_parser("delta", help="block-pruning coproduct of a partitioned tree")
    p.add_argument("tree")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("kerdelta", help="kernel dimension of the block-pruning coproduct")
    p.add_argument("--degree", type=int, required=True)
    _add_alphabet_flags(p)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_kerdelta)

    p = sub.add_parser("cm", help="Connes-Moscovici element of an index word")
    p.add_argument("word", help="dot-separated letters, e.g. d.e.f")
    p.add_argument("--show", choices=("x", "delta"), default="x",
                   help="the element itself or its index-word coproduct")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_cm)

    p = sub.add_parser("diamond", help="grafting products dual to the cutting coproducts")
    p.add_argument("--variant", choices=sorted(_DIAMONDS), default="cp")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_diamond)

    p = sub.add_parser("theta", help="contraction onto trees over the generator alphabet")
    p.add_argument("tree")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("psi", help="block-coarsening morphism")
    p.add_argument("tree")
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("rigidity", help="cofreeness isomorphisms and the obstruction")
    rsub = p.add_subparsers(dest="subverb", required=True)
    q = rsub.add_parser("iso", help="matrices of omega and F per degree, plus checks")
    q.add_argument("--algebra", choices=("cp", "hck"), required=True)
    q.add_argument("--maxdeg", type=int, default=4)
    _add_alphabet_flags(q)
    q.add_argument("--force", action="store_true")
    q.set_defaults(func=cmd_rigidity_iso)
    q = rsub.add_parser("obstruction",
                        help="solvability of the degree-2 primitive-pair equation")
    _add_alphabet_flags(q, default_labels=2)
    q.add_argument("--cap", type=int, default=2, help="counter cap")
    q.set_defaults(func=cmd_rigidity_obstruction)

    p = sub.add_parser("check", help="axiom sweeps over basis tuples")
    p.add_argument("--algebra", choices=HANDLE_NAMES + ("all",), required=True)
    p.add_argument("--maxdeg", type=int, default=3)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive",
                   help="every basis tuple per law within --maxdeg, or a "
                        "seeded choice of --samples of them")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--samples", type=int, default=40,
                   help="basis tuples per law in sampled mode")
    p.add_argument("--selftest", action="store_true",
                   help="also verify the sweeps catch seeded corruptions "
                        "(at degree 3, whatever --maxdeg)")
    p.add_argument("--abc", metavar="A,B,C",
                   help="parameters of the degree -1 family "
                        "(preLie iff a*a - a + b*c = 0)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="sweep and self-test up to N algebras in parallel")
    _add_alphabet_flags(p)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_check)

    return top


def main(argv=None) -> int:
    try:
        try:
            return _run(argv)
        finally:
            # Also after --help: a reader that has gone shows up here, not
            # in the flush at interpreter exit.
            sys.stdout.flush()
    except BrokenPipeError:
        # Send what is still buffered to devnull, so that the flush at
        # interpreter exit cannot raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceBound as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: input nested too deeply for the recursion limit",
              file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except (CliError, ParseError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
