"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import record  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from comprelie import cli, ptree, ucp  # noqa: E402
from comprelie.dual import theta  # noqa: E402

# One small call per verb the workloads use, so every layer is reached.
SMALL = [
    ("rigidity", "iso", "--algebra", "cp", "--maxdeg", "3"),
    ("rigidity", "obstruction"),  # the only caller of linalg.solve
    ("check", "--algebra", "all", "--maxdeg", "2"),
    ("kerdelta", "--degree", "4", "--labels", "2"),
    ("enum", "--n", "4", "--labels", "2", "--mode", "one-rooted"),
    ("coprod", "--algebra", "ucp", "{[d([e,e],[d]),e]}"),
    ("coprod", "--algebra", "hck", "{[d([e])],[d]}"),
    ("theta", "{[d([e,e],[d,d([e])])]}"),
]


def small_invocations():
    return [workloads.Invocation(argv) for argv in SMALL]


# -- inputs --------------------------------------------------------------------

def test_cuts_generator_is_deterministic_per_seed():
    for seed in (0, 1, 17, 123456):
        a = [inv.argv for inv in workloads.cuts_invocations(seed)]
        b = [inv.argv for inv in workloads.cuts_invocations(seed)]
        assert a == b
    assert ([i.argv for i in workloads.cuts_invocations(0)]
            != [i.argv for i in workloads.cuts_invocations(1)])


def test_recorded_table_covers_fixed_workloads_and_recorded_seeds():
    expected = json.loads(run.EXPECTED.read_text())
    missing = [inv.label() for inv in record.all_invocations()
               if inv.key not in expected]
    assert missing == []
    assert all(v["exit"] == 0 for v in expected.values())


def test_cuts_trees_have_the_advertised_sizes():
    for inv in workloads.cuts_invocations(5):
        tree = ptree.parse(inv.argv[-1])
        size = workloads.THETA_VERTICES if inv.argv[0] == "theta" \
            else workloads.COPROD_VERTICES
        assert tracer.n_vertices(tree) == size


# -- oracles -------------------------------------------------------------------

def test_tree_counts_match_the_enumerators():
    for labels in (("d",), ("d", "e")):
        counts = workloads.tree_counts(5, len(labels))
        for mode, enum in cli._ENUMERATORS.items():
            got = [len(enum(n, labels)) for n in range(1, 6)]
            assert got == counts[mode][1:6], mode
    two = workloads.tree_counts(7, 2)
    assert two["partitioned"][7] == 36340
    assert two["one-rooted"][7] == 21294


@pytest.mark.parametrize("seed", range(8))
def test_cut_counts_match_the_program_on_small_trees(seed):
    import random
    rnd = random.Random(seed)
    for make in workloads.FAMILIES.values():
        nd = make(rnd, 8)
        forest = ptree.parse(workloads.fmt_forest([[nd]]))
        for cop, bump in ((ucp.coproduct_cp, False), (ucp.coproduct_ucp, True)):
            out = cop(forest)
            assert sum(out.values()) == workloads.n_ideals(nd)
            assert len(out) == workloads.n_terms([[nd]], bump)
        assert sum(theta(forest).values()) == workloads.n_admissible([[nd]])
    plain = workloads.plain_forest(rnd, 8, 2)
    out = ucp.coproduct_hck(ptree.parse(workloads.fmt_forest(plain)))
    assert sum(out.values()) == workloads.forest_ideals(plain)
    assert len(out) == workloads.n_terms(plain)


def test_oracles_reject_wrong_outputs():
    two_terms = "1*{[d]} (x) {} + 2*{} (x) {[d]}"
    assert workloads.coefficients(two_terms) == [1, 2]
    assert workloads.terms_oracle(3, 2)(two_terms) is None
    assert workloads.terms_oracle(3, 3)(two_terms) is not None
    assert workloads.terms_oracle(4)(two_terms) is not None
    assert workloads.checks_pass("checks:\nomega-iso cp 1 PASS") is None
    assert workloads.checks_pass("checks:\nomega-iso cp 1 FAIL x") is not None
    assert workloads.checks_pass("checks:\n") is not None
    assert workloads.line_count_oracle(2)("a\nb\n") is None


# -- the harness ---------------------------------------------------------------

def test_digest_mismatch_is_a_failure_not_an_abort():
    inv = workloads.Invocation(("enum", "--n", "2"))
    out = run.spawn(run.cli_cmd(inv, traced=False), 30)
    tally = run.Tally()
    run.check(inv, out, {inv.key: {"exit": 0, "sha256": "0" * 64}}, tally)
    run.check(inv, out, {inv.key: {"exit": 0, "sha256": out.digest}}, tally)
    assert tally.attempted == 2
    assert len(tally.failures) == 1 and "digest" in tally.failures[0]


def test_timeout_kills_the_child_and_is_a_failure():
    t0 = perf_counter()
    out = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
    assert perf_counter() - t0 < 10
    assert out.error and "timed out" in out.error


def _bindings():
    """Every module-level binding of comprelie, every function held in a
    module-level dict, and every class attribute, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("comprelie") or mod is None:
            continue
        for key, val in vars(mod).items():
            snap[(name, key)] = val
            if type(val) is dict:
                for k, v in val.items():
                    if callable(v):
                        snap[(name, key, k)] = v
            elif isinstance(val, type):
                for k, v in vars(val).items():
                    snap[(name, key, "attr", k)] = v
    return snap


def test_tracer_keeps_stdout_and_restores_every_binding():
    before = _bindings()
    for argv in SMALL:
        plain = io.StringIO()
        with redirect_stdout(plain):
            assert cli.main(list(argv)) == 0
        traced = io.StringIO()
        with tracer.Tracer() as tr, redirect_stdout(traced):
            assert tr.patched, "nothing was wrapped"
            assert cli.main(list(argv)) == 0
        assert traced.getvalue() == plain.getvalue(), argv
        assert tr.counts and not tr.patched
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_tracer_patches_every_binding_of_a_wrapped_function():
    with tracer.Tracer():
        assert ucp.ideals is ptree.ideals
        assert ptree.ideals.__name__ == "wrapper"
        assert cli.get_handle.__name__ == "wrapper"
        assert cli._ENUMERATORS["one-rooted"].__name__ == "wrapper"
    assert ptree.ideals.__name__ == "ideals"
    assert cli._ENUMERATORS["one-rooted"] is ptree.enum_one_rooted


def test_traced_run_reports_every_per_layer_metric_and_the_overhead():
    spec = json.loads(run.SPEC.read_text())
    tally, flat, info = run.traced_run(small_invocations(), {},
                                       perf_counter() + 120)
    assert tally.failures == []
    assert tally.attempted == 2 * len(SMALL)
    assert flat["trace.overhead"] == info["traced_wall_s"] / info["untraced_wall_s"]
    assert flat["trace.overhead"] > 0
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in flat]
    assert missing == []
    assert 0 < flat["rigidity.memo_hit_ratio"] < 1
    assert 0 < flat["axioms.memo_hit_ratio"] < 1
    assert 0 < flat["ptree.ideals.yield"] <= 1
    assert 0 < flat["ptree.admissible_partitions.yield"] <= 1


def test_spec_lists_what_the_benchmark_reports():
    spec = json.loads(run.SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    tally, metrics, _ = run.timed_run(small_invocations()[3:4], {}, 0.1,
                                      perf_counter() + 120)
    assert tally.failures == []
    assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(v > 0 for v in metrics.values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(run.SPEC.read_text())
    dest = tmp_path / "bench"
    dest.mkdir()
    for f in BENCH.glob("*.py"):
        (dest / f.name).write_text(f.read_text())
    (dest / "expected.json").write_text(run.EXPECTED.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
