"""Benchmark of the `comprelie` CLI: one cold process per question.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are found from this
file).  The driver is a closed loop with one client: it runs the
workload's CLI invocations as subprocesses, back to back, one at a time,
and checks every output against the recorded exit code and stdout digest
(`bench/expected.json`) and against the workload's own oracle.  A wrong
exit code, a digest mismatch, a failed oracle or a timeout counts as a
failed invocation; the run goes on.

`--trace 0` repeats passes over the workload for about S seconds and
reports the end-to-end metrics of `BENCHMARK.json`: per-pass wall and
child CPU time (medians), the largest child RSS, and the set-up time of
one CLI process (spawn the interpreter and import `comprelie.cli`,
median of several).  `--trace 1` makes one untraced and one traced pass
(`bench/tracer.py` wraps the layers inside each child) and reports the
per-layer metrics plus the tracing overhead.

The last stdout line is the JSON result; the line before it carries
informational fields (pass times, source line count, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from tracer import TRACE_PREFIX

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

INVOCATION_TIMEOUT_S = 60.0   # the slowest invocation takes about 7 s
RUN_DEADLINE_S = 165.0        # the whole run must end within 180 s
SETUP_SAMPLES_PER_PASS = 3


@dataclass
class Outcome:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int = -1
    stdout: bytes = b""
    stderr: str = ""
    error: str | None = None
    trace: dict | None = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)
    unrecorded: int = 0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("COMPRELIE_MAXDEG", None)
    return env


def spawn(cmd: list, timeout: float) -> Outcome:
    """Run cmd to completion; rusage of the child comes from os.wait4."""
    out = Outcome()
    if timeout <= 0:
        out.error = "not started: run deadline reached"
        return out
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, cwd=ROOT, env=child_env())
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        out.stdout = proc.stdout.read()
        out.stderr = proc.stderr.read().decode(errors="replace")
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    out.wall_s = perf_counter() - t0
    out.cpu_s = usage.ru_utime + usage.ru_stime
    out.rss_mb = usage.ru_maxrss / 1024.0
    out.exit_code = proc.returncode
    if killed.is_set():
        out.error = f"timed out after {timeout:.0f} s"
    return out


def cli_cmd(inv: workloads.Invocation, traced: bool) -> list:
    head = [str(BENCH_DIR / "tracer.py")] if traced else ["-m", "comprelie.cli"]
    return [sys.executable, *head, *inv.argv]


def check(inv: workloads.Invocation, out: Outcome, expected: dict,
          tally: Tally) -> str | None:
    """Record one attempted invocation; return what is wrong with it."""
    tally.attempted += 1
    want = expected.get(inv.key)
    if want is None:
        tally.unrecorded += 1
        want = {"exit": 0}
    error = out.error
    if error is None and out.exit_code != want["exit"]:
        error = (f"exit {out.exit_code}, expected {want['exit']}: "
                 f"{out.stderr.strip()[-200:]}")
    if error is None and "sha256" in want and out.digest != want["sha256"]:
        error = "stdout digest differs from the recorded one"
    if error is None and inv.oracle is not None:
        error = inv.oracle(out.stdout.decode())
    if error is not None:
        tally.failures.append(f"{inv.label()}: {error}")
    return error


def run_pass(invs: list, expected: dict, tally: Tally, deadline: float,
             traced: bool = False) -> list[Outcome]:
    outs = []
    for inv in invs:
        out = spawn(cli_cmd(inv, traced),
                    min(INVOCATION_TIMEOUT_S, deadline - perf_counter()))
        if traced and out.error is None:
            lines = out.stderr.splitlines()
            traces = [ln for ln in lines if ln.startswith(TRACE_PREFIX)]
            out.stderr = "\n".join(ln for ln in lines if ln not in traces)
            if traces:
                out.trace = json.loads(traces[-1][len(TRACE_PREFIX):])
            else:
                out.error = "traced child wrote no trace"
        out.error = check(inv, out, expected, tally)
        outs.append(out)
    return outs


def measure_setup(samples: int) -> list[float]:
    """Wall times of processes that only import the CLI."""
    cmd = [sys.executable, "-c", "import comprelie.cli"]
    times = []
    for _ in range(samples):
        out = spawn(cmd, INVOCATION_TIMEOUT_S)
        if out.exit_code != 0:
            raise RuntimeError(f"importing comprelie.cli failed: {out.stderr.strip()}")
        times.append(out.wall_s)
    return times


def src_lines() -> int:
    return sum(1 for p in (SRC / "comprelie").rglob("*.py")
               for ln in p.read_text().splitlines() if ln.strip())


def timed_run(invs: list, expected: dict, seconds: float, deadline: float):
    tally = Tally()
    measure_setup(1)  # the first import may compile bytecode
    setup, passes = [], []
    t0 = perf_counter()
    while True:
        # set-up samples are spread over the run, like the passes
        setup += measure_setup(SETUP_SAMPLES_PER_PASS)
        passes.append(run_pass(invs, expected, tally, deadline))
        walls = [sum(o.wall_s for o in p) for p in passes]
        # start another pass only if it should end within the time asked for
        if perf_counter() - t0 + statistics.median(walls) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(o.cpu_s for o in p) for p in passes),
        "peak_rss_mb": max(o.rss_mb for p in passes for o in p),
        "setup_s": statistics.median(setup),
    }
    info = {"passes": len(passes), "pass_wall_s": walls, "setup_samples_s": setup}
    return tally, metrics, info


def layer_values(outs: list[Outcome]) -> dict:
    """Sum the children's traces into flat per-layer values."""
    counts: dict = {}
    spans: dict = {}
    for out in outs:
        trace = out.trace or {"counts": {}, "spans": []}
        for k, v in trace["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for _parent, name, calls, _total, self_s in trace["spans"]:
            rec = spans.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
    flat = dict(counts)
    for name, (calls, self_s) in spans.items():
        flat[f"{name}.calls"] = calls
        flat[f"{name}.self_s"] = self_s

    def ratio(num: str, den: str) -> float:
        return flat.get(num, 0) / flat[den] if flat.get(den) else 0.0

    flat["ptree.ideals.yield"] = ratio("ptree.ideals.found", "ptree.ideals.subsets")
    flat["ptree.admissible_partitions.yield"] = ratio(
        "ptree.admissible_partitions.found", "ptree.admissible_partitions.partitions")
    for layer in ("rigidity", "axioms"):
        calls = flat.get(f"{layer}.k_calls", 0)
        flat[f"{layer}.memo_hit_ratio"] = (
            1.0 - flat.get(f"{layer}.handle_calls", 0) / calls if calls else 0.0)
    flat["cli.stdout_bytes"] = sum(len(o.stdout) for o in outs)
    return flat


def traced_run(invs: list, expected: dict, deadline: float):
    tally = Tally()
    plain = run_pass(invs, expected, tally, deadline)
    traced = run_pass(invs, expected, tally, deadline, traced=True)
    for inv, a, b in zip(invs, plain, traced):
        if a.error is None and b.error is None and a.digest != b.digest:
            tally.failures.append(f"{inv.label()}: traced stdout differs")
    plain_wall = sum(o.wall_s for o in plain)
    traced_wall = sum(o.wall_s for o in traced)
    flat = layer_values(traced)
    flat["trace.overhead"] = traced_wall / plain_wall
    info = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    return tally, flat, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + RUN_DEADLINE_S

    if not (SRC / "comprelie" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    expected = json.loads(EXPECTED.read_text())
    invs = workloads.invocations(args.workload, args.seed)

    if args.trace:
        tally, values, info = traced_run(invs, expected, deadline)
        wanted = spec["per_layer"]
    else:
        tally, values, info = timed_run(invs, expected, args.seconds, deadline)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    failed = len(tally.failures)
    for msg in tally.failures:
        print(f"FAIL {msg}", file=sys.stderr)
    info.update({
        "workload": args.workload, "seed": args.seed,
        "invocations": [inv.label() for inv in invs],
        "digests_unrecorded": tally.unrecorded,
        "fail_ratio": failed / tally.attempted,
        "src_nonblank_lines": src_lines(),
        "failures": tally.failures[:5],
    })
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
