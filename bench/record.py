"""Record the expected exit code and stdout digest of every invocation.

    python3 bench/record.py

Runs the fixed workloads, and the `cuts` inputs of seeds 0 to
RECORDED_SEEDS - 1, with the current program, and rewrites
`bench/expected.json`.  Nothing is written if an invocation exits nonzero
or fails its oracle.  Rerun it only when a change alters the CLI output on
purpose, and say why in CHANGES.md.  `cuts` runs with other seeds are
checked by their oracles only.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import workloads
from run import EXPECTED, INVOCATION_TIMEOUT_S, Tally, check, cli_cmd, spawn

RECORDED_SEEDS = 64


def all_invocations() -> list:
    invs = [inv for name in workloads.WORKLOADS if name != "cuts"
            for inv in workloads.invocations(name, 0)]
    for seed in range(RECORDED_SEEDS):
        invs += workloads.cuts_invocations(seed)
    return invs


def main() -> int:
    table, tally = {}, Tally()
    t0 = perf_counter()
    for inv in all_invocations():
        out = spawn(cli_cmd(inv, traced=False), INVOCATION_TIMEOUT_S)
        check(inv, out, {}, tally)
        table[inv.key] = {"exit": out.exit_code, "sha256": out.digest}
    for msg in tally.failures:
        print(f"FAIL {msg}", file=sys.stderr)
    if tally.failures:
        return 1
    rows = [f"{json.dumps(k)}: {json.dumps(table[k])}" for k in sorted(table)]
    EXPECTED.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"recorded {len(table)} invocations in {perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
