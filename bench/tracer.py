"""In-process tracing of `comprelie` layers, from outside the package.

`Tracer` replaces the public entry points of each layer with wrappers and
puts the originals back on exit.  Modules import each other with
`from … import`, so every module-level binding of a wrapped function is
patched, and so are module-level dicts that hold it (dispatch tables).
Methods are patched on their class.

A span wrapper records its name, start, end and parent.  Spans are reduced
as they close, because sweeps make millions of calls: per (parent, name)
the tracer keeps calls, total time and self time (total minus the part
covered by child spans).  Count wrappers only count calls; their own cost
lands in the enclosing span's self time, and the benchmark reports the
total cost of tracing as `trace.overhead`.

Run as a script, it traces one CLI call:

    PYTHONPATH=src python3 bench/tracer.py ARGS...

The CLI's stdout is left untouched; one `TRACE {json}` line with the
aggregated spans and counts is written to stderr.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter, defaultdict
from functools import partial
from time import perf_counter
from typing import Callable

TRACE_PREFIX = "TRACE "


def n_vertices(forest) -> int:
    """Vertices of a nested-tuple forest ((dec, blocks) nodes)."""
    return sum(1 + n_vertices(nd[1]) for block in forest for nd in block)


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


class Tracer:
    """Context manager: patches the layers on entry, restores on exit."""

    def __init__(self):
        self.counts: Counter = Counter()
        # (parent, name) -> [calls, total_s, self_s]
        self.spans: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack: list = []
        self.patched: list[tuple] = []  # (setter, key, original)

    # -- wrappers --------------------------------------------------------------

    def span(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        """Time fn as span `name`; after(counts, args, result) adds counts."""
        stack, spans, counts = self._stack, self.spans, self.counts

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans[(parent, name)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if after is not None:
                after(counts, args, out)
            return out

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------

    def patch_function(self, module, attr: str, wrap: Callable) -> None:
        """Replace every binding of module.attr across comprelie modules."""
        orig = getattr(module, attr)
        new = wrap(orig)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("comprelie") or mod is None:
                continue
            ns = vars(mod)
            for key, val in list(ns.items()):
                if val is orig:
                    self._set(ns, key, new)
                elif type(val) is dict:
                    for k, v in list(val.items()):
                        if v is orig:
                            self._set(val, k, new)

    def _set(self, ns: dict, key, new) -> None:
        self.patched.append((ns.__setitem__, key, ns[key]))
        ns[key] = new

    def patch_method(self, cls, attr: str, wrap: Callable) -> None:
        orig = cls.__dict__[attr]
        self.patched.append((partial(setattr, cls), attr, orig))
        setattr(cls, attr, wrap(orig))

    def restore(self) -> None:
        while self.patched:
            setter, key, orig = self.patched.pop()
            setter(key, orig)

    def __enter__(self) -> "Tracer":
        try:
            install(self)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ---------------------------------------------------------------

    def dump(self) -> dict:
        return {"counts": dict(self.counts),
                "spans": [[p, n, *rec] for (p, n), rec in self.spans.items()]}


def install(tr: Tracer) -> None:
    """Wrap the layer entry points the per-layer metrics are built from."""
    import comprelie.cli  # noqa: F401  (binds get_handle and the verb tables)
    from comprelie import (axioms, dual, handles, linalg, lincomb, ptree,
                           rigidity, shuffle, ucp)

    span, counter = tr.span, tr.counter

    def fn(module, attr, name, after=None):
        tr.patch_function(module, attr, lambda f: span(name, f, after))

    def meth(cls, attr, name, after=None):
        tr.patch_method(cls, attr, lambda f: span(name, f, after))

    def count_fn(module, attr, name):
        tr.patch_function(module, attr, lambda f: counter(name, f))

    def count_meth(cls, attr, name):
        tr.patch_method(cls, attr, lambda f: counter(name, f))

    # linalg: should move wall_s on rigidity and nothing elsewhere, except
    # sparse_rank, which should move wall_s on enumerate
    def rref_cells(counts, args, out):
        m = args[0]
        counts["linalg.rref.cells"] += len(m) * (len(m[0]) if len(m) else 0)

    fn(linalg, "rref", "linalg.rref", rref_cells)
    for name in ("rank", "invert", "nullspace", "solve"):
        count_fn(linalg, name, f"linalg.{name}.calls")
    fn(linalg, "mat_vec", "linalg.mat_vec")

    def sparse_rank(f):
        timed = span("linalg.sparse_rank", f)

        def wrapper(rows):
            rows = list(rows)
            tr.counts["linalg.sparse_rank.rows"] += len(rows)
            return timed(rows)
        return wrapper

    tr.patch_function(linalg, "sparse_rank", sparse_rank)

    # rigidity stages and the key-level memo tables: wall_s on rigidity
    fn(rigidity, "primitive_basis", "rigidity.primitive_basis")
    meth(rigidity.Omega, "__init__", "rigidity.omega")
    meth(rigidity.Omega, "apply_word", "rigidity.omega")
    meth(rigidity.Omega, "matrix", "rigidity.omega_matrix")
    meth(rigidity.Omega, "inverse", "rigidity.omega_inverse")
    meth(rigidity.TruncatedBialgebra, "psi_k", "rigidity.psi")
    meth(rigidity.HopfIso, "varpi_k", "rigidity.varpi")
    meth(rigidity.HopfIso, "F_k", "rigidity.F")
    meth(rigidity.HopfIso, "matrix", "rigidity.F")
    meth(rigidity.Omega, "check_iso", "rigidity.check_iso")
    meth(rigidity.HopfIso, "check_iso", "rigidity.check_iso")
    meth(rigidity.HopfIso, "run_checks", "rigidity.checks")

    def memo(cls, prefix):
        """Count *_k calls, and the handle-op calls they make on a miss."""
        for attr in ("mul_k", "prelie_k", "cop_k"):
            count_meth(cls, attr, f"{prefix}.k_calls")

        def wrap_init(init):
            def wrapper(self, alg, *args, **kwargs):
                init(self, alg, *args, **kwargs)
                ops = {f: counter(f"{prefix}.handle_calls", getattr(self.alg, f))
                       for f in ("mul", "prelie", "coproduct")
                       if getattr(self.alg, f) is not None}
                self.alg = dataclasses.replace(self.alg, **ops)
            return wrapper

        tr.patch_method(cls, "__init__", wrap_init)

    memo(rigidity.TruncatedBialgebra, "rigidity")
    # the sweep and its memo table: wall_s on sweep
    memo(axioms._Ops, "axioms")
    fn(axioms, "run_all", "axioms.sweep")

    # ptree: enumeration moves wall_s and peak_rss_mb on enumerate; ideals,
    # split_ideal and admissible_partitions move wall_s on cuts, with sweep
    # as the regression guard; canonicalize and graft move sweep and cuts
    def items(name):
        def after(counts, args, out):
            counts[name] += len(out)
        return after

    for attr in ("enum_partitioned", "enum_one_rooted", "enum_plain_trees",
                 "enum_plain_forests"):
        fn(ptree, attr, "ptree.enum", items("ptree.enum.items"))

    def ideals_yield(counts, args, out):
        counts["ptree.ideals.found"] += len(out)
        counts["ptree.ideals.subsets"] += 2 ** n_vertices(args[0])

    def partitions_yield(counts, args, out):
        counts["ptree.admissible_partitions.found"] += len(out)
        counts["ptree.admissible_partitions.partitions"] += bell(n_vertices(args[0]))

    fn(ptree, "ideals", "ptree.ideals", ideals_yield)
    fn(ptree, "split_ideal", "ptree.split_ideal")
    fn(ptree, "admissible_partitions", "ptree.admissible_partitions",
       partitions_yield)
    fn(ptree, "canonicalize", "ptree.canonicalize")
    fn(ptree, "graft_shift", "ptree.graft")
    count_fn(ptree, "restrict", "ptree.restrict.calls")

    # lincomb, counts only as these are the hottest calls: sweep, then rigidity
    count_meth(lincomb.LinComb, "add_term", "lincomb.add_term.calls")
    count_meth(lincomb.LinComb, "iadd_scaled", "lincomb.iadd_scaled.calls")
    count_meth(lincomb.LinComb, "map_linear", "lincomb.map_linear.calls")
    count_fn(lincomb, "bilinear_extend", "lincomb.bilinear_extend.calls")

    # ucp, dual, shuffle: coproduct and theta move cuts, bullet, diamond and
    # shuffle move sweep, delta_perm moves enumerate
    for attr in ("coproduct_ucp", "coproduct_cp", "coproduct_hck"):
        fn(ucp, attr, "ucp.coproduct")
    for attr in ("ucp_bullet", "cp_bullet", "hck_bullet"):
        fn(ucp, attr, "ucp.bullet")
    fn(ucp, "delta_perm", "ucp.delta_perm")
    fn(dual, "theta", "dual.theta")
    fn(dual, "diamond", "dual.diamond")
    fn(dual, "diamond_down", "dual.diamond")
    fn(shuffle, "shuffle", "shuffle.shuffle")
    fn(shuffle, "bullet_tvf", "shuffle.bullet")
    fn(shuffle, "bullet_deg_minus1", "shuffle.bullet")

    # handles: every handle built from here on gets a timed basis (enumerate
    # and sweep)
    def get_handle(f):
        def wrapper(*args, **kwargs):
            h = f(*args, **kwargs)
            basis = span("handles.basis", h.basis, items("handles.basis.items"))
            return dataclasses.replace(h, basis=basis)
        return wrapper

    tr.patch_function(handles, "get_handle", get_handle)


def main(argv: list[str]) -> int:
    from comprelie import cli

    with Tracer() as tr:
        code = cli.main(argv)
    print(TRACE_PREFIX + json.dumps(tr.dump()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
