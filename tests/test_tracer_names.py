"""The benchmark's tracer still fits the package.

`bench/tracer.py` wraps the layer entry points by name from outside the
package, so renaming, deleting or aliasing one of them breaks the
benchmark, not the package.  This loads the tracer from its file without
importing it as a module (nothing is written next to it), enters and exits
`Tracer()` around one small CLI call, and checks that every name it
patches exists, is wrapped once, and is bound as before on exit.
"""

import io
import sys
import types
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

from comprelie import cli  # imports every module the tracer patches
from comprelie.axioms import _Ops
from comprelie.rigidity import TruncatedBialgebra

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    mod = types.ModuleType("bench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(mod))
    return mod


def _bindings() -> dict:
    """Every module-level binding of comprelie, every value held in a
    module-level dict, and every class attribute, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("comprelie") or mod is None:
            continue
        for key, val in vars(mod).items():
            snap[(name, key)] = val
            if type(val) is dict:
                for k, v in val.items():
                    snap[(name, key, k)] = v
            elif isinstance(val, type):
                for k, v in vars(val).items():
                    snap[(name, key, "attr", k)] = v
    return snap


def _patched_value(setter, key):
    """What a tracer patch bound: setter writes into a dict or a class."""
    if isinstance(setter, partial):
        return vars(setter.args[0])[key], setter.args[0]
    return setter.__self__[key], setter.__self__


ARGV = ["rigidity", "iso", "--algebra", "cp", "--maxdeg", "2"]


def _run() -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(ARGV)) == 0
    return out.getvalue()


def test_tracer_patches_existing_names_once_and_restores_them():
    tracer = _load_tracer()
    plain = _run()  # fills the caches the traced run would add to
    before = _bindings()
    # install looks every name up, so a missing one raises on entry
    with tracer.Tracer() as tr:
        assert tr.patched
        seen = set()
        for setter, key, orig in tr.patched:
            now, target = _patched_value(setter, key)
            assert now.__name__ == "wrapper" and now is not orig, key
            assert (id(target), key) not in seen, f"{key} wrapped twice"
            seen.add((id(target), key))
        assert _run() == plain
        assert tr.counts["linalg.rank.calls"] > 0
        # rigidity shares _Ops's memo code but is counted as its own layer
        assert tr.counts["rigidity.k_calls"] > 0
        assert tr.counts["axioms.k_calls"] == 0
    assert not tr.patched
    after = _bindings()
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []
    # one memo code, bound in each class's own __dict__ for the tracer
    for attr in ("mul_k", "prelie_k", "cop_k"):
        assert vars(TruncatedBialgebra)[attr] is vars(_Ops)[attr]
