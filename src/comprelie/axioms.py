"""Generic law harness for Com-PreLie algebras and bialgebras.

A Com-PreLie algebra carries a commutative associative product together
with a second bilinear product (written ``prelie`` throughout) that is
right preLie and acts as a derivation in the left slot:

    prelie(prelie(x, y), z) - prelie(x, prelie(y, z))   symmetric in y, z
    prelie(x.y, z) = prelie(x, z).y + x.prelie(y, z)

A Com-PreLie bialgebra adds a coproduct making the commutative product a
bialgebra product and satisfying, in Sweedler notation,

    D(prelie(a, b)) = a' (x) prelie(a'', b)
                    + prelie(a', b') (x) a''.b''

Every structure is packaged as an :class:`AlgebraHandle`; the checks sweep
basis tuples within a total-degree budget (``basis_tuples``, or random
small combinations in sampled mode) and report the first counterexample.
What applies is read off the handle: ``_LAWS`` names the pieces (product,
coproduct, counit) each law needs, ``_CORRUPTIONS`` the piece each
self-test corruption replaces, and every one whose pieces it has runs.
Every law check in the package, here and in ``oudom`` and ``rigidity``, is
a lazy stream of witness strings over its cases, and ``first_witness``
turns it into a :class:`LawReport` by drawing at most one.  All arithmetic
is exact; a law either holds on the swept range or the witness pins down
the failure.

The module also provides the tensor-product construction: for a linear
functional eps on the first factor with eps(prelie(a, b)) = eps(prelie(b,
a)), the pair algebra with componentwise product and

    prelie((a1, a2), (b1, b2)) = (prelie(a1, b1), a2.b2)
                               + eps(b1) * ((a1,), prelie(a2, b2))

is again Com-PreLie.  Maps between handles are checked, not assumed, by
one law, ``check_morphism``: it covers the reassociation of iterated
tensors, eps (x) Id onto the second factor, the coproduct A -> A (x) A
(with eps the counit), and the quotient maps UCP -> CP -> H_CK.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .lincomb import (
    LinComb, bilinear_extend, fmt_lincomb, tensor, tensor_apply2, unit,
)


@dataclass(frozen=True)
class AlgebraHandle:
    """One algebra, packaged for the generic sweeps.

    ``basis(n)`` lists the basis keys of degree exactly n; degree 0 holds
    the algebra unit when there is one.  ``mul`` and ``prelie`` evaluate
    the products on a pair of keys; ``coproduct`` (if present) sends a key
    to a LinComb over key pairs, ``counit`` to a scalar (an int or a
    Fraction).  ``key_str`` renders a key for report witnesses, and
    ``parse_key`` reads that text back: it returns the key, or raises
    ValueError when the text is not a key of the basis (its shape, or
    its letters).  A handle with ``mul=None`` is a bare preLie algebra and
    only the preLie identity is swept.
    """

    name: str
    basis: Callable[[int], list]
    prelie: Callable
    mul: Optional[Callable] = None
    unit: object = None
    key_str: Callable = str
    parse_key: Optional[Callable] = None
    coproduct: Optional[Callable] = None
    counit: Optional[Callable] = None


@dataclass
class LawReport:
    law: str
    algebra: str
    maxdeg: int
    witness: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.witness is None

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL " + self.witness
        return f"{self.law} {self.algebra} {self.maxdeg} {verdict}"


def first_witness(law: str, algebra: str, maxdeg: int,
                  witnesses: Iterable[str]) -> LawReport:
    """The report of one law: the first of a lazy stream of witnesses, or
    a pass when the stream is empty.  Nothing after the first is drawn."""
    return LawReport(law, algebra, maxdeg, next(iter(witnesses), None))


def report_lines(reports) -> list[str]:
    return [r.line() for r in reports]


def all_pass(reports) -> bool:
    return all(r.ok for r in reports)


class _Ops:
    """Linear extensions of one handle's evaluators, with key-level memo
    tables.  They serve one law sweep (one per ``run_all``) and, through
    ``rigidity.TruncatedBialgebra``, the rigidity pipeline."""

    def __init__(self, alg: AlgebraHandle):
        self.alg = alg
        self._prelie: dict = {}
        self._mul: dict = {}
        self._cop: dict = {}

    def prelie_k(self, a, b) -> LinComb:
        key = (a, b)
        out = self._prelie.get(key)
        if out is None:
            out = self._prelie[key] = self.alg.prelie(a, b)
        return out

    def mul_k(self, a, b) -> LinComb:
        key = (a, b)
        out = self._mul.get(key)
        if out is None:
            out = self._mul[key] = self.alg.mul(a, b)
        return out

    def cop_k(self, a) -> LinComb:
        out = self._cop.get(a)
        if out is None:
            out = self._cop[a] = self.alg.coproduct(a)
        return out

    def prelie(self, x: LinComb, y: LinComb) -> LinComb:
        return bilinear_extend(self.prelie_k, x, y)

    def mul(self, x: LinComb, y: LinComb) -> LinComb:
        return bilinear_extend(self.mul_k, x, y)

    def cop(self, x: LinComb) -> LinComb:
        return x.map_linear(self.cop_k)

    def counit(self, x: LinComb) -> int | Fraction:
        eps = self.alg.counit
        return sum(c * eps(k) for k, c in x.items())


# --- law defects (zero iff the law holds on the given arguments) -------------

def _commutativity(ops, x, y):
    return ops.mul(x, y) - ops.mul(y, x)


def _associativity(ops, x, y, z):
    return ops.mul(ops.mul(x, y), z) - ops.mul(x, ops.mul(y, z))


def _prelie_identity(ops, x, y, z):
    def assoc_defect(u, v, w):
        return ops.prelie(ops.prelie(u, v), w) - ops.prelie(u, ops.prelie(v, w))

    return assoc_defect(x, y, z) - assoc_defect(x, z, y)


def _leibniz(ops, x, y, z):
    return (ops.prelie(ops.mul(x, y), z)
            - ops.mul(ops.prelie(x, z), y)
            - ops.mul(x, ops.prelie(y, z)))


def _coassociativity(ops, x):
    out = LinComb()
    for (k1, k2), co in ops.cop(x).items():
        for (a, b), ci in ops.cop_k(k1).items():
            out.add_term((a, b, k2), co * ci)
        for (a, b), ci in ops.cop_k(k2).items():
            out.add_term((k1, a, b), -co * ci)
    return out


def _counit_law(ops, x):
    eps = ops.alg.counit
    left = LinComb()
    right = LinComb()
    for (k1, k2), c in ops.cop(x).items():
        left.add_term(k2, c * eps(k1))
        right.add_term(k1, c * eps(k2))
    d = left - x
    return d if d else right - x


def _multiplicativity(ops, x, y):
    lhs = ops.cop(ops.mul(x, y))
    rhs = LinComb()
    for (a1, a2), ca in ops.cop(x).items():
        for (b1, b2), cb in ops.cop(y).items():
            for k1, c1 in ops.mul_k(a1, b1).items():
                for k2, c2 in ops.mul_k(a2, b2).items():
                    rhs.add_term((k1, k2), ca * cb * c1 * c2)
    return lhs - rhs


def _compatibility(ops, x, y):
    lhs = ops.cop(ops.prelie(x, y))
    cx = ops.cop(x)
    rhs = LinComb()
    for (a1, a2), ca in cx.items():
        for kb, cb in y.items():
            for k, c in ops.prelie_k(a2, kb).items():
                rhs.add_term((a1, k), ca * cb * c)
    cy = ops.cop(y)
    for (a1, a2), ca in cx.items():
        for (b1, b2), cb in cy.items():
            for k1, c1 in ops.prelie_k(a1, b1).items():
                for k2, c2 in ops.mul_k(a2, b2).items():
                    rhs.add_term((k1, k2), ca * cb * c1 * c2)
    return lhs - rhs


def _eps_prelie(ops, x, y):
    v = ops.counit(ops.prelie(x, y))
    return LinComb() if v == 0 else LinComb([(("counit of prelie",), v)])


# law name, arity, required handle pieces, defect function, and (optional)
# a pair of argument slots whose swap negates the defect — for those, only
# ordered basis tuples need sweeping.  The Com-PreLie laws come first, so
# the bialgebra laws reuse the products they memoised.
_LAWS = (
    ("commutativity", 2, ("mul",), _commutativity, (0, 1)),
    ("associativity", 3, ("mul",), _associativity, None),
    ("prelie", 3, (), _prelie_identity, (1, 2)),
    ("leibniz", 3, ("mul",), _leibniz, None),
    ("coassociativity", 1, ("coproduct",), _coassociativity, None),
    ("counit", 1, ("coproduct", "counit"), _counit_law, None),
    ("multiplicativity", 2, ("coproduct", "mul"), _multiplicativity, None),
    ("compatibility", 2, ("coproduct", "mul"), _compatibility, None),
    ("eps-prelie", 2, ("counit",), _eps_prelie, None),
)


def _supported(alg: AlgebraHandle, needs) -> bool:
    """The handle has every piece named in needs."""
    return all(getattr(alg, attr) is not None for attr in needs)


def applicable_laws(alg: AlgebraHandle) -> list[str]:
    return [law for law, _, needs, _, _ in _LAWS if _supported(alg, needs)]


def _basis_slices(alg: AlgebraHandle, maxdeg: int) -> dict[int, list]:
    return {n: list(alg.basis(n)) for n in range(maxdeg + 1)}


def basis_tuples(slices: dict[int, list], arity: int, maxdeg: int):
    """Tuples of `arity` basis keys of total degree <= maxdeg, by degree
    tuple (lexicographic), then by position in the slices."""
    for degs in itertools.product(range(maxdeg + 1), repeat=arity):
        if sum(degs) <= maxdeg:
            yield from itertools.product(*(slices[d] for d in degs))


def basis_witnesses(alg: AlgebraHandle, slices: dict[int, list], arity: int,
                    maxdeg: int, fails: Callable):
    """`x=… y=…`, lazily, for each of the basis_tuples on which
    fails(*keys) holds."""
    for keys in basis_tuples(slices, arity, maxdeg):
        if fails(*keys):
            yield _show(keys, alg.key_str)


def _show(args, fmt: Callable) -> str:
    return " ".join(f"{n}={fmt(a)}" for n, a in zip("xyz", args))


def _sample_lincomb(rnd: random.Random, pool: list) -> LinComb:
    out = LinComb()
    for _ in range(rnd.randint(1, 3)):
        out.add_term(pool[rnd.randrange(len(pool))],
                     Fraction(rnd.choice((-2, -1, 1, 2))))
    return out


def run_all(alg: AlgebraHandle, maxdeg: int, mode: str = "exhaustive",
            seed: int = 7, samples: int = 40) -> list[LawReport]:
    """One report for every law whose pieces the handle has, in one sweep
    over a shared memo table (``applicable_laws`` names the same laws)."""
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    ops = _Ops(alg)
    slices = _basis_slices(alg, maxdeg)
    pool = [k for n in range(maxdeg + 1) for k in slices[n]]
    order = {k: i for i, k in enumerate(pool)}

    def exhaustive(law, arity, defect, sym):
        def fails(*keys):
            if sym and order[keys[sym[0]]] > order[keys[sym[1]]]:
                return False
            return defect(ops, *(unit(k) for k in keys))
        return basis_witnesses(alg, slices, arity, maxdeg, fails)

    def sampled(law, arity, defect, sym):
        rnd = random.Random(f"{seed}:{law}")
        for _ in range(samples):
            args = [_sample_lincomb(rnd, pool) for _ in range(arity)]
            if defect(ops, *args):
                yield _show(args, lambda a: fmt_lincomb(a, alg.key_str))

    stream = exhaustive if mode == "exhaustive" else sampled
    return [first_witness(law, alg.name, maxdeg,
                          stream(law, arity, defect, sym))
            for law, arity, needs, defect, sym in _LAWS
            if _supported(alg, needs)]


# --- deliberate corruptions: the self-test that the sweeps can fail ----------

def _skewed(base: Callable, alg: AlgebraHandle, pick: Callable) -> Callable:
    """base plus unit(pick(a, b)) on the pairs whose first key's text sorts
    first."""
    ks = alg.key_str
    return lambda a, b: (base(a, b) + unit(pick(a, b)) if ks(a) < ks(b)
                         else base(a, b))


def _dropped(base: Callable, alg: AlgebraHandle) -> Callable:
    """base less its term of least key text, where it has two or more."""
    def dropped(a, b):
        out = base(a, b)
        if len(out) >= 2:
            out = LinComb(out)
            del out[min(out, key=alg.key_str)]
        return out

    return dropped


def _marked(base: Callable, alg: AlgebraHandle) -> Callable:
    """base plus one on the first degree-1 key."""
    marked = alg.basis(1)[0]
    return lambda a: base(a) + (1 if a == marked else 0)


# corruption name -> (the handle piece it replaces, a builder of the wrong
# version from that piece and the handle)
_CORRUPTIONS = {
    "mul": ("mul", lambda mul, alg: _skewed(mul, alg, lambda a, b: a)),
    "prelie": ("prelie", lambda pl, alg: _skewed(pl, alg, lambda a, b: b)),
    "prelie-drop": ("prelie", _dropped),
    "coproduct": ("coproduct",
                  lambda cop, alg: lambda a: cop(a) + unit((a, a))),
    "counit": ("counit", _marked),
}


def corrupt(alg: AlgebraHandle, which: str) -> AlgebraHandle:
    """Return a copy of the handle with the piece that corruption `which`
    replaces (see ``_CORRUPTIONS``) made deliberately wrong.  Used to prove
    the harness actually rejects broken structures: every law must fail
    under at least one of these."""
    if which not in _CORRUPTIONS:
        raise ValueError(f"unknown corruption {which!r}")
    piece, build = _CORRUPTIONS[which]
    return replace(alg, name=f"{alg.name}!{which}",
                   **{piece: build(getattr(alg, piece), alg)})


def mutation_selftest(alg: AlgebraHandle, maxdeg: int = 3) -> dict[str, list[str]]:
    """Run the sweeps on each corrupted variant of the handle, one for
    every corruption whose piece it has; map the corruption name to the
    laws it broke.  A healthy harness breaks every applicable law at least
    once across the variants."""
    return {which: [r.law for r in run_all(corrupt(alg, which), maxdeg)
                    if not r.ok]
            for which, (piece, _) in _CORRUPTIONS.items()
            if _supported(alg, (piece,))}


def selftest_gaps(alg: AlgebraHandle, maxdeg: int = 3) -> list[str]:
    """Laws that no corruption managed to break (must be empty)."""
    broken = {law for laws in mutation_selftest(alg, maxdeg).values()
              for law in laws}
    return [law for law in applicable_laws(alg) if law not in broken]


# --- tensor product of Com-PreLie algebras -----------------------------------

def tensor_comprelie(a1: AlgebraHandle, a2: AlgebraHandle,
                     eps: Optional[Callable] = None) -> AlgebraHandle:
    """The Com-PreLie structure on pairs: componentwise commutative
    product, and the preLie product acting on the first slot plus an
    eps-weighted action on the second.  Requires eps(prelie(a, b)) ==
    eps(prelie(b, a)) on the range swept (see check_eps_symmetry).  With
    eps the counit of a bialgebra A, its coproduct is a morphism onto
    tensor_comprelie(A, A): check_morphism(A, tensor_comprelie(A, A),
    A.coproduct, maxdeg)."""
    e = eps if eps is not None else a1.counit
    if e is None:
        raise ValueError(f"{a1.name} needs an eps functional")

    def basis(n: int) -> list:
        return [(x, y) for i in range(n + 1)
                for x in a1.basis(i) for y in a2.basis(n - i)]

    def mul(p, q) -> LinComb:
        return tensor(a1.mul(p[0], q[0]), a2.mul(p[1], q[1]))

    def prelie(p, q) -> LinComb:
        out = tensor(a1.prelie(p[0], q[0]), a2.mul(p[1], q[1]))
        w = e(q[0])
        if w:
            out.iadd_scaled(w, tensor(unit(p[0]), a2.prelie(p[1], q[1])))
        return out

    def key_str(p) -> str:
        return f"({a1.key_str(p[0])})(x)({a2.key_str(p[1])})"

    counit = None
    if a1.counit is not None and a2.counit is not None:
        def counit(p):
            return a1.counit(p[0]) * a2.counit(p[1])

    return AlgebraHandle(
        name=f"{a1.name}(x){a2.name}",
        basis=basis, mul=mul, prelie=prelie,
        unit=(a1.unit, a2.unit), key_str=key_str, counit=counit)


def check_eps_symmetry(alg: AlgebraHandle, eps: Callable,
                       maxdeg: int) -> LawReport:
    """eps(prelie(a, b)) == eps(prelie(b, a)) — the precondition of the
    tensor construction."""
    ops = _Ops(replace(alg, counit=eps))

    def fails(a, b):
        return ops.counit(ops.prelie_k(a, b)) != ops.counit(ops.prelie_k(b, a))

    return first_witness("eps-symmetry", alg.name, maxdeg, basis_witnesses(
        alg, _basis_slices(alg, maxdeg), 2, maxdeg, fails))


def check_morphism(src: AlgebraHandle, dst: AlgebraHandle, phi: Callable,
                   maxdeg: int) -> list[LawReport]:
    """phi, a map from src basis keys to LinCombs over dst keys, is a
    morphism.  One report for each structure both handles have, in the
    order morphism-mul, morphism-prelie, morphism-coproduct ((phi (x) phi)
    D = D phi), morphism-counit and morphism-unit (src's unit alone); the
    witness is the first failing tuple of src basis keys of total degree
    <= maxdeg.  phi is memoised for the call."""
    s, d, f = _Ops(src), _Ops(dst), functools.cache(phi)
    slices = _basis_slices(src, maxdeg)

    def sweep(arity, fails):
        return basis_witnesses(src, slices, arity, maxdeg, fails)

    streams = {  # lazy: a stream is drawn only if both handles have the law
        "mul": sweep(2, lambda a, b: s.mul_k(a, b).map_linear(f)
                     != d.mul(f(a), f(b))),
        "prelie": sweep(2, lambda a, b: s.prelie_k(a, b).map_linear(f)
                        != d.prelie(f(a), f(b))),
        "coproduct": sweep(1, lambda a: tensor_apply2(s.cop_k(a), f, f)
                           != d.cop(f(a))),
        "counit": sweep(1, lambda a: d.counit(f(a)) != src.counit(a)),
        "unit": basis_witnesses(src, {0: [src.unit]}, 1, 0,
                                lambda a: f(a) != unit(dst.unit)),
    }
    name = f"{src.name}->{dst.name}"
    return [first_witness("morphism-" + law, name, maxdeg, stream)
            for law, stream in streams.items()
            if _supported(src, [law]) and _supported(dst, [law])]
