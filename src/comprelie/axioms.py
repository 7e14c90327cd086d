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
basis tuples within a total-degree budget (``basis_tuples``: all of them,
or a seeded choice of them in sampled mode) and report the first
counterexample: a tuple whose law kernel, reading the memoised key-level
products, sums a nonzero defect.  A law whose defect a swap of two slots
negates skips the diagonal of that swap, where the defect is X - X by
construction.
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
    LinComb, _acc, bilinear_extend, tensor, tensor_apply2, unit,
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
    only the preLie identity is swept.  Those of ``handles`` are plain data
    (module-level functions and partials of them), so a verb can send one
    to a worker process.
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
    tables.  They serve one law sweep (one per ``run_all``, on the ids of
    ``_on_ids``) and, through ``rigidity.TruncatedBialgebra``, the rigidity
    pipeline, whose keys stay the basis keys: they are its public API."""

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


# --- law kernels: law(ops, acc, c, *keys) adds c times the law's defect at a
# tuple of basis keys into the LinComb acc; the law holds there iff the
# defect is zero.  They read the key-level memo tables directly.  Every
# defect is multilinear, so its value at LinCombs is the sum of its values
# at their tuples of terms, weighted by the products of the coefficients:
# a LinComb checks nothing that its tuples of basis keys do not.

def _commutativity(ops, acc, c, x, y):
    # x.y - y.x
    _acc(acc, c, ops.mul_k(x, y))
    _acc(acc, -c, ops.mul_k(y, x))


def _associativity(ops, acc, c, x, y, z):
    # (x.y).z - x.(y.z)
    mul = ops.mul_k
    for k, ck in mul(x, y).items():
        _acc(acc, c * ck, mul(k, z))
    for k, ck in mul(y, z).items():
        _acc(acc, -c * ck, mul(x, k))


def _prelie_identity(ops, acc, c, x, y, z):
    # (x•y)•z - x•(y•z), less the same with y and z swapped
    pl = ops.prelie_k
    for u, v, s in ((y, z, c), (z, y, -c)):
        for k, ck in pl(x, u).items():
            _acc(acc, s * ck, pl(k, v))
        for k, ck in pl(u, v).items():
            _acc(acc, -s * ck, pl(x, k))


def _leibniz(ops, acc, c, x, y, z):
    # (x.y)•z - (x•z).y - x.(y•z)
    pl, mul = ops.prelie_k, ops.mul_k
    for k, ck in mul(x, y).items():
        _acc(acc, c * ck, pl(k, z))
    for k, ck in pl(x, z).items():
        _acc(acc, -c * ck, mul(k, y))
    for k, ck in pl(y, z).items():
        _acc(acc, -c * ck, mul(x, k))


def _coassociativity(ops, acc, c, x):
    # (D (x) Id) D x - (Id (x) D) D x
    cop, add = ops.cop_k, acc.add_term
    for (k1, k2), co in cop(x).items():
        co *= c
        for (a, b), ci in cop(k1).items():
            add((a, b, k2), co * ci)
        for (a, b), ci in cop(k2).items():
            add((k1, a, b), -co * ci)


def _counit_law(ops, acc, c, x):
    # (eps (x) Id) D x - x and (Id (x) eps) D x - x, keyed apart by side
    eps = ops.alg.counit
    for (k1, k2), ck in ops.cop_k(x).items():
        acc.add_term((0, k2), c * ck * eps(k1))
        acc.add_term((1, k1), c * ck * eps(k2))
    _acc(acc, -c, {(0, x): 1, (1, x): 1})


def _coproduct_rule(ops, acc, c, first, x, y):
    # D(first(x, y)) - first(x', y') (x) x''.y''
    mul, cop, add = ops.mul_k, ops.cop_k, acc.add_term
    for k, ck in first(x, y).items():
        _acc(acc, c * ck, cop(k))
    cy = cop(y).items()
    for (a1, a2), ca in cop(x).items():
        for (b1, b2), cb in cy:
            f = first(a1, b1)
            if f:  # no product of the second legs is needed
                cab, m2 = -c * ca * cb, mul(a2, b2).items()
                for k1, c1 in f.items():
                    c1 *= cab
                    for k2, c2 in m2:
                        add((k1, k2), c1 * c2)


def _multiplicativity(ops, acc, c, x, y):
    # D(x.y) - x'.y' (x) x''.y''
    _coproduct_rule(ops, acc, c, ops.mul_k, x, y)


def _compatibility(ops, acc, c, x, y):
    # D(x•y) - x'•y' (x) x''.y'' - x' (x) x''•y
    _coproduct_rule(ops, acc, c, ops.prelie_k, x, y)
    for (a1, a2), ca in ops.cop_k(x).items():
        for k, ck in ops.prelie_k(a2, y).items():
            acc.add_term((a1, k), -c * ca * ck)


def _eps_prelie(ops, acc, c, x, y):
    # the scalar eps(x•y), as the coefficient of the empty tensor
    acc.add_term((), c * ops.counit(ops.prelie_k(x, y)))


# law name, arity, required handle pieces, law kernel, and (optional) a pair
# of argument slots whose swap negates the defect.  For those the defect at
# equal keys in the two slots is X - X, zero by construction, so only
# strictly ordered basis tuples need sweeping.  The Com-PreLie laws come
# first, so the bialgebra laws reuse the products they memoised.
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


def basis_witnesses(alg: AlgebraHandle, tuples: Iterable[tuple],
                    fails: Callable):
    """`x=… y=…`, lazily, for each of the tuples of basis keys on which
    fails(*keys) holds."""
    for keys in tuples:
        if fails(*keys):
            yield " ".join(f"{n}={alg.key_str(k)}" for n, k in zip("xyz", keys))


class _Interned(dict):
    """key -> id for one sweep: the keys it starts with get 0, 1, ... in
    their order, a key seen later the next id, and ``key[i]`` is id i's."""

    def __init__(self, keys):
        self.key = list(keys)
        super().__init__((k, i) for i, k in enumerate(self.key))

    def __missing__(self, k):
        i = self[k] = len(self.key)
        self.key.append(k)
        return i


def _at_keys(f, ids: _Interned, *args):
    return f(*map(ids.key.__getitem__, args))


def _keys_to_ids(f, ids: _Interned, *args) -> LinComb:
    out = LinComb()  # distinct keys have distinct ids: nothing to sum
    out.update({ids[k]: c for k, c in _at_keys(f, ids, *args).items()})
    return out


def _legs_to_ids(f, ids: _Interned, *args) -> LinComb:
    out = LinComb()
    out.update({(ids[a], ids[b]): c
                for (a, b), c in _at_keys(f, ids, *args).items()})
    return out


def _on_ids(alg: AlgebraHandle, ids: _Interned) -> AlgebraHandle:
    """The handle on ids: each piece reads the keys of its ids and returns
    ids, so a memo table or accumulator hashes a small int, where a tree
    key's tuple would be hashed whole on every lookup."""
    pieces = {"mul": _keys_to_ids, "prelie": _keys_to_ids,
              "coproduct": _legs_to_ids, "counit": _at_keys,
              "key_str": _at_keys}
    return replace(alg, **{p: functools.partial(wrap, getattr(alg, p), ids)
                           for p, wrap in pieces.items()
                           if getattr(alg, p) is not None})


def run_all(alg: AlgebraHandle, maxdeg: int, mode: str = "exhaustive",
            seed: int = 7, samples: int = 40) -> list[LawReport]:
    """One report for every law whose pieces the handle has, in one sweep
    over a shared memo table (``applicable_laws`` names the same laws).

    A law sweeps the basis tuples of total degree <= maxdeg that its swap
    orders strictly, and a tuple fails when its defect, summed into one
    fresh LinComb, is nonzero.  Exhaustive mode sweeps every such tuple;
    sampled mode a choice of `samples` of them, seeded by seed and the
    law, in the same order.  The sweep runs on ids (``_Interned``): the
    basis keys are numbered in slice order, so a swap orders a tuple
    strictly when its ids do, and witnesses print the keys back."""
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    slices = _basis_slices(alg, maxdeg)
    ids = _Interned(itertools.chain(*slices.values()))
    slices = {n: [ids[k] for k in keys] for n, keys in slices.items()}
    ops = _Ops(_on_ids(alg, ids))

    def witnesses(law, arity, kernel, swap):
        def fails(*keys):
            acc = LinComb()
            kernel(ops, acc, 1, *keys)
            return acc

        def swept():  # the tuples that the swap orders strictly
            return (t for t in basis_tuples(slices, arity, maxdeg)
                    if not swap or t[swap[0]] < t[swap[1]])

        tuples = swept()
        if mode == "sampled":
            n = sum(1 for _ in tuples)
            pick = set(random.Random(f"{seed}:{law}").sample(
                range(n), min(samples, n)))
            tuples = (t for i, t in enumerate(swept()) if i in pick)
        return basis_witnesses(ops.alg, tuples, fails)

    return [first_witness(law, alg.name, maxdeg,
                          witnesses(law, arity, kernel, swap))
            for law, arity, needs, kernel, swap in _LAWS
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
        alg, basis_tuples(_basis_slices(alg, maxdeg), 2, maxdeg), fails))


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
        return basis_witnesses(src, basis_tuples(slices, arity, maxdeg), fails)

    streams = {  # lazy: a stream is drawn only if both handles have the law
        "mul": sweep(2, lambda a, b: s.mul_k(a, b).map_linear(f)
                     != d.mul(f(a), f(b))),
        "prelie": sweep(2, lambda a, b: s.prelie_k(a, b).map_linear(f)
                        != d.prelie(f(a), f(b))),
        "coproduct": sweep(1, lambda a: tensor_apply2(s.cop_k(a), f, f)
                           != d.cop(f(a))),
        "counit": sweep(1, lambda a: d.counit(f(a)) != src.counit(a)),
        "unit": basis_witnesses(src, [(src.unit,)],
                                lambda a: f(a) != unit(dst.unit)),
    }
    name = f"{src.name}->{dst.name}"
    return [first_witness("morphism-" + law, name, maxdeg, stream)
            for law, stream in streams.items()
            if _supported(src, [law]) and _supported(dst, [law])]
