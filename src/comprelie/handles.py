"""Ready-made AlgebraHandle instances for every structure in the package.

Names understood by :func:`get_handle` (and the CLI):

  ucp       partitioned trees with counters, graft-as-new-block product,
            counter-bump action of the unit, cutting coproduct
  cp        partitioned trees without counters, same product, the unit
            acting by vertex count, cutting coproduct (merged trunk block)
  hck       plain rooted forests, graft product, Connes-Kreimer coproduct
  tvf       words under shuffle, the single-letter-action preLie product
            built from an endomorphism of the letter space (default: the
            identity on {a, b}), deconcatenation coproduct
  degneg1   words under shuffle with the length-decreasing preLie product
            built from a letter product and bracket (default: the
            three-letter family at a point where its identities close)
  dual-cp   partitioned trees with the graft-into-every-block product
            (the preLie product dual to block removal)
  dual-ucp  one-rooted trees with counters, grafting that lowers the
            grafting vertex's counter; bare preLie -- no commutative
            product is part of the structure

Tree handles are graded by vertex count, word handles by length.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .axioms import AlgebraHandle
from .dual import diamond, diamond_down
from .lincomb import unit
from .ptree import (
    EMPTY, canonicalize, enum_one_rooted, enum_partitioned,
    enum_plain_forests, nvertices, serialize,
)
from .shuffle import (
    EPS, counit_word, deconcat, fmt_word, hyperboloid_products, shuffle,
    words_of_length, bullet_tvf, bullet_deg_minus1,
)
from .ucp import (
    coproduct_cp, coproduct_hck, coproduct_ucp, counit, cp_bullet,
    hck_bullet, mul_disjoint_lc, mul_merge_lc, ucp_bullet,
)


def with_counters(forest, cap: int) -> list:
    """All ways to set each vertex counter to 0..cap, canonicalized."""
    def raw(blocks, it):
        return tuple(tuple(((k + next(it), lab), raw(kids, it))
                           for (k, lab), kids in b) for b in blocks)

    out = set()
    for combo in itertools.product(range(cap + 1), repeat=nvertices(forest)):
        out.add(canonicalize(raw(forest, iter(combo))))
    return sorted(out, key=serialize)


def _counter_basis(enum, labels, cap: int):
    """Memoized degree -> basis: every tree of `enum` with counters 0..cap."""
    @lru_cache(maxsize=None)
    def basis(n: int) -> list:
        out = set()
        for t in enum(n, labels):
            out.update(with_counters(t, cap))
        return sorted(out, key=serialize)

    return basis


def ucp_handle(labels=("d",), counter_cap: int = 1) -> AlgebraHandle:
    return AlgebraHandle(
        name="ucp",
        basis=_counter_basis(enum_partitioned, labels, counter_cap),
        prelie=ucp_bullet, mul=mul_merge_lc, unit=EMPTY, key_str=serialize,
        coproduct=coproduct_ucp, counit=counit)


def cp_handle(labels=("d",)) -> AlgebraHandle:
    return AlgebraHandle(
        name="cp", basis=lambda n: enum_partitioned(n, labels),
        prelie=cp_bullet, mul=mul_merge_lc, unit=EMPTY, key_str=serialize,
        coproduct=coproduct_cp, counit=counit)


def hck_handle(labels=("d",)) -> AlgebraHandle:
    return AlgebraHandle(
        name="hck", basis=lambda n: enum_plain_forests(n, labels),
        prelie=hck_bullet, mul=mul_disjoint_lc, unit=EMPTY,
        key_str=serialize, coproduct=coproduct_hck, counit=counit)


def tvf_handle(f=None, alphabet=("a", "b")) -> AlgebraHandle:
    if f is None:
        f = {x: unit(x) for x in alphabet}

    return AlgebraHandle(
        name="tvf", basis=lambda n: words_of_length(alphabet, n),
        prelie=lambda u, v: bullet_tvf(f, u, v), mul=shuffle, unit=EPS,
        key_str=fmt_word, coproduct=deconcat, counit=counit_word)


def degneg1_handle(a=Fraction(1, 2), b=Fraction(1, 2), c=Fraction(1, 2),
                   alphabet=("x", "y", "z")) -> AlgebraHandle:
    star, bracket = hyperboloid_products(a, b, c)
    return AlgebraHandle(
        name="degneg1", basis=lambda n: words_of_length(alphabet, n),
        prelie=lambda u, v: bullet_deg_minus1(star, bracket, u, v),
        mul=shuffle, unit=EPS, key_str=fmt_word, coproduct=deconcat,
        counit=counit_word)


def dual_cp_handle(labels=("d",)) -> AlgebraHandle:
    return AlgebraHandle(
        name="dual-cp", basis=lambda n: enum_partitioned(n, labels),
        prelie=diamond, mul=mul_merge_lc, unit=EMPTY, key_str=serialize)


def dual_ucp_handle(labels=("d",), counter_cap: int = 1) -> AlgebraHandle:
    return AlgebraHandle(
        name="dual-ucp",
        basis=_counter_basis(enum_one_rooted, labels, counter_cap),
        prelie=diamond_down, mul=None, key_str=serialize)


_FACTORIES = {
    "ucp": ucp_handle,
    "cp": cp_handle,
    "hck": hck_handle,
    "tvf": tvf_handle,
    "degneg1": degneg1_handle,
    "dual-cp": dual_cp_handle,
    "dual-ucp": dual_ucp_handle,
}

HANDLE_NAMES = tuple(_FACTORIES)


def get_handle(name: str, labels=("d",), **kwargs) -> AlgebraHandle:
    """Build the named handle; `labels` applies to the tree algebras."""
    if name not in _FACTORIES:
        known = ", ".join(HANDLE_NAMES)
        raise KeyError(f"unknown algebra {name!r} (known: {known})")
    factory = _FACTORIES[name]
    if name in ("tvf", "degneg1"):
        return factory(**kwargs)
    return factory(labels=labels, **kwargs)
