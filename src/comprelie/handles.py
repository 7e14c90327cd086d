"""Ready-made AlgebraHandle instances for every structure in the package.

Names understood by :func:`get_handle` (and the CLI), each with the
:func:`get_handle` parameters its factory takes:

  ucp       (labels) partitioned trees with counters, graft-as-new-block
            product, counter-bump action of the unit, cutting coproduct
  cp        (labels) partitioned trees without counters, same product, the
            unit acting by vertex count, cutting coproduct (merged trunk
            block)
  hck       (labels) plain rooted forests, graft product, Connes-Kreimer
            coproduct
  tvf       (alphabet) words under shuffle, the single-letter-action
            preLie product built from an endomorphism of the letter space
            (default: the identity on {a, b}), deconcatenation coproduct
  degneg1   (alphabet, abc) words under shuffle with the length-decreasing
            preLie product built from a letter product and bracket
            (default: the three-letter family at a point where its
            identities close)
  dual-cp   (labels) partitioned trees with the graft-into-every-block
            product (the preLie product dual to block removal)
  dual-ucp  (labels) one-rooted trees with counters, grafting that lowers
            the grafting vertex's counter; bare preLie -- no commutative
            product is part of the structure

Tree handles are graded by vertex count, word handles by length.  A tree
handle's ``parse_key`` reads the trees of its basis shape, whatever their
labels; a word handle's reads the words over its own alphabet.
"""

from __future__ import annotations

import inspect
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .axioms import AlgebraHandle
from .dual import diamond, diamond_down
from .lincomb import unit
from .ptree import (
    EMPTY, counter_total, enum_one_rooted, enum_partitioned,
    enum_plain_forests, is_one_rooted, is_partitioned_tree, is_plain, parse,
    serialize,
)
from .shuffle import (
    EPS, counit_word, deconcat, fmt_word, hyperboloid_products, parse_word,
    shuffle, words_of_length, bullet_tvf, bullet_deg_minus1,
)
from .ucp import (
    coproduct_cp, coproduct_hck, coproduct_ucp, counit, cp_bullet,
    hck_bullet, mul_disjoint_lc, mul_merge_lc, ucp_bullet,
)


def _keys(read: Callable, ok: Callable, why: str) -> Callable:
    """A handle's `parse_key`: `read` the text, and refuse a key not `ok`."""
    def parse_key(text: str):
        key = read(text)
        if not ok(key):
            raise ValueError(f"{text!r} {why}")
        return key

    return parse_key


def _tree_keys(name: str, shape: Callable) -> Callable:
    return _keys(parse, shape, f"is outside the {name} basis")


def _word_keys(name: str, alphabet) -> Callable:
    return _keys(parse_word, set(alphabet).issuperset,
                 f"has a letter outside the {name} alphabet "
                 f"{','.join(sorted(alphabet))}")


def _uncounted_tree(t) -> bool:
    return is_partitioned_tree(t) and not counter_total(t)


def _counter_basis(enum, labels, cap: int):
    """Memoized degree -> basis: every tree of `enum` with counters 0..cap,
    in serialized order."""
    @lru_cache(maxsize=None)
    def basis(n: int) -> list:
        return sorted(enum(n, labels, cap), key=serialize)

    return basis


def ucp_handle(labels=("d",), counter_cap: int = 1) -> AlgebraHandle:
    return AlgebraHandle(
        name="ucp",
        basis=_counter_basis(enum_partitioned, labels, counter_cap),
        prelie=ucp_bullet, mul=mul_merge_lc, unit=EMPTY, key_str=serialize,
        parse_key=_tree_keys("ucp", is_partitioned_tree),
        coproduct=coproduct_ucp, counit=counit)


def cp_handle(labels=("d",)) -> AlgebraHandle:
    return AlgebraHandle(
        name="cp", basis=lambda n: enum_partitioned(n, labels),
        prelie=cp_bullet, mul=mul_merge_lc, unit=EMPTY, key_str=serialize,
        parse_key=_tree_keys("cp", _uncounted_tree),
        coproduct=coproduct_cp, counit=counit)


def hck_handle(labels=("d",)) -> AlgebraHandle:
    return AlgebraHandle(
        name="hck", basis=lambda n: enum_plain_forests(n, labels),
        prelie=hck_bullet, mul=mul_disjoint_lc, unit=EMPTY,
        key_str=serialize, coproduct=coproduct_hck, counit=counit,
        parse_key=_tree_keys("hck",
                             lambda t: is_plain(t) and not counter_total(t)))


def tvf_handle(f=None, alphabet=("a", "b")) -> AlgebraHandle:
    if f is None:
        f = {x: unit(x) for x in alphabet}

    return AlgebraHandle(
        name="tvf", basis=lambda n: words_of_length(alphabet, n),
        prelie=lambda u, v: bullet_tvf(f, u, v), mul=shuffle, unit=EPS,
        key_str=fmt_word, parse_key=_word_keys("tvf", alphabet),
        coproduct=deconcat, counit=counit_word)


def degneg1_handle(abc=(Fraction(1, 2),) * 3,
                   alphabet=("x", "y", "z")) -> AlgebraHandle:
    star, bracket = hyperboloid_products(*abc)
    return AlgebraHandle(
        name="degneg1", basis=lambda n: words_of_length(alphabet, n),
        prelie=lambda u, v: bullet_deg_minus1(star, bracket, u, v),
        mul=shuffle, unit=EPS, key_str=fmt_word,
        parse_key=_word_keys("degneg1", alphabet), coproduct=deconcat,
        counit=counit_word)


def dual_cp_handle(labels=("d",)) -> AlgebraHandle:
    return AlgebraHandle(
        name="dual-cp", basis=lambda n: enum_partitioned(n, labels),
        prelie=diamond, mul=mul_merge_lc, unit=EMPTY, key_str=serialize,
        parse_key=_tree_keys("dual-cp", _uncounted_tree))


def dual_ucp_handle(labels=("d",), counter_cap: int = 1) -> AlgebraHandle:
    return AlgebraHandle(
        name="dual-ucp",
        basis=_counter_basis(enum_one_rooted, labels, counter_cap),
        prelie=diamond_down, mul=None, key_str=serialize,
        parse_key=_tree_keys("dual-ucp", is_one_rooted))


# name -> factory (get_handle reads what it takes off its signature)
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


def get_handle(name: str, labels=("d",), alphabet=None, abc=None,
               **kwargs) -> AlgebraHandle:
    """Build the named handle.  Its factory gets those of `labels`,
    `alphabet` and `abc` that are not None and that its signature names
    (a word handle takes no `labels`, a tree handle no `alphabet`), and
    every other keyword as is."""
    if name not in _FACTORIES:
        known = ", ".join(HANDLE_NAMES)
        raise KeyError(f"unknown algebra {name!r} (known: {known})")
    factory = _FACTORIES[name]
    takes = inspect.signature(factory).parameters
    given = {"labels": labels, "alphabet": alphabet, "abc": abc}
    kwargs.update((p, v) for p, v in given.items()
                  if v is not None and p in takes)
    return factory(**kwargs)
