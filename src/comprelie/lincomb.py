"""Sparse linear combinations with exact rational coefficients.

Every algebra element in this package is a ``LinComb``: a finitely supported
map from basis keys to exact rational coefficients.  Basis keys are opaque,
hashable, canonical values (nested tuples for trees, tuples of strings for
words, tuples of leg keys for tensors), except in the law sweep of
``axioms.run_all``: its keys are small-int ids, as a tuple is hashed whole
on every lookup (``rigidity.TruncatedBialgebra`` keeps tree keys).  Zero
coefficients are never stored, so equality of LinCombs is dict equality.

The scalar field is exact: no floats anywhere.  Coefficients are stored as
they come — int or ``fractions.Fraction`` — which is safe because the two
compare and hash identically for equal values; combinatorial code then runs
on fast int arithmetic and Fractions appear only where division does
(linear algebra, series with 1/n terms).

Multilinear maps are built from three primitives: ``tensor`` expands a
list of LinCombs into one LinComb over tuples of their keys, and
``LinComb.map_linear`` and ``bilinear_extend`` apply a basis-level map to
every key (or pair of keys) and sum the results.

``map_linear``, ``bilinear_extend``, the constructor and the vector-space
operators all sum through one accumulation kernel, ``_acc(out, coeff,
other)``: out += coeff * other, one pass over other's terms with no
per-term method call (``LinComb.add_term`` is for callers that add one
term at a time).  It relies on the invariant every LinComb keeps: no zero
coefficient is ever stored, and an operand is never mutated (every
operator returns a fresh object).  So a key new to out takes the scaled
term as it is, with no ``0 + c`` and no zero test (Q has no zero
divisors); ``coeff == 1`` skips the multiply, so no ``1 * Fraction`` is
ever formed; and a copy into an empty out is one ``dict.update``, a copy
of the operand, never the operand itself.  Raw (key, coefficient) pairs,
which may hold zeros and repeats, are filtered once on their way into a
LinComb.  ``tensor`` sums nothing: its product keys are distinct, so it
writes them directly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Hashable


def _acc(out: dict, coeff, other) -> None:
    """out += coeff * other, in place, dropping the sums that cancel.

    other is a mapping or an iterable of (key, coefficient) pairs, with no
    zero coefficient (repeated pairs add up); it is only read, so it must
    not be out itself."""
    if coeff == 1:
        coeff = None
    elif not coeff:
        return
    right = type(coeff) is int  # int * Fraction would take the slow path
    if isinstance(other, dict):
        if coeff is None and not out:
            out.update(other)
            return
        other = other.items()
    get = out.get
    for k, c in other:
        if coeff is not None:
            c = c * coeff if right else coeff * c
        old = get(k)
        if old is None:
            out[k] = c
        else:
            c = old + c
            if c:
                out[k] = c
            else:
                del out[k]


class LinComb(dict):
    """dict basis-key -> Fraction, with vector-space operators.

    The default value of any absent key is 0, and storing a zero removes
    the key.  Instances are treated as immutable by the rest of the
    package (operators return fresh objects); in-place mutation is only
    used locally while accumulating.
    """

    def __init__(self, data=None):
        if data is None:
            return
        if not isinstance(data, LinComb):
            if isinstance(data, dict):
                data = data.items()
            data = ((k, c) for k, c in data if c)
        _acc(self, 1, data)

    def __getitem__(self, key):
        return self.get(key, 0)

    def add_term(self, key, coeff) -> None:
        """self += coeff * key, pruning zeros."""
        if not coeff:
            return
        old = self.get(key)
        if old is None:
            self[key] = coeff
        else:
            coeff = old + coeff
            if coeff:
                self[key] = coeff
            else:
                del self[key]

    def iadd_scaled(self, coeff, other: "LinComb") -> "LinComb":
        _acc(self, coeff, other)
        return self

    def __add__(self, other):
        out = LinComb(self)
        _acc(out, 1, other)
        return out

    def __sub__(self, other):
        out = LinComb(self)
        _acc(out, -1, other)
        return out

    def __neg__(self):
        return self.scale(-1)

    def scale(self, coeff) -> "LinComb":
        out = LinComb()
        _acc(out, coeff, self)
        return out

    def __mul__(self, coeff):
        return self.scale(coeff)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self

    def map_keys(self, f: Callable[[Hashable], Hashable]) -> "LinComb":
        """Apply a key-to-key map."""
        return LinComb((f(k), c) for k, c in self.items())

    def map_linear(self, f: Callable[[Hashable], "LinComb"]) -> "LinComb":
        """Apply a basis-to-LinComb map linearly."""
        out = LinComb()
        for k, c in self.items():
            _acc(out, c, f(k))
        return out

    def __repr__(self):
        return "LinComb(%r)" % (dict(self),)


def unit(key) -> LinComb:
    """The LinComb 1*key."""
    out = LinComb()
    out[key] = 1
    return out


ZERO = LinComb()


def bilinear_extend(op_on_basis: Callable[[Hashable, Hashable], LinComb],
                    a: LinComb, b: LinComb) -> LinComb:
    """Extend a basis-level binary operation bilinearly to LinCombs."""
    out = LinComb()
    for ka, ca in a.items():
        for kb, cb in b.items():
            _acc(out, ca * cb, op_on_basis(ka, kb))
    return out


# ---------------------------------------------------------------------------
# Tensors.  A tensor of n legs is a LinComb whose keys are n-tuples of leg
# keys.  `tensor` is the one multilinear expansion: every other expansion
# over legs applies a map to each key and sums the results, which is
# `map_linear` for one leg and `bilinear_extend` for two.
# ---------------------------------------------------------------------------

def tensor(*factors: LinComb) -> LinComb:
    """factors_1 (x) ... (x) factors_n, keyed by n-tuples of factor keys;
    tensor() is unit(()), and any zero factor makes the result zero.

    The product keys are distinct and, as Q has no zero divisors, their
    coefficients nonzero, so they are written directly."""
    terms = {(): 1}
    for f in factors:
        if not f:
            return LinComb()
        terms = {ks + (k,): (cf if c == 1 else c * cf)
                 for ks, c in terms.items() for k, cf in f.items()}
    out = LinComb()
    out.update(terms)
    return out


def tensor_apply2(t: LinComb, f: Callable[[Hashable], LinComb],
                  g: Callable[[Hashable], LinComb]) -> LinComb:
    """Apply basis-to-LinComb maps f,g to the two legs of a 2-leg tensor."""
    return t.map_linear(lambda k: tensor(f(k[0]), g(k[1])))


# ---------------------------------------------------------------------------
# Text formats.  Scalars print as `p` or `p/q` with q > 0; a LinComb prints
# as `c1*B1 + c2*B2` with terms ordered by the serialized basis string, and
# the zero element prints as `0`.
# ---------------------------------------------------------------------------

def fmt_scalar(c: Fraction | int) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def parse_scalar(s: str) -> Fraction:
    """Parse `p` or `p/q`; raises ValueError on bad input, including q = 0."""
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {s!r}") from None


def fmt_lincomb(x: LinComb, key_str: Callable[[Hashable], str]) -> str:
    if not x:
        return "0"
    parts = sorted(((key_str(k), c) for k, c in x.items()), key=lambda t: t[0])
    return " + ".join("%s*%s" % (fmt_scalar(c), ks) for ks, c in parts)


def parse_lincomb(text: str, parse_key: Callable[[str], Hashable]) -> LinComb:
    """Parse the output format back into a LinComb (`0` is the zero);
    raises ValueError on an empty term or a bad scalar, and passes on what
    parse_key raises."""
    s = text.strip()
    if s in ("", "0"):
        return LinComb()
    out = LinComb()
    sign = Fraction(1)
    for i, tok in enumerate(re.split(r" ([+-]) ", s)):
        if i % 2:
            sign = Fraction(1 if tok == "+" else -1)
            continue
        term = tok.strip()
        if not term:
            raise ValueError(f"empty term in {text!r}")
        coeff = sign
        if "*" in term:
            cs, term = term.split("*", 1)
            coeff *= parse_scalar(cs)
        elif term.startswith("-"):
            coeff, term = -coeff, term[1:].strip()
        out.iadd_scaled(coeff, unit(parse_key(term)))
    return out


def fmt_tensor2(t: LinComb, key_str: Callable[[Hashable], str]) -> str:
    """2-leg tensor format: `c*A (x) B` terms joined by ` + `."""
    return fmt_lincomb(t, lambda k: "%s (x) %s" % (key_str(k[0]), key_str(k[1])))
