"""Symmetric-word extension of a preLie product (Oudom-Guin construction).

A right preLie product on a vector space extends canonically to its
symmetric algebra.  Words of basis keys stand for symmetric monomials, kept
as tuples sorted by a caller-supplied string order, with () the unit:

* x • 1 = x;
* a • (w × c) = (a • w) • c − Σ_i a • (w with w_i replaced by w_i • c),
  for a a single key, peeling one factor off the word;
* (x × y) • z = Σ (x • z') × (y • z''), unshuffling z over positions.

The peeled factor is by convention the last one in sort order; that the
result does not depend on this choice is a theorem about preLie products
(and fails for non-preLie ones), so `peel_defect` exposes the difference
against peeling at an arbitrary position as a testable quantity.

The defect helpers at the bottom turn the compatibility laws between the
extension, a commutative product, and a coproduct into computable linear
combinations that vanish exactly when the law holds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

from .axioms import AlgebraHandle, LawReport, _supported, first_witness
from .lincomb import LinComb, bilinear_extend, tensor, unit

SymWord = tuple  # sorted tuple of basis keys; () is the symmetric unit


def fmt_symword(w: SymWord, keystr: Callable = str) -> str:
    """`1` for the empty word, else factors joined with ` x `."""
    return " x ".join(keystr(k) for k in w) if w else "1"


class Extension:
    """Extension of `bullet` (key,key -> LinComb) to symmetric words.

    `keystr` fixes the sort order of word factors; it must be injective on
    the keys in play (serialized canonical forms are).
    """

    def __init__(self, bullet: Callable, keystr: Callable):
        # the base product on keys, memoized (results are shared: treat
        # them as read-only, as everything here does)
        self.bullet = lru_cache(maxsize=None)(bullet)
        self.keystr = keystr
        self._memo: dict = {}

    # -- words ------------------------------------------------------------

    def word(self, keys) -> SymWord:
        return tuple(sorted(keys, key=self.keystr))

    def word_lc(self, factors: Sequence[LinComb]) -> LinComb:
        """Multilinear expansion of a list of LinCombs into one LinComb of
        symmetric words."""
        return tensor(*factors).map_keys(self.word)

    def mul_words(self, a: LinComb, b: LinComb) -> LinComb:
        return bilinear_extend(
            lambda u, v: unit(self.word(u + v)), a, b)

    # -- the extended product ---------------------------------------------

    def _peel(self, a, w: SymWord, pos: int) -> LinComb:
        c = w[pos]
        rest = w[:pos] + w[pos + 1:]
        out = self.bullet_word(a, rest).map_linear(
            lambda x: self.bullet(x, c))
        for i in range(len(rest)):
            corr = self.bullet(rest[i], c)
            out.iadd_scaled(-1, corr.map_linear(
                lambda y: self.bullet_word(
                    a, self.word(rest[:i] + (y,) + rest[i + 1:]))))
        return out

    def bullet_word(self, a, w: SymWord) -> LinComb:
        """a • (w_1 × … × w_k) for a single key a; lands back in the base
        span.  Memoized."""
        if not w:
            return unit(a)
        if len(w) == 1:
            return self.bullet(a, w[0])
        if (a, w) not in self._memo:
            self._memo[(a, w)] = self._peel(a, w, len(w) - 1)
        return self._memo[(a, w)]

    def peel_defect(self, a, w: SymWord, pos: int) -> LinComb:
        """bullet_word minus the same computation peeling position `pos`;
        zero for every preLie product."""
        return self.bullet_word(a, w) - self._peel(a, w, pos)

    def pair(self, u: SymWord, v: SymWord) -> LinComb:
        """u • v for symmetric words, as a LinComb of symmetric words."""
        if not u:
            return unit(()) if not v else LinComb()
        if len(u) == 1:
            return self.bullet_word(u[0], v).map_keys(lambda k: (k,))
        head, rest = u[:1], u[1:]
        out = LinComb()
        n = len(v)
        for mask in range(1 << n):
            vi = tuple(v[i] for i in range(n) if mask >> i & 1)
            vo = tuple(v[i] for i in range(n) if not mask >> i & 1)
            out.iadd_scaled(1, self.mul_words(self.pair(head, vi),
                                              self.pair(rest, vo)))
        return out

    def apply(self, a: LinComb, b: LinComb) -> LinComb:
        """Bilinear extension of `pair` to LinCombs of symmetric words."""
        return bilinear_extend(self.pair, a, b)

    def apply_flat(self, x: LinComb, args: Sequence[LinComb]) -> LinComb:
        """x • (args_1 × … × args_m) for x a LinComb of base keys; the
        result is flattened back to base keys."""
        return bilinear_extend(self.bullet_word, x, self.word_lc(args))


# ---------------------------------------------------------------------------
# Law defects.  Each returns a LinComb that is zero iff the law holds on the
# given arguments.
# ---------------------------------------------------------------------------

def product_rule_defect(ext: Extension, mul: Callable, a, b,
                        cs: Sequence) -> LinComb:
    """(a·b) • (c_1×…×c_n) = Σ_{I⊆[n]} (a•Π_I)·(b•Π_{[n]∖I}), the Leibniz
    rule pushed through the extension."""
    n = len(cs)
    lhs = mul(a, b).map_linear(lambda k: ext.bullet_word(k, ext.word(cs)))
    rhs = LinComb()
    for mask in range(1 << n):
        wi = ext.word([cs[i] for i in range(n) if mask >> i & 1])
        wo = ext.word([cs[i] for i in range(n) if not mask >> i & 1])
        rhs.iadd_scaled(1, bilinear_extend(mul, ext.bullet_word(a, wi),
                                           ext.bullet_word(b, wo)))
    return lhs - rhs


def coproduct_rule_defect(ext: Extension, mul: Callable, cop: Callable,
                          unit_key, a, bs: Sequence) -> LinComb:
    """Compatibility of the extended product with a coproduct:

    Δ(a•(b_1×…×b_n)) = Σ_{I⊆[n]} a'•(Π^×_{i∈I} b_i') ⊗ (Π_{i∈I} b_i'')·(a''•Π^×_{i∉I} b_i)
    """
    n = len(bs)
    lhs = ext.bullet_word(a, ext.word(bs)).map_linear(cop)
    rhs = LinComb()
    da = cop(a)

    # The inside factors expand into keys (word of b' legs, product of b''
    # legs); `wo` is the word of the outside factors of the current mask.
    def grow(w, b):
        return mul(w[1], b[1]).map_keys(lambda r: (w[0] + (b[0],), r))

    def term(w, a12):
        core = ext.bullet_word(a12[1], wo).map_linear(lambda k: mul(w[1], k))
        return tensor(ext.bullet_word(a12[0], ext.word(w[0])), core)

    for mask in range(1 << n):
        wo = ext.word([bs[i] for i in range(n) if not mask >> i & 1])
        acc = unit(((), unit_key))
        for i in range(n):
            if mask >> i & 1:
                acc = bilinear_extend(grow, acc, cop(bs[i]))
        rhs.iadd_scaled(1, bilinear_extend(term, acc, da))
    return lhs - rhs


def absorb_defect(ext: Extension, unit_key, a, bs: Sequence,
                  k: int) -> LinComb:
    """For a with primitive-style behavior, grafting k copies of the algebra
    unit inside a symmetric word is the same as applying x ↦ x•unit k times
    first: a•(unit^{×k}×b_1×…×b_l) = f^k(a)•(b_1×…×b_l)."""
    lhs = ext.bullet_word(a, ext.word([unit_key] * k + list(bs)))
    rhs = unit(a)
    for _ in range(k):
        rhs = rhs.map_linear(lambda x: ext.bullet(x, unit_key))
    rhs = rhs.map_linear(lambda x: ext.bullet_word(x, ext.word(bs)))
    return lhs - rhs


# ---------------------------------------------------------------------------
# Handle-level entry points: the extension of a packaged algebra's preLie
# product, and exhaustive sweeps of the laws above within a degree budget.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def extension_for(alg: AlgebraHandle) -> Extension:
    """One shared extension (with its memo table) per algebra handle."""
    return Extension(alg.prelie, alg.key_str)


def _degree_pool(alg: AlgebraHandle, lo: int, hi: int) -> list:
    return [(k, n) for n in range(lo, hi + 1) for k in alg.basis(n)]


def _sym_words(pool: list, maxlen: int, maxdeg: int) -> list:
    """Multisets of ≤ maxlen pool keys with total degree ≤ maxdeg, as
    (word, degree) pairs; pool must be sorted by degree ascending."""
    out = [((), 0)]
    _grow_sym_words(pool, maxlen, maxdeg, 0, (), 0, out)
    return out


def _grow_sym_words(pool: list, maxlen: int, maxdeg: int, start: int,
                    word: tuple, deg: int, out: list) -> None:
    """Append to out, depth first, every extension of word (of degree deg)
    by pool keys from index start on."""
    for i in range(start, len(pool)):
        k, n = pool[i]
        if deg + n > maxdeg:
            break
        grown = word + (k,)
        out.append((grown, deg + n))
        if len(grown) < maxlen:
            _grow_sym_words(pool, maxlen, maxdeg, i, grown, deg + n, out)


def check_prop6(alg: AlgebraHandle, maxsize: int) -> list[LawReport]:
    """Sweep the two compatibility identities of the extended product over
    all basis keys a, b and symmetric words w of basis keys, with total
    degree ≤ maxsize and at most maxsize word factors:

    * product rule: (a·b)•w splits as the sum over subword splittings
      w = w'⊔w'' of (a•w')·(b•w'');
    * coproduct rule: Δ(a•w) expands through Δ(a) and the factorwise
      coproducts of w.

    A rule is skipped where the handle lacks a piece it needs: both need
    the product, and the coproduct rule the coproduct too.
    """
    ext = extension_for(alg)
    pool = _degree_pool(alg, 0, maxsize)
    words = _sym_words(pool, maxsize, maxsize)
    ks = alg.key_str
    pairs = [(a, b, da + db) for i, (a, da) in enumerate(pool)
             for b, db in pool[i:] if da + db <= maxsize]
    rules = (  # name, the pieces it needs, its lazy stream of witnesses
        ("product-rule", ("mul",),
         (f"a={ks(a)} b={ks(b)} w={fmt_symword(w, ks)}"
          for a, b, d in pairs for w, dw in words if d + dw <= maxsize
          and product_rule_defect(ext, alg.mul, a, b, list(w)))),
        ("coproduct-rule", ("mul", "coproduct"),
         (f"a={ks(a)} w={fmt_symword(w, ks)}"
          for a, da in pool for w, dw in words if da + dw <= maxsize
          and coproduct_rule_defect(ext, alg.mul, alg.coproduct,
                                    alg.unit, a, list(w)))),
    )
    return [first_witness(law, alg.name, maxsize, stream)
            for law, needs, stream in rules if _supported(alg, needs)]


def check_lemma7(alg: AlgebraHandle, maxk: int, maxl: int) -> LawReport:
    """Absorption of unit factors into symmetric words:

        a • (∅^{×k} × b_1 × … × b_l)  =  f^k(a) • (b_1 × … × b_l)

    with f(x) = x•∅, swept for degree-one basis keys a (the identity is
    linear in a), k ≤ maxk, and words of ≤ maxl factors with total degree
    ≤ maxl."""
    if alg.unit is None:
        raise ValueError(f"{alg.name} has no unit")
    ext = extension_for(alg)
    words = _sym_words(_degree_pool(alg, 1, maxl), maxl, maxl)
    ks = alg.key_str
    return first_witness(
        "unit-absorption", alg.name, maxk + maxl,
        (f"a={ks(a)} k={k} w={fmt_symword(w, ks)}"
         for a in alg.basis(1) for k in range(maxk + 1) for w, _ in words
         if absorb_defect(ext, alg.unit, a, list(w), k)))
