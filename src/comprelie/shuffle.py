"""Shuffle algebras on words, and the preLie products living on them.

Words over an alphabet are tuples of letter strings; the empty word is
``()`` and prints as ``eps``.  T(V) is spanned by all words, V by the
single letters.  The Hopf structure is the shuffle product with the
deconcatenation coproduct.

A preLie product making this a Com-PreLie bialgebra is determined by its
letter-valued projection: a map ``varpi`` from pairs of words to V.  The
induced product is

    u . v  =  sum  u1 varpi(u2 (x) v1) (u3 sh v2)

over deconcatenations u = u1u2u3, v = v1v2 (concatenate the prefix, one
letter from varpi, and a shuffle of the tails).  Compatibility with the
shuffle product amounts to

    varpi((u sh v) (x) w) = eps(u) varpi(v (x) w) + eps(v) varpi(u (x) w)

and the preLie identity to

    varpi(u.v (x) w) - varpi(u (x) v.w) = varpi(u.w (x) v) - varpi(u (x) w.v).

When the induced product is homogeneous of degree N for word length, varpi
vanishes on components k (x) l with k+l+N != 1, the first identity only
needs checking in total degree k+l+n = 1-N and the second in total degree
k+l+n = 1-2N.

``bullet_varpi`` is the one implementation of that product.  Two families
are instantiated from it, each by building its varpi:

* degree 0 — one endomorphism f of V (the (1,0) component); the product
  inserts f at one letter of the left word and shuffles the rest of it
  into the right word;
* degree -1 — a preLie product ``*`` on V (the (1,1) component) and an
  antisymmetric bracket (the (2,0) component) subject to three mixed
  identities; the right action of the empty word is then a sliding
  bracket of adjacent letters.
"""

from __future__ import annotations

from itertools import product

from .lincomb import LinComb, bilinear_extend, unit, ZERO
from .ptree import LABEL_RE

Word = tuple  # tuple of letter strings
EPS: Word = ()


def fmt_word(w: Word) -> str:
    return ".".join(w) if w else "eps"


def parse_word(s: str) -> Word:
    """Dot-separated letters, each matching `LABEL_RE`; `eps` or
    nothing is the empty word.  Raises ValueError on a bad letter."""
    s = s.strip()
    if s in ("eps", ""):
        return EPS
    word = tuple(p.strip() for p in s.split("."))
    for x in word:
        if not LABEL_RE.fullmatch(x):
            raise ValueError(f"bad letter {x!r} in word {s!r}")
    return word


def counit_word(w: Word):
    return 1 if w == EPS else 0


# ---------------------------------------------------------------------------
# Shuffle product and deconcatenation.
# ---------------------------------------------------------------------------

_SHUFFLE_MEMO: dict = {}


def shuffle(u: Word, v: Word) -> LinComb:
    """Shuffle product of two words, as a LinComb of words."""
    if not u:
        return unit(v)
    if not v:
        return unit(u)
    key = (u, v)
    got = _SHUFFLE_MEMO.get(key)
    if got is None:
        got = LinComb()
        for w, c in shuffle(u[1:], v).items():
            got.add_term((u[0],) + w, c)
        for w, c in shuffle(u, v[1:]).items():
            got.add_term((v[0],) + w, c)
        _SHUFFLE_MEMO[key] = got
    return got


def deconcat(w: Word) -> LinComb:
    """Deconcatenation coproduct: sum of (prefix, suffix) pairs."""
    out = LinComb()
    for i in range(len(w) + 1):
        out.add_term((w[:i], w[i:]), 1)
    return out


# ---------------------------------------------------------------------------
# varpi maps and the induced preLie products.
# ---------------------------------------------------------------------------

class Varpi:
    """A letter-valued bilinear map on words, given by components.

    components: dict (k, l) -> callable (u, v) -> LinComb over letters,
    defined on words of lengths k and l.  Anything outside the listed
    components is zero.  `degree` is the homogeneity degree N when every
    listed component satisfies k + l + N = 1 (None otherwise).
    """

    def __init__(self, components: dict):
        self.components = dict(components)
        degs = {1 - k - l for k, l in self.components}
        self.degree = degs.pop() if len(degs) == 1 else None

    def apply(self, u: Word, v: Word) -> LinComb:
        fn = self.components.get((len(u), len(v)))
        return fn(u, v) if fn else ZERO

    def apply_lc(self, a: LinComb, b: LinComb) -> LinComb:
        return bilinear_extend(self.apply, a, b)


def bullet_varpi(varpi: Varpi, u: Word, v: Word) -> LinComb:
    """The preLie product induced by varpi (prefix, letter, shuffled tails).

    Only the listed components can be nonzero, so for each (k, l) the
    middle piece u2 runs over the k consecutive letters starting at each
    position i of u, against the first l letters of v."""
    out = LinComb()
    for (k, l), fn in varpi.components.items():
        if l > len(v):
            continue
        for i in range(len(u) - k + 1):
            mid = fn(u[i:i + k], v[:l])
            if not mid:
                continue
            sh = shuffle(u[i + k:], v[l:])
            for x, cx in mid.items():
                for w, cw in sh.items():
                    out.add_term(u[:i] + (x,) + w, cx * cw)
    return out


def words_of_length(letters, n: int) -> list[Word]:
    return [tuple(w) for w in product(sorted(letters), repeat=n)]


def _word_triples(varpi: Varpi, letters, scale: int):
    """Word triples (u, v, w) of total length 1 - scale*N, for varpi
    homogeneous of degree N, by the lengths of u and v."""
    total = 1 - scale * varpi.degree
    for k in range(total + 1):
        for l in range(total - k + 1):
            yield from product(words_of_length(letters, k),
                               words_of_length(letters, l),
                               words_of_length(letters, total - k - l))


def eq2_failures(varpi: Varpi, letters):
    """Counterexamples to shuffle-compatibility of varpi, which must be
    homogeneous: for degree N only total word length 1-N can fail, so only
    that total is swept.  Yields (u, v, w, difference) tuples; an empty
    sweep means the identity holds.
    """
    for u, v, w in _word_triples(varpi, letters, 1):
        lhs = varpi.apply_lc(shuffle(u, v), unit(w))
        rhs = LinComb()
        if not u:
            rhs += varpi.apply(v, w)
        if not v:
            rhs += varpi.apply(u, w)
        if lhs != rhs:
            yield (u, v, w, lhs - rhs)


def eq3_failures(varpi: Varpi, letters):
    """Counterexamples to the letter-level preLie identity for varpi, which
    must be homogeneous: for degree N only total length 1-2N can fail.
    """
    def side(x, y, z):
        return (varpi.apply_lc(bullet_varpi(varpi, x, y), unit(z))
                - varpi.apply_lc(unit(x), bullet_varpi(varpi, y, z)))

    for u, v, w in _word_triples(varpi, letters, 2):
        d = side(u, v, w) - side(u, w, v)
        if d:
            yield (u, v, w, d)


# ---------------------------------------------------------------------------
# Degree 0: one endomorphism f of V.
# ---------------------------------------------------------------------------

EndoV = dict  # letter -> LinComb over letters


def apply_endo(f: EndoV, x: str) -> LinComb:
    return f.get(x, ZERO)


def varpi_from_endo(f: EndoV) -> Varpi:
    return Varpi({(1, 0): lambda u, v: apply_endo(f, u[0])})


def bullet_tvf(f: EndoV, u: Word, v: Word) -> LinComb:
    """Degree-0 preLie product: insert f at one letter of u, shuffle the
    rest of u into v (the whole of v goes after the marked letter)."""
    return bullet_varpi(varpi_from_endo(f), u, v)


# ---------------------------------------------------------------------------
# Degree -1: a preLie product * and a bracket on V.
# ---------------------------------------------------------------------------

PairMap = dict  # (letter, letter) -> LinComb over letters


def apply_pair(m: PairMap, x: str, y: str) -> LinComb:
    return m.get((x, y), ZERO)


def varpi_deg_minus1(star: PairMap, bracket: PairMap) -> Varpi:
    return Varpi({
        (1, 1): lambda u, v: apply_pair(star, u[0], v[0]),
        (2, 0): lambda u, v: apply_pair(bracket, u[0], u[1]),
    })


def bullet_deg_minus1(star: PairMap, bracket: PairMap,
                      u: Word, v: Word) -> LinComb:
    """Degree -1 preLie product: a star of one letter of u against the
    first letter of v (shuffling the tails), plus a bracket of two adjacent
    letters of u (shuffling what follows into all of v).  With v empty only
    the bracket sum survives."""
    return bullet_varpi(varpi_deg_minus1(star, bracket), u, v)


def pair_identities_failures(star: PairMap, bracket: PairMap, letters):
    """Counterexamples among letters to the four degree -1 identities:
    * preLie; bracket antisymmetric; x*{y,z} = {x*y,z};
    {x,y}*z = {x*z,y} + {x,y*z} + {{x,y},z}."""
    def s(a: LinComb, y: str) -> LinComb:
        """(a)*y, a a combination of letters."""
        return a.map_linear(lambda t: apply_pair(star, t, y))

    def sl(x: str, a: LinComb) -> LinComb:
        """x*(a)."""
        return a.map_linear(lambda t: apply_pair(star, x, t))

    def br(a: LinComb, y: str) -> LinComb:
        """{a, y}."""
        return a.map_linear(lambda t: apply_pair(bracket, t, y))

    def brl(x: str, a: LinComb) -> LinComb:
        """{x, a}."""
        return a.map_linear(lambda t: apply_pair(bracket, x, t))

    for x in letters:
        for y in letters:
            d = apply_pair(bracket, x, y) + apply_pair(bracket, y, x)
            if d:
                yield ("antisymmetry", x, y, None, d)
            for z in letters:
                d = (s(apply_pair(star, x, y), z) - sl(x, apply_pair(star, y, z))
                     - s(apply_pair(star, x, z), y) + sl(x, apply_pair(star, z, y)))
                if d:
                    yield ("star-prelie", x, y, z, d)
                d = sl(x, apply_pair(bracket, y, z)) - br(apply_pair(star, x, y), z)
                if d:
                    yield ("star-into-bracket", x, y, z, d)
                d = (s(apply_pair(bracket, x, y), z)
                     - br(apply_pair(star, x, z), y)
                     - brl(x, apply_pair(star, y, z))
                     - br(apply_pair(bracket, x, y), z))
                if d:
                    yield ("bracket-leibniz", x, y, z, d)


def hyperboloid_products(a, b, c, letters="xyz") -> tuple[PairMap, PairMap]:
    """The three-dimensional family on three letters (x, y and z by
    default) with parameters a, b, c: the first letter acts as identity
    under *, and its bracket with the other two mixes them through a, b,
    c.  The mixed identities hold exactly on a^2 - a + b c = 0."""
    x, y, z = letters
    star = {
        (x, x): unit(x),
        (x, y): unit(y),
        (x, z): unit(z),
    }
    xy = unit(y).scale(a) + unit(z).scale(b)
    xz = unit(y).scale(c) + unit(z).scale(1 - a)
    bracket = {
        (x, y): xy,
        (y, x): -xy,
        (x, z): xz,
        (z, x): -xz,
    }
    star = {k: v for k, v in star.items() if v}
    bracket = {k: v for k, v in bracket.items() if v}
    return star, bracket
