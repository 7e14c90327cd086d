"""Constructive cofreeness machinery for connected graded bialgebras.

Pipeline, for a degree-truncated algebra A (bound N):

1. ``primitive_basis``: the degree-n primitives, as the exact kernel of
   the reduced coproduct on the slice.
2. ``Omega``: a map from tensor words of primitives into A, defined
   by grafting — omega() = unit, omega(x w) = g(x) • omega(w) — where g is
   a right inverse of f(x) = x•unit, found by an exact per-degree solve
   (on the tree algebras f scales a homogeneous element by its degree, and
   the solve divides by it).  omega is a degree-preserving
   coalgebra morphism onto A (deconcatenation on the word side) and
   invertible on every slice; both are exposed as checks.
3. ``TruncatedBialgebra.psi_k``: the convolution logarithm of the
   identity, psi = sum (−1)^{m+1}/m · mul^{m−1} ∘ reduced-Δ^{m−1}.  It
   fixes primitives and kills products of augmentation-ideal elements.
4. ``HopfIso``: varpi = (length-1 component of omega⁻¹ ∘ psi),
   then F(x) = sum_m varpi^{⊗m}(reduced-Δ^{m−1}(x)) — the unique coalgebra
   morphism to the word side whose length-1 component is varpi.  F takes
   the commutative product to the shuffle product, slice by slice, and is
   invertible; again checks, not assumptions.

Both sums are computed by recursion on the first leg of the reduced
coproduct, reduced-Δ(k) = Σ a ⊗ b.  Expanding the last leg each time
defines the iterated reduced coproduct, so reduced-Δ^{m−1}(k) =
Σ a ⊗ reduced-Δ^{m−2}(b) holds by construction, with no coassociativity
assumed.  Hence the m-th chain mul^{m−1} ∘ reduced-Δ^{m−1}(k) is
Σ a · (the (m−1)-th chain of b), which regroups the products and so relies
on the associativity of the product; and F(k) = varpi(k) +
Σ varpi(a) ⊗ F(b) over words, the same sum term for term.  Each key's
chains and F image are computed once: the product and coproduct tables
are ``axioms._Ops``'s, which ``TruncatedBialgebra`` extends, and chains,
varpi and F keep one table each, keyed by basis key (varpi's holds what
psi gave it, so psi keeps none).

Everything is exact rational arithmetic, and every linear-algebra step is
one call into ``linalg``'s sparse elimination on dict rows: the primitives
are a nullspace and g one solve per degree, with every primitive of the
degree as a right-hand side, over equations in slice positions
(``_system``); omega⁻¹ is asked only for the letter coordinates behind
varpi, so one elimination per degree carries one extra column per letter
instead of one per word, kept as a key -> letter table and applied with
``mat_vec``.  omega's iso check reads the same table and ranks a slice
only where it is missing; F's ranks the F images, in reverse slice
order, by the same forward pass.
Only the printed ``matrix`` methods build dense rows.  The checks return
LawReport values through ``axioms.first_witness`` (same shape as the axiom
sweeps), so a failed property names its witness.

The checks run in int arithmetic, though omega's images, varpi and F hold
Fractions (psi's 1/m, g = p/n, omega⁻¹'s pivots).  omega-coalgebra,
hopf-coalgebra, hopf-multiplicative and varpi-primitives read views x = X / d
of the images (X integral, d the lcm of x's denominators, one memo per map
read through ``apply_word``, ``varpi_k`` or ``F_k``), add M·LHS − M·RHS, M
the lcm of their terms' d, into one int accumulator (``_defect``) and fail
iff a value is left: exact, as M ≠ 0 and Q has no zero divisors.
hopf-iso's ``rank`` clears each row's denominators as it takes the row.

The last section probes the converse: on the counter algebra with two
distinct labels, no element has reduced coproduct equal to the single
mixed tensor v_d ⊗ v_e; ``cofree_obstruction`` sets up that linear system
and reports it infeasible.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from .axioms import (
    AlgebraHandle, LawReport, _basis_slices, _Ops, basis_tuples,
    basis_witnesses, first_witness,
)
from .linalg import invert, mat_vec, nullspace, rank, solve
from .lincomb import LinComb, _acc, unit
from .shuffle import Word, fmt_word, shuffle


class TruncatedBialgebra(_Ops):
    """A connected graded bialgebra handle cut at degree N.

    The key-level product and coproduct tables are ``axioms._Ops``'s, the
    same memo the law sweep uses; this adds the slice bases, the reduced
    coproduct and the chains behind psi.  Everything else in this module
    works through one of these."""

    # bound here, not inherited: the tracer counts each class's own
    # attributes, so this memo is counted apart from the sweep's
    mul_k = _Ops.mul_k
    prelie_k = _Ops.prelie_k
    cop_k = _Ops.cop_k

    def __init__(self, alg: AlgebraHandle, N: int):
        for piece in ("mul", "coproduct", "counit"):
            if getattr(alg, piece) is None:
                raise ValueError(f"{alg.name} lacks {piece}")
        super().__init__(alg)
        self.N = N
        self.slices = _basis_slices(alg, N)
        if self.slices[0] != [alg.unit]:
            raise ValueError(f"{alg.name} is not connected")
        self.deg = {k: n for n, ks in self.slices.items() for k in ks}
        self._chains: dict = {}
        self._prim: dict = {}

    def reduced_k(self, k) -> LinComb:
        """Coproduct minus the two unit legs; zero on the unit itself."""
        e = self.alg.unit
        if k == e:
            return LinComb()
        return self.cop_k(k) - unit((k, e)) - unit((e, k))

    def chains(self, k) -> list[LinComb]:
        """mul^{m−1} ∘ reduced-Δ^{m−1} of a key for m = 1..deg k: k itself,
        then, over reduced-Δ(k) = Σ a ⊗ b, Σ a · (the (m−1)-th chain of
        b)."""
        out = self._chains.get(k)
        if out is None:
            n = self.deg[k]
            out = [unit(k)] + [LinComb() for _ in range(1, n)] if n else []
            for (a, b), c in self.reduced_k(k).items():
                for m, chain in enumerate(self.chains(b), start=1):
                    out[m].iadd_scaled(c, chain.map_linear(
                        lambda j: self.mul_k(a, j)))
            self._chains[k] = out
        return out

    def psi_k(self, k) -> LinComb:
        out = LinComb()
        for m, chain in enumerate(self.chains(k), start=1):
            out.iadd_scaled(Fraction((-1) ** (m + 1), m), chain)
        return out


def primitive_basis(tb: TruncatedBialgebra, n: int) -> list[LinComb]:
    """Kernel of the reduced coproduct on the degree-n slice."""
    if n > tb.N:
        raise ValueError(f"degree {n} beyond bound {tb.N}")
    if n not in tb._prim:
        keys = [] if n == 0 else tb.slices[n]
        rows, _ = _system([tb.reduced_k(k) for k in keys], [])
        tb._prim[n] = [_over(keys, v) for v in nullspace(rows, len(keys))]
    return tb._prim[n]


def _system(images: list, targets: list) -> tuple[list, list]:
    """The equations of sum_j x_j images[j] = target, for each target: one
    row {position j: coeff} per key that an image or a target touches,
    and one right-hand side per target, its coefficients there.  Columns
    are positions, not keys, so the kernel basis follows the order of the
    images."""
    eqs: dict = {k: {} for t in targets for k in t}
    for j, im in enumerate(images):
        for k, c in im.items():
            eqs.setdefault(k, {})[j] = c
    return list(eqs.values()), [[t[k] for k in eqs] for t in targets]


def _over(keys: list, v: dict) -> LinComb:
    """The combination of keys whose coordinates by position are v."""
    return LinComb((keys[j], c) for j, c in v.items())


def _dense(x: LinComb, idx: dict) -> list:
    """x as a printed matrix row over the positions idx gives its keys."""
    vec = [0] * len(idx)
    for k, c in x.items():
        vec[idx[k]] += c
    return vec


def _iso_witness(images: list, ncols: int, rows: str,
                 cols: str) -> Optional[str]:
    """Why the images, as matrix rows, are not square of full rank (ranked
    once), or None."""
    if len(images) != ncols:
        return f"{len(images)} {rows} vs {ncols} {cols}"
    r = rank(images)
    return None if r == ncols else f"rank {r} < {ncols}"


def _integral(x: LinComb) -> tuple[int, dict]:
    """(d, X) with x = X / d: d the lcm of x's denominators, X int."""
    d = lcm(*(c.denominator for c in x.values()))
    return d, {k: c.numerator * (d // c.denominator) for k, c in x.items()}


class _Integral(dict):
    """key -> ``_integral(f(key))``, made on first use; f stays the truth."""

    def __init__(self, f: Callable):
        self.f = f

    def __missing__(self, k):
        out = self[k] = _integral(self.f(k))
        return out


def _tensor(x: tuple, y: tuple) -> tuple:
    """The view of x ⊗ y from the views of x and y, its terms lazily."""
    (dx, x), (dy, y) = x, y
    return dx * dy, (((kx, ky), cx * cy) for kx, cx in x.items()
                     for ky, cy in y.items())


def _defect(terms: list) -> dict:
    """M · Σ c·X/d over the terms (c, d, X) (X int, mapping or pairs), M the
    lcm of the d, in one int accumulator: empty iff the sum is zero."""
    m = lcm(*(d for _, d, _ in terms))
    acc: dict = {}
    for c, d, x in terms:
        _acc(acc, c * (m // d), x)
    return acc


# ---------------------------------------------------------------------------
# omega: tensor words of primitives -> A, by grafting.
# ---------------------------------------------------------------------------

class Omega:
    """The grafting-built coalgebra map from words of primitive letters.

    Letters are strings "v{n}_{i}" naming the i-th degree-n primitive;
    a word's degree is the sum of its letters' degrees."""

    def __init__(self, tb: TruncatedBialgebra):
        self.tb = tb
        self.letters: list[str] = []
        self.letter_prim: dict[str, LinComb] = {}
        self.letter_deg: dict[str, int] = {}
        self._g: dict[str, LinComb] = {}
        for n in range(1, tb.N + 1):
            prims = primitive_basis(tb, n)
            for i, (p, g) in enumerate(zip(prims,
                                           self._right_inverses(n, prims))):
                name = f"v{n}_{i}"
                self.letters.append(name)
                self.letter_prim[name] = p
                self.letter_deg[name] = n
                self._g[name] = g
        self._words: dict[int, list[Word]] = {}
        self._omega: dict[Word, LinComb] = {}
        self._inv: dict[int, Optional[dict]] = {}

    def _f(self, x: LinComb) -> LinComb:
        return self.tb.prelie(x, unit(self.tb.alg.unit))

    def _right_inverses(self, n: int, prims: list) -> list[LinComb]:
        """g for each degree-n primitive p: f(g) = p, a solution of f's
        linear system on the slice with the free coordinates pinned to
        zero.  One elimination serves every primitive of the degree, each
        as a right-hand side.  Where f is n·id on the degree-n slice (the
        tree algebras), g is the primitive over n."""
        if not prims:
            return []
        keys = self.tb.slices[n]
        rows, bs = _system([self._f(unit(k)) for k in keys], prims)
        out = []
        for sol in solve(rows, bs, len(keys)):
            if sol is None:
                raise ValueError(
                    f"f is not surjective onto primitives in degree {n}")
            out.append(_over(keys, sol))
        return out

    def words(self, n: int) -> list[Word]:
        """All letter words of total degree n, in letter order."""
        got = self._words.get(n)
        if got is None:
            got = self._words[n] = [()] if n == 0 else [
                (x,) + w for x in self.letters if self.letter_deg[x] <= n
                for w in self.words(n - self.letter_deg[x])]
        return got

    def apply_word(self, w: Word) -> LinComb:
        out = self._omega.get(w)
        if out is None:
            if not w:
                out = unit(self.tb.alg.unit)
            else:
                out = self.tb.prelie(self._g[w[0]], self.apply_word(w[1:]))
            self._omega[w] = out
        return out

    def matrix(self, n: int) -> list[list[Fraction]]:
        """For printing: rows indexed by words(n), columns by the slice."""
        idx = {k: i for i, k in enumerate(self.tb.slices[n])}
        return [_dense(self.apply_word(w), idx) for w in self.words(n)]

    def inverse(self, y: LinComb, n: int) -> LinComb:
        """The letter coordinates of omega⁻¹(y) for a homogeneous degree-n
        y: the length-1 part of its word expansion, over letters.  Raises
        ValueError where omega is not invertible on the slice."""
        table = self._letter_table(n)
        if table is None:
            raise ValueError(f"omega is not invertible in degree {n}")
        return LinComb(mat_vec(table, y))

    def _letter_table(self, n: int) -> Optional[dict]:
        """{slice key: {letter: c}}, the letter columns of omega⁻¹ on the
        degree-n slice from one elimination; None where the slice is not
        square or omega is singular on it."""
        if n not in self._inv:
            keys, rows = self._image_rows(n)
            words = self.words(n)
            cols = [i for i, w in enumerate(words) if len(w) == 1]
            inv = invert(rows, cols) if len(rows) == len(keys) else None
            self._inv[n] = None if inv is None else {
                k: {words[i][0]: c for i, c in row.items()}
                for k, row in zip(keys, inv)}
        return self._inv[n]

    def _image_rows(self, n: int) -> tuple[list, list[dict]]:
        """The degree-n slice in reverse order, and omega of each degree-n
        word as a row over positions in it.

        The pivots are least columns, so on cp they start from the trees
        with the most roots, which sort last.  Inverse and rank are the
        same in either order, and the elimination fills in far less (the
        rank of cp's 444 degree-7 images: 2.9 s in slice order, 0.24 s
        reversed, in process on a 2-core container)."""
        keys = self.tb.slices[n][::-1]
        idx = {k: i for i, k in enumerate(keys)}
        return keys, [{idx[k]: c for k, c in self.apply_word(w).items()}
                      for w in self.words(n)]

    # -- checks --------------------------------------------------------------

    def check_iso(self) -> list[LawReport]:
        """Per degree: as many words as slice elements, and full rank.  A
        slice with a letter table passes; only a failing one is ranked,
        for its witness."""
        return [LawReport("omega-iso", self.tb.alg.name, n, None
                          if self._letter_table(n) is not None else
                          _iso_witness(self._image_rows(n)[1],
                                       len(self.tb.slices[n]),
                                       "words", "basis elements"))
                for n in range(1, self.tb.N + 1)]

    def check_coalgebra(self) -> LawReport:
        """Coproduct of omega(w) equals omega⊗omega of the deconcatenation."""
        om, cop = _Integral(self.apply_word), self.tb.cop_k

        def fails(w):
            d, x = om[w]
            return _defect([(c, d, cop(k)) for k, c in x.items()] + [
                (-1, *_tensor(om[w[:i]], om[w[i:]]))
                for i in range(len(w) + 1)])

        words = (w for n in range(self.tb.N + 1) for w in self.words(n))
        return first_witness("omega-coalgebra", self.tb.alg.name, self.tb.N,
                             (f"w={fmt_word(w)}" for w in words if fails(w)))


# ---------------------------------------------------------------------------
# F: the induced isomorphism onto the shuffle algebra of primitive letters.
# ---------------------------------------------------------------------------

class HopfIso:
    """varpi = length-1 component of omega⁻¹ ∘ psi, and F the coalgebra
    morphism with that length-1 component: multiplicative into the shuffle
    product, invertible per slice."""

    def __init__(self, tb: TruncatedBialgebra):
        self.tb = tb
        self.omega = Omega(tb)
        self._varpi: dict = {}
        self._F: dict = {}
        # two checks read F's views; omega's and varpi's live in the one
        # check that reads each, so that their memory is freed after it
        self._F_int = _Integral(self.F_k)

    def varpi_k(self, k) -> LinComb:
        """LinComb over letters: the letter coordinates of omega⁻¹(psi(k))."""
        out = self._varpi.get(k)
        if out is None:
            y = self.tb.psi_k(k)  # zero on the unit
            out = self._varpi[k] = (self.omega.inverse(y, self.tb.deg[k])
                                    if y else LinComb())
        return out

    def F_k(self, k) -> LinComb:
        """LinComb over letter words: the empty word on the unit, else
        varpi(k) + Σ varpi(a) ⊗ F(b) over reduced-Δ(k) = Σ a ⊗ b, letters
        prefixed to words.  F(b) is read through F_k, so one table holds
        every key's image."""
        out = self._F.get(k)
        if out is None:
            if k == self.tb.alg.unit:
                out = unit(())
            else:
                out = self.varpi_k(k).map_keys(lambda x: (x,))
                for (a, b), c in self.tb.reduced_k(k).items():
                    va = self.varpi_k(a)
                    if va:
                        fb = self.F_k(b)
                        for x, cx in va.items():
                            out.iadd_scaled(c * cx, fb.map_keys(
                                lambda w, x=x: (x,) + w))
            self._F[k] = out
        return out

    def matrix(self, n: int) -> list[list[Fraction]]:
        """For printing: rows indexed by the slice, columns by words(n)."""
        idx = {w: j for j, w in enumerate(self.omega.words(n))}
        return [_dense(self.F_k(k), idx) for k in self.tb.slices[n]]

    # -- checks --------------------------------------------------------------

    def _witnesses(self, arity: int, fails: Callable):
        """Witnesses among the basis tuples within the degree bound."""
        return basis_witnesses(self.tb.alg, basis_tuples(
            self.tb.slices, arity, self.tb.N), fails)

    def check_multiplicative(self) -> LawReport:
        """F of the commutative product is the shuffle of the F images,
        for every basis pair within the degree bound."""
        F = self._F_int

        def fails(a, b):
            d, pairs = _tensor(F[a], F[b])
            return _defect([(c, *F[k]) for k, c in self.tb.mul_k(a, b).items()]
                           + [(-c, d, shuffle(*uv)) for uv, c in pairs])

        return first_witness("hopf-multiplicative", self.tb.alg.name,
                             self.tb.N, self._witnesses(2, fails))

    def check_projection(self) -> LawReport:
        """The length-1 component of F is varpi, and F sends the unit to
        the empty word."""
        def fails(k):
            length1 = LinComb((w[0], c) for w, c in self.F_k(k).items()
                              if len(w) == 1)
            return length1 != self.varpi_k(k)

        def witnesses():
            if self.F_k(self.tb.alg.unit) != unit(()):
                yield "unit image"
            yield from self._witnesses(1, fails)

        return first_witness("hopf-projection", self.tb.alg.name, self.tb.N,
                             witnesses())

    def check_coalgebra(self) -> LawReport:
        """Deconcatenation of F(x) equals F⊗F of the coproduct."""
        F = self._F_int

        def fails(k):
            d, x = F[k]
            return _defect([(1, d, (((w[:i], w[i:]), c) for w, c in x.items()
                                    for i in range(len(w) + 1)))] + [
                (-c, *_tensor(F[a], F[b]))
                for (a, b), c in self.tb.cop_k(k).items()])

        return first_witness("hopf-coalgebra", self.tb.alg.name, self.tb.N,
                             self._witnesses(1, fails))

    def check_iso(self) -> list[LawReport]:
        """Full rank of the F matrix on each slice, its rows taken in
        reverse slice order (see ``Omega._image_rows``)."""
        return [LawReport("hopf-iso", self.tb.alg.name, n, _iso_witness(
                    [self.F_k(k) for k in reversed(self.tb.slices[n])],
                    len(self.omega.words(n)), "keys", "words"))
                for n in range(1, self.tb.N + 1)]

    def check_primitives(self) -> LawReport:
        """varpi restricted to the chosen primitives picks out exactly the
        matching letter — the invertibility of varpi on primitives: with
        the primitive P / d, Σ P_k varpi(k) = d · x."""
        om, varpi = self.omega, _Integral(self.varpi_k)

        def fails(x):
            d, p = _integral(om.letter_prim[x])
            return _defect([(c, *varpi[k]) for k, c in p.items()]
                           + [(-d, 1, {x: 1})])

        return first_witness(
            "varpi-primitives", self.tb.alg.name, self.tb.N,
            (f"letter={x}" for x in om.letters if fails(x)))

    def run_checks(self) -> list[LawReport]:
        reports = self.omega.check_iso()
        reports.append(self.omega.check_coalgebra())
        reports += self.check_iso()
        reports.append(self.check_primitives())
        reports.append(self.check_projection())
        reports.append(self.check_coalgebra())
        reports.append(self.check_multiplicative())
        return reports


# ---------------------------------------------------------------------------
# The obstruction on the counter algebra with two labels.
# ---------------------------------------------------------------------------

def cofree_obstruction(labels=("d", "e"),
                       counter_cap: int = 2) -> Optional[LinComb]:
    """Solve reduced-Δ(x) = v ⊗ w on the degree-2 slice, where v and w are
    the bare vertices with the first and last label.  Returns a solving x,
    or None when the linear system is infeasible (counters swept up to
    counter_cap).  With two distinct labels there is no solution; with one
    label x = (v·v)/2 works."""
    from .handles import ucp_handle
    from .ptree import parse

    alg = ucp_handle(labels=labels, counter_cap=counter_cap)
    tb = TruncatedBialgebra(alg, 2)
    target = (parse("{[%s]}" % labels[0]), parse("{[%s]}" % labels[-1]))
    keys = tb.slices[2]
    rows, bs = _system([tb.reduced_k(k) for k in keys], [unit(target)])
    sol, = solve(rows, bs, len(keys))
    return None if sol is None else _over(keys, sol)
