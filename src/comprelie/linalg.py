"""Exact linear algebra over the rationals.

One representation and one kernel.  A matrix is a list of sparse rows,
dicts column -> coefficient with zeros absent, and ``_echelon`` is the only
elimination loop, with ``rref`` adding one back-substitution.  The exact
rank is the number of pivots of the forward pass alone; nullspace, solve
(any number of right-hand sides at once) and invert read their answers off
the full reduced form, and report a system with no answer by None (an
inconsistent right-hand side, a singular matrix), not by an exception.
``invert`` appends identity entries only for the columns of the inverse it
is asked for, so k columns of an N x N inverse cost one elimination
carrying k extra columns, not N.  The rows the
package eliminates are mostly zero (kernel dimensions of coproduct-like
maps, the grafting images behind omega), so a row costs what it holds, not
the width of the slice.

Elimination is fraction-free.  The coefficients given may be ints or
Fractions; each row is scaled once to coprime ints, a row is eliminated
against a pivot row as ``piv[col]·row − row[col]·piv`` (each factor
divided by their gcd) and what is left is divided by the gcd of its
entries, so both loops run on coprime ints alone.  ``rref`` divides each
row by its pivot once, at the end, and only then do Fractions appear.

Each row's pivot is its least column.  Columns therefore only need to be
hashable and mutually comparable (slice positions, tree keys, words), the
choice is deterministic without a sort key, and eliminating a row against
a pivot never touches a column left of that pivot, so a row's least column
only grows until it becomes a new pivot.  The reduced echelon form is
unique, so the result does not depend on the order of the rows; ``nullspace``
and ``solve`` number their columns 0..ncols-1, which fixes the order of the
kernel basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence


def rref(rows: list) -> dict:
    """Reduced row echelon form of the dict rows: {pivot column: row},
    each row with 1 at its pivot and 0 at every other pivot column.

    The forward pass leaves an echelon form; back-substitution then runs
    once, in descending pivot order, so each row subtracts only rows that
    are already fully reduced.  The rows stay integral until each is
    divided by its pivot."""
    pivots = _echelon(rows)
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for p in [p for p in row if p != col and p in pivots]:
            _eliminate(row, p, pivots[p])
    for col, row in pivots.items():
        lead = row[col]
        if lead != 1:
            pivots[col] = {k: Fraction(c, lead) for k, c in row.items()}
    return pivots


def _echelon(rows: Iterable[dict]) -> dict:
    """Forward elimination: {pivot column: row of coprime ints whose least
    column is that pivot}.  Each incoming row is scaled to coprime ints (an
    int row needs only its content divided out), then reduced against the
    pivot rows so far until its least column is new."""
    pivots: dict = {}
    for row in rows:
        row = {k: c for k, c in row.items() if c}
        if not all(map(_is_int, row.values())):
            den = lcm(*map(_denominator, row.values()))
            row = {k: c.numerator * (den // c.denominator)
                   for k, c in row.items()}
        _divide_content(row)
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            _eliminate(row, col, piv)
    return pivots


# Both mapped over a row's values: about twice as fast as a generator on the
# many one- and two-entry rows of a kernel dimension's map.
_denominator = attrgetter("denominator")
_is_int = int.__instancecheck__


def _eliminate(row: dict, col, piv: dict) -> None:
    """row <- a·row − b·piv, in place, with a : b = piv[col] : row[col] in
    lowest terms, so that col drops out; then divided by its content,
    which keeps the entries from growing."""
    a, b = piv[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, c in piv.items():
        v = row.get(k, 0) - b * c
        if v:
            row[k] = v
        else:
            del row[k]
    _divide_content(row)


def _divide_content(row: dict) -> None:
    """Divide an int row, in place, by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def rank(rows: list) -> int:
    """Rank of the rows: the number of pivots of the forward pass (the
    rank needs no back-substitution)."""
    return len(_echelon(rows))


def sparse_rank(rows: Iterable[dict]) -> int:
    """Rank of rows given by any iterable (a kernel dimension's map)."""
    return len(_echelon(rows))


def nullspace(rows: list, ncols: int) -> list[dict]:
    """Basis of {x : row · x = 0 for every row} over columns 0..ncols-1, one
    vector per free column in increasing order, with 1 at that column."""
    red = rref(rows)
    basis = []
    for j in range(ncols):
        if j not in red:
            v = {j: Fraction(1)}
            v.update((pc, -r[j]) for pc, r in red.items() if j in r)
            basis.append(v)
    return basis


def solve(rows: list, bs: Sequence[Sequence], ncols: int) -> list:
    """For each right-hand side b in bs (b_i the value of row i), one
    solution {column: value} of row_i · x = b_i over columns 0..ncols-1,
    free variables 0, or None if that system is inconsistent.

    One elimination serves every right-hand side: b_j is appended as
    column ncols + j.  The reduced rows whose pivot lies among the
    appended columns span the combinations of b that vanish on the left,
    so b_j is inconsistent exactly when one of them is nonzero in column
    ncols + j, an exact certificate rather than a tolerance call."""
    red = rref([{**row, **{ncols + j: b[i] for j, b in enumerate(bs)}}
                for i, row in enumerate(rows)])
    bad = {c for pc, r in red.items() if pc >= ncols for c in r}
    return [None if ncols + j in bad else
            {pc: r[ncols + j] for pc, r in red.items() if ncols + j in r}
            for j in range(len(bs))]


def invert(rows: list, cols: Optional[Iterable[int]] = None
           ) -> Optional[list[dict]]:
    """Rows of the inverse of a square matrix over columns 0..n-1,
    restricted to the columns `cols` of the inverse (all of them by
    default), or None if the matrix is singular.

    Row i of the input gets the identity entry n + i only when i is in
    cols: reducing [M | E] to [I | M⁻¹E] leaves exactly those columns of
    M⁻¹ on the right, and M is singular exactly when some column left of
    n holds no pivot."""
    n = len(rows)
    assert all(0 <= c < n for row in rows for c in row), "not square"
    want = range(n) if cols is None else set(cols)
    red = rref([{**row, n + i: 1} if i in want else row
                for i, row in enumerate(rows)])
    if any(j not in red for j in range(n)):
        return None
    return [{c - n: x for c, x in red[j].items() if c >= n} for j in range(n)]


def mat_vec(m: Mapping, v: Mapping) -> dict:
    """Σ_k v[k]·m[k]: the combination of m's rows that v names."""
    out: dict = {}
    for k, c in v.items():
        for j, x in m[k].items():
            y = out.get(j, 0) + c * x
            if y:
                out[j] = y
            else:
                out.pop(j, None)
    return out
