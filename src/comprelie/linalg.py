"""Exact linear algebra over the rationals.

One representation and one kernel.  A matrix is a list of sparse rows,
dicts column -> coefficient with zeros absent, and ``rref`` is the only
elimination loop: a forward pass to an echelon form, then one
back-substitution.  The exact rank is the number of pivots of the forward
pass alone; nullspace, solve (any number of right-hand sides at once) and
invert read their answers off the full reduced form.  ``invert`` appends
identity entries only for the columns of the inverse it is asked for, so
k columns of an N x N inverse cost one elimination carrying k extra
columns, not N.  The rows the package eliminates are mostly zero (kernel
dimensions of coproduct-like maps, the grafting images behind omega), so a
row costs what it holds, not the width of the slice.  Coefficients are
ints or Fractions; a row becomes Fractions only when its pivot is not 1
and must be divided by it, so integer rows with unit pivots, the common
case of a kernel dimension's map, eliminate in int arithmetic.

Each row's pivot is its least column.  Columns therefore only need to be
hashable and mutually comparable (slice positions, tree keys, words), the
choice is deterministic without a sort key, and eliminating a row against
a pivot never touches a column left of that pivot, so a row's least column
only grows until it becomes a new pivot.  The reduced echelon form is
unique, so the result does not depend on the order of the rows; ``nullspace``
and ``solve`` number their columns 0..ncols-1, which fixes the order of the
kernel basis.

``rank`` first ranks the rows modulo the prime P = 2^61 - 1, a
certificate rather than an answer: the rank mod P never exceeds the rank
over Q, so when it reaches min(rows, columns), the largest rank possible,
that is the rank.  Otherwise (a deficient rank, or a coefficient whose
denominator P divides) it falls back to the exact forward pass, so a rank
that is reported below full is always the exact one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence


def rref(rows: list) -> dict:
    """Reduced row echelon form of the dict rows: {pivot column: row},
    each row with 1 at its pivot and 0 at every other pivot column.

    The forward pass leaves an echelon form; back-substitution then runs
    once, in descending pivot order, so each row subtracts only rows that
    are already fully reduced.
    """
    pivots = _echelon(rows)
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for p in [p for p in row if p != col and p in pivots]:
            _axpy(row, -row[p], pivots[p])
    return pivots


def _echelon(rows: Iterable[dict]) -> dict:
    """Forward elimination: {pivot column: row whose least column is that
    pivot, with coefficient 1}.  Each incoming row is reduced against the
    pivot rows so far until its least column is new."""
    pivots: dict = {}
    for row in rows:
        row = {k: c for k, c in row.items() if c != 0}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                lead = row[col]
                if lead != 1:
                    row = {k: Fraction(c) / lead for k, c in row.items()}
                pivots[col] = row
                break
            _axpy(row, -row[col], piv)
    return pivots


def _axpy(row: dict, factor, other: dict) -> None:
    """row += factor * other, in place, dropping the zeros."""
    for k, c in other.items():
        v = row.get(k, 0) + factor * c
        if v == 0:
            row.pop(k, None)
        else:
            row[k] = v


P = 2 ** 61 - 1


def rank(rows: list) -> int:
    """Rank of the rows: certified full mod P, else the number of pivots
    of the exact forward pass (the rank needs no back-substitution)."""
    full = min(len(rows), len({c for row in rows for c in row}))
    if _rank_mod_p(rows) == full:
        return full
    return len(_echelon(rows))


def _rank_mod_p(rows: list):
    """Rank of the rows over Z/P, or None if a denominator vanishes mod P.
    The forward pass of ``_echelon``, on residues."""
    pivots: dict = {}
    for row in rows:
        res = {}
        for k, c in row.items():
            if type(c) is not int:
                den = c.denominator % P
                if not den:
                    return None
                c = c.numerator * pow(den, -1, P)
            c %= P
            if c:
                res[k] = c
        while res:
            col = min(res)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(res[col], -1, P)
                pivots[col] = {k: c * inv % P for k, c in res.items()}
                break
            f = res[col]
            for k, c in piv.items():
                v = (res.get(k, 0) - f * c) % P
                if v:
                    res[k] = v
                else:
                    res.pop(k, None)
    return len(pivots)


def sparse_rank(rows: Iterable[dict]) -> int:
    """Rank of rows given by any iterable (a kernel dimension's map)."""
    return len(_echelon(rows))


def sparse_nullity(rows: Iterable[dict], dim: int) -> int:
    """dim - rank: kernel dimension of a map given by rows per basis vector."""
    return dim - sparse_rank(rows)


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


def invert(rows: list, cols: Optional[Iterable[int]] = None) -> list[dict]:
    """Rows of the inverse of a square invertible matrix over columns
    0..n-1, restricted to the columns `cols` of the inverse (all of them
    by default); asserts invertibility.

    Row i of the input gets the identity entry n + i only when i is in
    cols: reducing [M | E] to [I | M⁻¹E] leaves exactly those columns of
    M⁻¹ on the right."""
    n = len(rows)
    assert all(0 <= c < n for row in rows for c in row), "not square"
    want = range(n) if cols is None else set(cols)
    red = rref([{**row, n + i: 1} if i in want else row
                for i, row in enumerate(rows)])
    assert sorted(red) == list(range(n)), "matrix is singular"
    return [{c - n: x for c, x in red[j].items() if c >= n} for j in range(n)]


def mat_vec(m: Mapping, v: Mapping) -> dict:
    """Σ_k v[k]·m[k]: the combination of m's rows that v names."""
    out: dict = {}
    for k, c in v.items():
        _axpy(out, c, m[k])
    return out
