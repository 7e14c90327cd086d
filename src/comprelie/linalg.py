"""Exact linear algebra over the rationals.

Two representations are used:

* sparse rows: dicts column-key -> Fraction, for rank computations where
  the ambient basis is large but each row touches few columns (kernel
  dimensions of coproduct-like maps);
* dense rows: lists of Fraction, for the small square/rectangular systems
  in the rigidity constructions (echelon form, nullspace, solve).

Both use plain Fraction arithmetic.  Dense elimination is the bottleneck
of the rigidity pipeline: in profiles `rref` (under `invert`, `rank` and
`nullspace`) takes 55-90% of the time of `rigidity iso`, and Bareiss or
modular elimination ranked its 134x134 degree-6 omega matrix for `cp`
more than ten times faster.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Sequence


# ---------------------------------------------------------------------------
# Sparse Gaussian elimination.
# ---------------------------------------------------------------------------

def sparse_rank(rows: Iterable[dict]) -> int:
    """Rank of the matrix whose rows are dicts column -> coeff.

    Incremental elimination: keep a dict pivot-column -> reduced row and
    reduce each incoming row against it.  Column keys only need to be
    hashable.
    """
    pivots: dict[Hashable, dict] = {}
    rank = 0
    for row in rows:
        row = {k: Fraction(c) for k, c in row.items() if c != 0}
        while row:
            # Deterministic pivot choice keeps runs reproducible.
            col = min(row, key=repr)
            piv = pivots.get(col)
            if piv is None:
                inv = 1 / row[col]
                pivots[col] = {k: c * inv for k, c in row.items()}
                rank += 1
                break
            factor = row[col]
            for k, c in piv.items():
                v = row.get(k, 0) - factor * c
                if v == 0:
                    row.pop(k, None)
                else:
                    row[k] = v
    return rank


def sparse_nullity(rows: Iterable[dict], dim: int) -> int:
    """dim - rank: kernel dimension of a map given by rows per basis vector."""
    return dim - sparse_rank(rows)


# ---------------------------------------------------------------------------
# Dense elimination.  Matrices are lists of lists of Fraction.
# ---------------------------------------------------------------------------

def _as_fraction_matrix(m: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[Fraction(c) for c in row] for row in m]


def rref(m: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    a = _as_fraction_matrix(m)
    if not a:
        return a, []
    nrows, ncols = len(a), len(a[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col]
        a[r] = [c * inv for c in a[r]]
        for i in range(nrows):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rank(m: Sequence[Sequence]) -> int:
    return len(rref(m)[1])


def nullspace(m: Sequence[Sequence]) -> list[list[Fraction]]:
    """Basis of the right kernel {x : m x = 0}, one vector per free column."""
    if not m:
        return []
    ncols = len(m[0])
    a, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][j]
        basis.append(v)
    return basis


def solve(m: Sequence[Sequence], b: Sequence) -> list[Fraction] | None:
    """One solution of m x = b, or None if inconsistent.

    Free variables are set to 0.  (Exact arithmetic: inconsistency is a
    genuine certificate, not a tolerance call.)
    """
    if not m:
        return [] if all(c == 0 for c in b) else None
    ncols = len(m[0])
    aug = [list(row) + [bi] for row, bi in zip(m, b)]
    a, pivots = rref(aug)
    # A pivot in the appended column certifies inconsistency.
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = a[r][ncols]
    return x


def invert(m: Sequence[Sequence]) -> list[list[Fraction]]:
    """Inverse of a square invertible matrix (asserts invertibility)."""
    n = len(m)
    assert all(len(row) == n for row in m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    a, pivots = rref(aug)
    assert pivots == list(range(n)), "matrix is singular"
    return [row[n:] for row in a]


def mat_vec(m: Sequence[Sequence], v: Sequence) -> list[Fraction]:
    return [sum((Fraction(c) * Fraction(x) for c, x in zip(row, v)),
                Fraction(0)) for row in m]
