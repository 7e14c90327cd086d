from fractions import Fraction

from hypothesis import given, strategies as st

from comprelie.lincomb import (
    LinComb, unit, bilinear_extend, tensor, tensor_apply2,
    fmt_scalar, parse_scalar, fmt_lincomb,
)
from comprelie import linalg

from oracles import (
    bilinear_extend_reference, dense_nullspace, dense_rref, dense_solve,
    iadd_scaled_reference, lincomb_reference, map_linear_reference,
    tensor_reference, tensor_swap,
)


def test_zero_pruning():
    x = LinComb()
    x.add_term("a", 1)
    x.add_term("a", -1)
    assert x == LinComb()
    assert x.is_zero()
    assert x["a"] == 0


def test_vector_ops():
    x = unit("a") + unit("b").scale(2)
    y = unit("a").scale(Fraction(1, 2))
    z = x - 2 * y
    assert z == LinComb([("b", 2)])
    assert (-z) + z == LinComb()


def test_bilinear_extend():
    def op(a, b):
        return unit(a + b)
    x = unit("u") + unit("v")
    y = unit("w").scale(3)
    assert bilinear_extend(op, x, y) == LinComb([("uw", 3), ("vw", 3)])


def test_tensor_roundtrip():
    t = tensor(unit("a") + unit("b"), unit("c"))
    assert t == LinComb([(("a", "c"), 1), (("b", "c"), 1)])
    assert tensor_swap(tensor_swap(t)) == t
    # apply identity on both legs
    assert tensor_apply2(t, unit, unit) == t


def test_tensor_arity_and_zero():
    x = unit("a") + unit("b").scale(2)
    assert tensor() == unit(())
    assert tensor(x) == LinComb([(("a",), 1), (("b",), 2)])
    assert tensor(x, LinComb(), x) == LinComb()
    assert tensor(LinComb()) == LinComb()


def test_tensor_coefficients_multiply():
    x = unit("a").scale(Fraction(1, 2)) - unit("b")
    y = unit("c").scale(3)
    assert tensor(x, y, x) == LinComb([
        (("a", "c", "a"), Fraction(3, 4)), (("a", "c", "b"), Fraction(-3, 2)),
        (("b", "c", "a"), Fraction(-3, 2)), (("b", "c", "b"), 3)])


def test_fmt():
    assert fmt_scalar(Fraction(3)) == "3"
    assert fmt_scalar(Fraction(-1, 2)) == "-1/2"
    assert parse_scalar("7/3") == Fraction(7, 3)
    x = unit("b") + unit("a").scale(Fraction(1, 3))
    assert fmt_lincomb(x, str) == "1/3*a + 1*b"
    assert fmt_lincomb(LinComb(), str) == "0"


scalars = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(st.dictionaries(st.sampled_from("abcde"), scalars, max_size=5),
       st.dictionaries(st.sampled_from("abcde"), scalars, max_size=5))
def test_addition_commutes(d1, d2):
    x, y = LinComb(d1), LinComb(d2)
    assert x + y == y + x
    assert (x + y) - y == x


lincombs = st.dictionaries(st.sampled_from("abc"), scalars, max_size=3) \
    .map(LinComb)


@given(lincombs, lincombs, lincombs)
def test_tensor_associates_and_applies(a, b, c):
    flat = tensor(tensor(a, b), c).map_keys(lambda k: k[0] + k[1:])
    assert tensor(a, b, c) == flat

    def f(k):
        return unit(k + k) - unit(k).scale(2)

    def g(k):
        return unit(k.upper()).scale(Fraction(1, 3))

    assert tensor_apply2(tensor(a, b), f, g) == \
        tensor(a.map_linear(f), b.map_linear(g))


# --- the accumulation kernel against the one-term-at-a-time reference -----

# Few keys, so that terms collide; opposite and equal values in int and
# Fraction form (Fraction(2, 2) is a Fraction equal to 1, Fraction(-3, 3)
# one equal to -1), so that sums cancel exactly and the coeff == 1 path
# meets Fractions.
_KEYS = st.sampled_from(["a", "b", "c", ("a", "b")])
_C = st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2),
                      Fraction(2, 2), Fraction(-3, 3), Fraction(3, 4),
                      Fraction(-3, 2)])
_RAW = st.lists(st.tuples(_KEYS,
                          st.one_of(_C, st.just(0), st.just(Fraction(0)))),
                max_size=8)
_LC = _RAW.map(lincomb_reference)
_SCALARS = st.one_of(_C, st.just(0))


def _valid(x):
    """x is a LinComb that keeps the invariant."""
    assert type(x) is LinComb
    assert all(c != 0 for c in x.values())
    return x


@given(_RAW)
def test_kernel_builds_like_the_reference(pairs):
    want = lincomb_reference(pairs)
    assert _valid(LinComb(pairs)) == want
    assert _valid(LinComb(iter(pairs))) == want
    assert _valid(LinComb(dict(pairs))) == lincomb_reference(
        dict(pairs).items())
    assert _valid(LinComb(want)) == want
    assert LinComb(want) is not want


@given(_LC, _SCALARS, _LC)
def test_kernel_sums_like_the_reference(x, coeff, y):
    x0, y0 = dict(x), dict(y)
    ref = iadd_scaled_reference(LinComb(x), coeff, y)
    assert _valid(LinComb(x).iadd_scaled(coeff, y)) == ref
    assert _valid(LinComb().iadd_scaled(coeff, y)) == \
        iadd_scaled_reference(LinComb(), coeff, y)
    assert _valid(x + y) == iadd_scaled_reference(LinComb(x), 1, y)
    assert _valid(x - y) == iadd_scaled_reference(LinComb(x), -1, y)
    assert _valid(y.scale(coeff)) == iadd_scaled_reference(LinComb(), coeff, y)
    assert _valid(-y) == iadd_scaled_reference(LinComb(), -1, y)
    assert dict(x) == x0 and dict(y) == y0


@given(_LC, _KEYS)
def test_kernel_never_aliases_an_operand(y, key):
    """The copies the update path makes are copies: mutating a result
    leaves the operands as they were."""
    y0 = dict(y)
    for out in (LinComb().iadd_scaled(1, y), LinComb() + y, y + LinComb(),
                LinComb(y), y.map_linear(lambda k: y), tensor(y),
                bilinear_extend(lambda a, b: y, unit("a"), unit("b"))):
        out.add_term(key, 1)
        out.iadd_scaled(-1, LinComb(out))
        assert dict(y) == y0


_TABLES = st.fixed_dictionaries({k: _LC for k in ["a", "b", "c", ("a", "b")]})


@given(_LC, _TABLES, _TABLES)
def test_kernel_maps_like_the_reference(x, f, g):
    f0 = {k: dict(v) for k, v in f.items()}
    assert _valid(x.map_linear(f.get)) == map_linear_reference(x, f.get)

    def op(a, b):
        return f[a] + g[b].scale(Fraction(1, 2))

    assert _valid(bilinear_extend(op, x, x)) == \
        bilinear_extend_reference(op, x, x)
    assert {k: dict(v) for k, v in f.items()} == f0


@given(st.lists(_LC, max_size=3))
def test_tensor_matches_the_reference(factors):
    assert _valid(tensor(*factors)) == tensor_reference(*factors)


# --- linalg ---------------------------------------------------------------

def test_sparse_rank():
    rows = [{"x": 1, "y": 2}, {"x": 2, "y": 4}, {"y": 1}]
    assert linalg.sparse_rank(rows) == 2
    assert linalg.sparse_rank([]) == 0
    assert linalg.sparse_rank([{}]) == 0


def test_echelon_scales_int_and_fraction_rows_alike():
    # an int row drops its zeros and its content, like a Fraction row, and
    # the caller's row is left as it was
    for row in ({0: 4, 1: 0, 2: 6}, {0: Fraction(4), 1: 0, 2: Fraction(6)},
                {0: Fraction(2, 3), 2: 1}):
        before = dict(row)
        assert linalg._echelon([row]) == {0: {0: 2, 2: 3}}
        assert row == before


def _rows(m):
    return [dict(enumerate(row)) for row in m]


def test_rref_and_rank():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert linalg.rank(_rows(m)) == 2
    piv = sorted(linalg.rref(_rows(m)))
    assert piv == [0, 1]


def test_nullspace():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    ns = linalg.nullspace(_rows(m), 3)
    assert len(ns) == 1
    v = ns[0]
    for row in m:
        assert sum(Fraction(c) * v.get(j, 0) for j, c in enumerate(row)) == 0


def test_solve():
    m = [[2, 0], [0, 3]]
    assert linalg.solve(_rows(m), [[4, 9]], 2) == [{0: Fraction(2),
                                                    1: Fraction(3)}]
    assert linalg.solve(_rows([[1, 1], [1, 1]]), [[0, 1]], 2) == [None]
    [x] = linalg.solve(_rows([[1, 1]]), [[5]], 2)
    assert x is not None and sum(x.values()) == 5
    assert linalg.solve(_rows(m), [], 2) == []


def test_solve_keeps_right_hand_sides_apart():
    # the zero row makes the first two sides inconsistent and not the
    # third; the pivot the first side leaves must not decide the others
    rows = _rows([[1, 0], [0, 0], [0, 1]])
    assert linalg.solve(rows, [[0, 1, 0], [5, 1, 0], [2, 0, 3]], 2) == [
        None, None, {0: 2, 1: 3}]


def test_invert():
    m = [[1, 2], [3, 5]]
    inv = linalg.invert(_rows(m))
    prod = [[sum(m[i][k] * inv[k].get(j, 0) for k in range(2))
             for j in range(2)] for i in range(2)]
    assert prod == [[1, 0], [0, 1]]


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_rank_nullity(m):
    assert linalg.rank(_rows(m)) + len(linalg.nullspace(_rows(m), 3)) == 3


# Mostly zeros, so that random matrices come out sparse and often singular.
_Q = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), 5])


@st.composite
def _matrices(draw, entries=_Q):
    """Rectangular rational matrices, some rows repeated combinations of
    others and some all zero."""
    ncols = draw(st.integers(1, 5))
    m = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                      min_size=1, max_size=5))
    pick = st.integers(0, len(m) - 1)
    for i, j, c in draw(st.lists(st.tuples(pick, pick, entries),
                                 max_size=2)):
        m.append([x + c * y for x, y in zip(m[i], m[j])])
    if draw(st.booleans()):
        m.insert(draw(st.integers(0, len(m))), [0] * ncols)
    return m


def _nonzero(vec):
    return {j: c for j, c in enumerate(vec) if c != 0}


def _product(a, m):
    """a · m, for a as dict rows and m as lists."""
    n = len(m[0])
    return [[sum(c * m[k][j] for k, c in row.items()) for j in range(n)]
            for row in a]


# Big integers and big denominators next to small entries: P = 2^61 - 1
# and its multiples, so that products and gcds run past machine words.
P = 2 ** 61 - 1
_QP = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), P, -P, 2 * P, P + 1,
                       Fraction(1, P), Fraction(3, 2 * P), Fraction(P, 7)])


@given(st.one_of(_matrices(), _matrices(_QP)), st.data())
def test_sparse_kernel_matches_dense_reference(m, data):
    ncols = len(m[0])
    rows = _rows(m)
    a, piv = dense_rref(m)
    assert all(type(c) is int
               for row in linalg._echelon(rows).values() for c in row.values())
    red = linalg.rref(rows)
    assert red == {pc: _nonzero(a[r]) for r, pc in enumerate(piv)}
    assert sorted(red) == piv
    assert linalg.rank(rows) == linalg.sparse_rank(iter(rows)) == len(piv)
    assert linalg.nullspace(rows, ncols) == [_nonzero(v)
                                             for v in dense_nullspace(m)]
    entries = st.one_of(_Q, _QP)
    bs = data.draw(st.lists(st.lists(entries, min_size=len(m),
                                     max_size=len(m)), max_size=3))
    xs = [dense_solve(m, b) for b in bs]
    assert linalg.solve(rows, bs, ncols) == [None if x is None
                                             else _nonzero(x) for x in xs]
    if len(m) == ncols:
        if len(piv) == ncols:
            assert _product(linalg.invert(rows), m) == \
                [[int(i == j) for j in range(ncols)] for i in range(ncols)]
        else:
            assert linalg.invert(rows) is None


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(_Q, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_invert_is_a_left_inverse(m):
    # strictly diagonally dominant, hence invertible
    n = len(m)
    m = [[c + 100 * (i == j) for j, c in enumerate(row)]
         for i, row in enumerate(m)]
    assert _product(linalg.invert(_rows(m)), m) == \
        [[int(i == j) for j in range(n)] for i in range(n)]


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(_Q, min_size=n, max_size=n), min_size=n, max_size=n)),
    st.booleans(), st.data())
def test_invert_columns_are_columns_of_the_whole_inverse(m, dominant, data):
    n = len(m)
    if dominant:
        m = [[c + 100 * (i == j) for j, c in enumerate(row)]
             for i, row in enumerate(m)]
    rows = _rows(m)
    cols = data.draw(st.sets(st.integers(0, n - 1)))
    if len(dense_rref(m)[1]) < n:
        assert linalg.invert(rows) is None
        assert linalg.invert(rows, cols) is None
        return
    whole = linalg.invert(rows)
    assert linalg.invert(rows, cols) == [
        {i: x for i, x in row.items() if i in cols} for row in whole]
    assert linalg.invert(rows, range(n)) == whole


# The big entries alone, where a rank could be lost to a dropped factor.
@given(_matrices(_QP))
def test_rank_matches_the_dense_reference_near_the_modulus(m):
    assert linalg.rank(_rows(m)) == len(dense_rref(m)[1])
