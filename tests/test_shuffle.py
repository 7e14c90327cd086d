from fractions import Fraction

from hypothesis import given, settings, strategies as st

from comprelie.lincomb import LinComb, bilinear_extend, unit
from comprelie.shuffle import (
    EPS, fmt_word, parse_word, shuffle, deconcat,
    Varpi, varpi_from_endo, bullet_tvf,
    varpi_deg_minus1, bullet_deg_minus1,
    pair_identities_failures, hyperboloid_products,
    eq2_failures, eq3_failures, words_of_length,
)

from oracles import (
    bullet_tvf_shuffles, bullet_varpi, shuffle_permutations, splits,
)

XYZ = ("x", "y", "z")


def lc_words(lc):
    return sorted((fmt_word(w), c) for w, c in lc.items())


# --- shuffle and deconcatenation -------------------------------------------

def test_shuffle_goldens():
    v = ("1",), ("2", "3", "4")
    assert lc_words(shuffle(*v)) == [
        ("1.2.3.4", 1), ("2.1.3.4", 1), ("2.3.1.4", 1), ("2.3.4.1", 1)]
    s = shuffle(("1", "2"), ("3", "4"))
    assert lc_words(s) == [("1.2.3.4", 1), ("1.3.2.4", 1), ("1.3.4.2", 1),
                        ("3.1.2.4", 1), ("3.1.4.2", 1), ("3.4.1.2", 1)]
    s2 = shuffle(("1", "2", "3"), ("4",))
    assert lc_words(s2) == [("1.2.3.4", 1), ("1.2.4.3", 1),
                         ("1.4.2.3", 1), ("4.1.2.3", 1)]


def test_shuffle_unit():
    w = ("a", "b")
    assert shuffle(EPS, w) == unit(w)
    assert shuffle(w, EPS) == unit(w)
    assert shuffle(EPS, EPS) == unit(EPS)


def test_shuffle_repeated_letters():
    # x sh x = 2 xx
    assert shuffle(("x",), ("x",)) == LinComb([(("x", "x"), 2)])


words_st = st.lists(st.sampled_from("xy"), max_size=3).map(tuple)


@given(words_st, words_st)
def test_shuffle_commutative(u, v):
    assert shuffle(u, v) == shuffle(v, u)


@given(words_st, words_st, words_st)
@settings(max_examples=40, deadline=None)
def test_shuffle_associative(u, v, w):
    assert bilinear_extend(shuffle, shuffle(u, v), unit(w)) == \
        bilinear_extend(shuffle, unit(u), shuffle(v, w))


def test_deconcat():
    pairs = [(fmt_word(a), fmt_word(b)) for (a, b) in deconcat(("1", "2"))]
    assert sorted(pairs) == [("1", "2"), ("1.2", "eps"), ("eps", "1.2")]


@given(words_st)
def test_deconcat_counts(w):
    assert sum(deconcat(w).values()) == len(w) + 1


def test_splits():
    assert sum(1 for _ in splits(("a", "b", "c"), 3)) == 10  # C(5,2)


def test_word_fmt_roundtrip():
    for w in [EPS, ("x",), ("x", "y", "x")]:
        assert parse_word(fmt_word(w)) == w


# --- degree 0 products -------------------------------------------------------

F_ID = {x: unit(x) for x in XYZ}
F_GEN = {"x": unit("x") + 2 * unit("y"), "y": unit("z").scale(Fraction(1, 3))}


def test_tvf_golden():
    out = bullet_tvf(F_ID, ("p", "q"), ("q",))
    assert out == LinComb()  # letters outside the map act as zero
    f = {x: unit(x) for x in ("p", "q")}
    assert bullet_tvf(f, ("p", "q"), ("q",)) == LinComb([(("p", "q", "q"), 3)])
    # empty left word: nothing to mark
    assert bullet_tvf(f, EPS, ("p",)) == LinComb()


def test_shuffle_permutation_runs():
    # m_k counts the initial fixed run; sigma(1) != 1 gives 0
    got = dict(shuffle_permutations(2, 1))
    assert got == {(0, 1): 2, (0, 2): 1, (1, 2): 0}


@given(st.sampled_from([F_ID, F_GEN]),
       st.lists(st.sampled_from("xy"), max_size=3).map(tuple),
       st.lists(st.sampled_from("xy"), max_size=3).map(tuple))
@settings(max_examples=60, deadline=None)
def test_tvf_three_ways(f, u, v):
    a = bullet_tvf(f, u, v)
    assert a == bullet_tvf_shuffles(f, u, v)
    assert a == bullet_varpi(varpi_from_endo(f), u, v)


def test_tvf_identities():
    for f in (F_ID, F_GEN):
        vp = varpi_from_endo(f)
        assert vp.degree == 0
        assert not list(eq2_failures(vp, XYZ))
        assert not list(eq3_failures(vp, XYZ))


# --- degree -1 products ------------------------------------------------------

def test_bracket_golden():
    star, br = hyperboloid_products(0, 1, 0)
    assert bullet_deg_minus1(star, br, ("x", "y"), EPS) == unit(("z",))
    assert bullet_deg_minus1(star, br, ("y", "x"), EPS) == -unit(("z",))
    out = bullet_deg_minus1(star, br, ("x", "y", "x"), EPS)
    assert out == LinComb([(("z", "x"), 1), (("x", "z"), -1)])
    # on letters the product is just *
    assert bullet_deg_minus1(star, br, ("x",), ("y",)) == unit(("y",))


def test_deg_minus1_matches_varpi():
    star, br = hyperboloid_products(2, -1, 2)  # 4-2-2=0: on the surface
    vp = varpi_deg_minus1(star, br)
    assert vp.degree == -1
    for u in words_of_length(XYZ, 2):
        for v in [EPS] + words_of_length(XYZ, 1):
            assert bullet_deg_minus1(star, br, u, v) == bullet_varpi(vp, u, v)


def test_hyperboloid_surface_criterion():
    # integer grid: the letter identities (equivalently the preLie identity
    # for the induced product) hold exactly on a^2 - a + b*c = 0
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                star, br = hyperboloid_products(a, b, c)
                ok_letters = not list(pair_identities_failures(star, br, XYZ))
                on_surface = a * a - a + b * c == 0
                assert ok_letters == on_surface, (a, b, c)


def test_hyperboloid_on_other_letters():
    # the family on p, q, r is the one on x, y, z with the letters renamed
    rename = dict(zip(XYZ, "pqr"))

    def renamed(pairs):
        return {(rename[a], rename[b]): v.map_keys(rename.get)
                for (a, b), v in pairs.items()}

    for abc in ((0, 1, 0), (2, -1, 2), (1, 1, 1)):
        assert hyperboloid_products(*abc, "pqr") == tuple(
            map(renamed, hyperboloid_products(*abc)))


def test_hyperboloid_eq_checks_match_surface():
    cases = [(0, 0, 0, True), (1, 0, 0, True), (0, 1, 0, True),
             (2, -1, 2, True), (1, 1, 1, False), (2, 1, 1, False)]
    for a, b, c, on in cases:
        vp = varpi_deg_minus1(*hyperboloid_products(a, b, c))
        assert not list(eq2_failures(vp, XYZ))  # EQ2 never constrains here
        assert (not list(eq3_failures(vp, XYZ))) == on, (a, b, c)


def test_varpi_degree_detection():
    vp = Varpi({(1, 0): lambda u, v: unit(u[0]),
                (0, 2): lambda u, v: unit(v[0])})
    assert vp.degree is None  # mixed degrees
