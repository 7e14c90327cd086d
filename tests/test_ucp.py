import itertools
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from comprelie.axioms import all_pass, check_morphism, report_lines
from comprelie.handles import cp_handle, hck_handle, ucp_handle
from comprelie.lincomb import (
    LinComb, unit, bilinear_extend, tensor, tensor_apply2,
)
from comprelie.ptree import (
    EMPTY, parse, serialize, drop_counters, forget_blocks, mul_merge,
    mul_disjoint, nvertices, enum_partitioned, enum_plain_forests,
    NEW_BLOCK, graft_shift, vertices, is_plain, canonicalize, _unit_enum,
)
from comprelie.shuffle import bullet_tvf, words_of_length
from comprelie.ucp import (
    ucp_bullet, cp_bullet, cp_bullet_with_map, hck_bullet,
    mul_merge_lc, mul_disjoint_lc,
    coproduct_ucp, coproduct_cp, coproduct_hck, counit, counter_elimination,
    delta_perm, kernel_delta_dim, _partitions, _pattern_counts, _patterned,
    cm_grow, cm_x, cm_delta_closed,
)

from oracles import (
    cm_delta_oracle, counter_elimination_recursive, dense_rref,
    kernel_delta_dim_reference, kernel_delta_series,
    tensor_flatten_left, tensor_flatten_right, tensor_swap23,
)

P = parse


def lc(*pairs):
    return LinComb([(P(s), c) for s, c in pairs])


def lc2(*pairs):
    return LinComb([(((P(a), P(b))), c) for a, b, c in pairs])


# --- grafting products -------------------------------------------------------

def test_ucp_bullet_goldens():
    assert ucp_bullet(P("{[d:2]}"), P("{[e:5]}")) == lc(("{[d:2([e:5])]}", 1))
    assert ucp_bullet(P("{[d]}"), P("{[e,f]}")) == lc(("{[d([e,f])]}", 1))
    assert ucp_bullet(P("{[d]}"), P("{[e([f])]}")) == lc(("{[d([e([f])])]}", 1))
    # grafting at either vertex of the chain
    assert ucp_bullet(P("{[d([e])]}"), P("{[f]}")) == lc(
        ("{[d([e([f])])]}", 1), ("{[d([e],[f])]}", 1))


def test_ucp_bullet_unit_right():
    # grafting the unit bumps one counter per vertex
    assert ucp_bullet(P("{[d:3]}"), EMPTY) == lc(("{[d:4]}", 1))
    assert ucp_bullet(P("{[d([e])]}"), EMPTY) == lc(
        ("{[d:1([e])]}", 1), ("{[d([e:1])]}", 1))
    assert ucp_bullet(P("{[d([e],[f])]}"), EMPTY) == lc(
        ("{[d:1([e],[f])]}", 1), ("{[d([e:1],[f])]}", 1),
        ("{[d([e],[f:1])]}", 1))


def test_bullet_left_unit_vanishes():
    assert ucp_bullet(EMPTY, P("{[d]}")).is_zero()
    assert ucp_bullet(EMPTY, EMPTY).is_zero()
    assert cp_bullet(EMPTY, P("{[d]}")).is_zero()
    assert hck_bullet(EMPTY, P("{[d]}")).is_zero()


def test_cp_bullet_counts_vertices():
    t = P("{[d([e],[f])]}")
    assert cp_bullet(t, EMPTY) == LinComb([(t, 3)])


def test_hck_bullet_splits_blocks():
    # grafting a two-tree forest attaches both roots as separate children
    f, g = P("{[d]}"), P("{[e],[f]}")
    assert hck_bullet(f, g) == lc(("{[d([e],[f])]}", 1))
    assert hck_bullet(P("{[d],[e]}"), EMPTY) == lc(("{[d],[e]}", 2))


DLAB = ("d",)
ABLAB = ("a", "b")
DELAB = ("d", "e")
CP3 = [t for n in range(4) for t in enum_partitioned(n, DLAB)]
CP3AB = [t for n in range(4) for t in enum_partitioned(n, ABLAB)]


def prelie_defect(bullet, a, b, c):
    lhs = bullet(a, b).map_linear(lambda x: bullet(x, c)) \
        - bullet(b, c).map_linear(lambda x: bullet(a, x))
    rhs = bullet(a, c).map_linear(lambda x: bullet(x, b)) \
        - bullet(c, b).map_linear(lambda x: bullet(a, x))
    return lhs - rhs


def leibniz_defect(bullet, mul, a, b, c):
    lhs = mul(a, b).map_linear(lambda x: bullet(x, c))
    rhs = bilinear_extend(mul, bullet(a, c), unit(b)) \
        + bilinear_extend(mul, unit(a), bullet(b, c))
    return lhs - rhs


@given(st.sampled_from(CP3), st.sampled_from(CP3), st.sampled_from(CP3))
@settings(max_examples=60, deadline=None)
def test_cp_prelie_identity(a, b, c):
    assert prelie_defect(cp_bullet, a, b, c).is_zero()


@given(st.sampled_from(CP3AB), st.sampled_from(CP3AB), st.sampled_from(CP3AB))
@settings(max_examples=60, deadline=None)
def test_cp_leibniz(a, b, c):
    assert leibniz_defect(cp_bullet, mul_merge_lc, a, b, c).is_zero()


def bump_some(trees):
    """A few counter-decorated variants of each tree."""
    out = list(trees)
    for t in trees:
        for ref, _ in vertices(t):
            out.append(graft_shift(t, ref, NEW_BLOCK, EMPTY, +1))
    return out


UCP2 = bump_some([t for n in range(3) for t in enum_partitioned(n, ABLAB)])


def test_ucp_prelie_and_leibniz():
    pool = sorted(set(UCP2), key=serialize)[::2]  # spread over the 26 variants
    for a, b, c in itertools.product(pool, repeat=3):
        assert prelie_defect(ucp_bullet, a, b, c).is_zero(), (
            serialize(a), serialize(b), serialize(c))
        assert leibniz_defect(ucp_bullet, mul_merge_lc, a, b, c).is_zero()


HF3 = [f for n in range(4) for f in enum_plain_forests(n, DLAB)]


@given(st.sampled_from(HF3), st.sampled_from(HF3), st.sampled_from(HF3))
@settings(max_examples=60, deadline=None)
def test_hck_prelie_and_leibniz(a, b, c):
    assert prelie_defect(hck_bullet, a, b, c).is_zero()
    assert leibniz_defect(hck_bullet, mul_disjoint_lc, a, b, c).is_zero()


# --- cutting coproducts ------------------------------------------------------

def test_coproduct_ucp_goldens():
    t = P("{[d([e])]}")
    assert coproduct_ucp(t) == lc2(
        ("{[d([e])]}", "{}", 1), ("{}", "{[d([e])]}", 1),
        ("{[d:1]}", "{[e]}", 1))
    t = P("{[d([e],[f])]}")
    assert coproduct_ucp(t) == lc2(
        ("{[d([e],[f])]}", "{}", 1), ("{}", "{[d([e],[f])]}", 1),
        ("{[d:1([e])]}", "{[f]}", 1), ("{[d:1([f])]}", "{[e]}", 1),
        ("{[d:2]}", "{[e,f]}", 1))
    # one shared block: partial removals do not bump the counter
    t = P("{[d([e,f])]}")
    assert coproduct_ucp(t) == lc2(
        ("{[d([e,f])]}", "{}", 1), ("{}", "{[d([e,f])]}", 1),
        ("{[d([e])]}", "{[f]}", 1), ("{[d([f])]}", "{[e]}", 1),
        ("{[d:1]}", "{[e,f]}", 1))
    t = P("{[d([e([f])])]}")
    assert coproduct_ucp(t) == lc2(
        ("{[d([e([f])])]}", "{}", 1), ("{}", "{[d([e([f])])]}", 1),
        ("{[d([e:1])]}", "{[f]}", 1), ("{[d:1]}", "{[e([f])]}", 1))


def test_coproduct_cp_goldens():
    assert coproduct_cp(P("{[d([e],[f])]}")) == lc2(
        ("{[d([e],[f])]}", "{}", 1), ("{}", "{[d([e],[f])]}", 1),
        ("{[d([e])]}", "{[f]}", 1), ("{[d([f])]}", "{[e]}", 1),
        ("{[d]}", "{[e,f]}", 1))
    assert coproduct_cp(P("{[d([e([f])])]}")) == lc2(
        ("{[d([e([f])])]}", "{}", 1), ("{}", "{[d([e([f])])]}", 1),
        ("{[d([e])]}", "{[f]}", 1), ("{[d]}", "{[e([f])]}", 1))


def test_coproduct_hck_goldens():
    assert coproduct_hck(P("{[d([e],[f])]}")) == lc2(
        ("{[d([e],[f])]}", "{}", 1), ("{}", "{[d([e],[f])]}", 1),
        ("{[d([e])]}", "{[f]}", 1), ("{[d([f])]}", "{[e]}", 1),
        ("{[d]}", "{[e],[f]}", 1))
    # forests split vertex by vertex
    assert coproduct_hck(P("{[d],[e]}")) == lc2(
        ("{[d],[e]}", "{}", 1), ("{}", "{[d],[e]}", 1),
        ("{[d]}", "{[e]}", 1), ("{[e]}", "{[d]}", 1))
    assert coproduct_hck(EMPTY) == lc2(("{}", "{}", 1))


def coassoc_defect(cop, t):
    once = cop(t)
    left = tensor_flatten_left(tensor_apply2(once, cop, unit))
    right = tensor_flatten_right(tensor_apply2(once, unit, cop))
    return left - right


def test_coassociativity_all_three():
    for t in bump_some([x for n in range(4) for x in enum_partitioned(n, DLAB)]):
        assert coassoc_defect(coproduct_ucp, t).is_zero(), serialize(t)
    for t in CP3AB:
        assert coassoc_defect(coproduct_cp, t).is_zero()
    for f in HF3:
        assert coassoc_defect(coproduct_hck, f).is_zero()


def test_counit_laws():
    for t in UCP2:
        d = coproduct_ucp(t)
        lhs = LinComb()
        for (a, b), c in d.items():
            lhs.add_term(b, c * counit(a))
        rhs = LinComb()
        for (a, b), c in d.items():
            rhs.add_term(a, c * counit(b))
        assert lhs == unit(t) and rhs == unit(t)


def test_coproduct_multiplicative():
    for mul, cop, pool in [
            (mul_merge, coproduct_ucp, UCP2[:14]),
            (mul_merge, coproduct_cp, CP3AB[:14]),
            (mul_disjoint, coproduct_hck, HF3[:14])]:
        for a, b in itertools.product(pool, repeat=2):
            lhs = cop(mul(a, b))
            rhs = LinComb()
            for (a1, a2), c1 in cop(a).items():
                for (b1, b2), c2 in cop(b).items():
                    rhs.add_term((mul(a1, b1), mul(a2, b2)), c1 * c2)
            assert lhs == rhs, (serialize(a), serialize(b))


def bullet_compat_defect(bullet, mul, cop, a, b):
    # cop(a • b) = a' (x) a''•b  +  a'•b' (x) a''·b''
    lhs = bullet(a, b).map_linear(cop)
    rhs = LinComb()
    for (a1, a2), c in cop(a).items():
        rhs.iadd_scaled(c, tensor(unit(a1), bullet(a2, b)))
        for (b1, b2), c2 in cop(b).items():
            rhs.iadd_scaled(
                c * c2, tensor(bullet(a1, b1), unit(mul(a2, b2))))
    return lhs - rhs


def test_bullet_coproduct_compatibility():
    for bullet, mul, cop, pool in [
            (ucp_bullet, mul_merge, coproduct_ucp, UCP2[:16]),
            (cp_bullet, mul_merge, coproduct_cp, CP3AB[:16]),
            (hck_bullet, mul_disjoint, coproduct_hck, HF3[:16])]:
        for a, b in itertools.product(pool, repeat=2):
            assert bullet_compat_defect(bullet, mul, cop, a, b).is_zero(), (
                serialize(a), serialize(b))


# --- quotients ---------------------------------------------------------------

NILP = {"a": unit("b"), "b": LinComb()}
GEN = {"a": LinComb({"a": Fraction(1, 2), "b": Fraction(3)}),
       "b": LinComb({"a": Fraction(-1), "b": Fraction(2, 5)})}


def counterful(budget=2):
    seen = set()
    for n in range(4):
        for t in enum_partitioned(n, ABLAB):
            frontier = [t]
            seen.add(t)
            for _ in range(budget):
                nxt = []
                for s in frontier:
                    for ref, _ in vertices(s):
                        s2 = graft_shift(s, ref, NEW_BLOCK, EMPTY, +1)
                        if s2 not in seen:
                            seen.add(s2)
                            nxt.append(s2)
                frontier = nxt
    return sorted(seen, key=serialize)


@pytest.mark.parametrize("fmap", [{d: unit(d) for d in ABLAB}, NILP, GEN],
                         ids=["id", "nilpotent", "generic"])
def test_counter_elimination_gate(fmap):
    # the closed per-vertex rule against the structural recursion through
    # the symmetric-word extension, on every tree with <= 3 vertices and
    # total counter <= 2
    closed = counter_elimination(fmap)
    rec = counter_elimination_recursive(fmap)
    for t in counterful():
        assert closed(t) == rec(t), serialize(t)


def test_counter_elimination_identity_is_drop_counters():
    closed = counter_elimination({d: unit(d) for d in ABLAB})
    for t in counterful():
        assert closed(t) == unit(drop_counters(t))


def pool_handle(alg, pool):
    """alg with its basis cut down to the keys of pool."""
    return replace(alg, basis=lambda n: [t for t in pool if nvertices(t) == n])


def drop(t):
    return unit(drop_counters(t))


def forget(t):
    return unit(forget_blocks(t))


# name -> (src, dst, phi, maxdeg) for each edge of the quotient tower
TOWER = {
    "ucp-cp": lambda: (ucp_handle(ABLAB, 1), cp_handle(ABLAB), drop, 4),
    "ucp-cp-cap2": lambda: (ucp_handle(ABLAB, 2), cp_handle(ABLAB), drop, 3),
    "cp-hck": lambda: (cp_handle(ABLAB), hck_handle(ABLAB), forget, 5),
    # the products only, on the 30 x 30 pairs of counterful trees (total
    # degree up to 6, counters up to 2), which no degree sweep reaches
    "ucp-cpf": lambda: (
        pool_handle(ucp_handle(ABLAB), counterful()[:30]),
        replace(cp_handle(ABLAB), prelie=cp_bullet_with_map(GEN),
                coproduct=None, counit=None),
        counter_elimination(GEN), 6),
}
ALL_LAWS = ["morphism-mul", "morphism-prelie", "morphism-coproduct",
            "morphism-counit", "morphism-unit"]


@pytest.mark.parametrize("edge", TOWER)
def test_tower_edge_is_a_morphism(edge):
    reports = check_morphism(*TOWER[edge]())
    laws = ["morphism-mul", "morphism-prelie", "morphism-unit"] \
        if edge == "ucp-cpf" else ALL_LAWS
    assert [r.law for r in reports] == laws
    assert all_pass(reports), report_lines(reports)


def relabelled_forget(t):
    """forget_blocks, corrupted: the root of every tree with at least two
    vertices swaps the labels d and e."""
    swap = {"d": "e", "e": "d"}
    return unit(canonicalize(tuple(
        (((k, swap[lab] if kids else lab), kids),)
        for ((k, lab), kids), in forget_blocks(t))))


def test_corrupted_forget_blocks_fails_with_a_witness():
    reports = check_morphism(cp_handle(DELAB), hck_handle(DELAB),
                             relabelled_forget, 3)
    assert report_lines(reports) == [
        "morphism-mul cp->hck 3 PASS",
        "morphism-prelie cp->hck 3 FAIL x={[d]} y={[d]}",
        "morphism-coproduct cp->hck 3 FAIL x={[d([d])]}",
        "morphism-counit cp->hck 3 PASS",
        "morphism-unit cp->hck 3 PASS"]


def test_cp_bullet_with_map_unit_case():
    bf = cp_bullet_with_map(NILP)
    assert bf(P("{[a([a])]}"), EMPTY) == lc(
        ("{[a([b])]}", 1), ("{[b([a])]}", 1))
    assert bf(P("{[b]}"), EMPTY).is_zero()
    # non-unit right argument falls back to plain grafting
    assert bf(P("{[a]}"), P("{[b]}")) == cp_bullet(P("{[a]}"), P("{[b]}"))


# --- block-pruning coproduct -------------------------------------------------

def test_delta_perm_goldens():
    assert delta_perm(P("{[d]}")).is_zero()
    assert delta_perm(P("{[d,d,d]}")).is_zero()
    assert delta_perm(P("{[d([d])]}")) == lc2(("{[d]}", "{[d]}", 1))
    assert delta_perm(P("{[d([d],[d])]}")) == lc2(("{[d([d])]}", "{[d]}", 2))
    assert delta_perm(P("{[d([d,d])]}")) == lc2(("{[d]}", "{[d,d]}", 1))
    assert delta_perm(P("{[d([d([d])])]}")) == lc2(("{[d]}", "{[d([d])]}", 1))
    assert delta_perm(P("{[d,d([d])]}")) == lc2(("{[d,d]}", "{[d]}", 1))


def test_delta_perm_permutative():
    # (delta (x) id) o delta is symmetric in the last two legs
    for t in [x for n in range(5) for x in enum_partitioned(n, DLAB)]:
        twice = tensor_flatten_left(
            tensor_apply2(delta_perm(t), delta_perm, unit))
        assert twice == tensor_swap23(twice), serialize(t)


def test_delta_perm_product_rule():
    # delta(x . y) = x' . y (x) x'' + x . y' (x) y''
    pool = [x for n in range(1, 4) for x in enum_partitioned(n, DLAB)]
    for a, b in itertools.product(pool, repeat=2):
        lhs = delta_perm(mul_merge(a, b))
        rhs = delta_perm(a).map_keys(lambda k: (mul_merge(k[0], b), k[1])) \
            + delta_perm(b).map_keys(lambda k: (mul_merge(a, k[0]), k[1]))
        assert lhs == rhs


def test_delta_perm_bullet_rule_cp():
    # delta(x • y) = (#roots x) x (x) y + x'•y (x) x'' + x' (x) x''•y
    pool = [x for n in range(1, 4) for x in enum_partitioned(n, DLAB)]
    for a, b in itertools.product(pool, repeat=2):
        lhs = cp_bullet(a, b).map_linear(delta_perm)
        rhs = LinComb([((a, b), Fraction(len(a[0])))])
        da = delta_perm(a)
        rhs += tensor_apply2(da, lambda x: cp_bullet(x, b), unit)
        rhs += tensor_apply2(da, unit, lambda x: cp_bullet(x, b))
        assert lhs == rhs, (serialize(a), serialize(b))


def test_delta_perm_bullet_unit_rule_ucp():
    # delta(x • unit) = x'•unit (x) x'' + x' (x) x''•unit
    for a in bump_some([x for n in range(1, 4)
                        for x in enum_partitioned(n, DLAB)]):
        lhs = ucp_bullet(a, EMPTY).map_linear(delta_perm)
        da = delta_perm(a)
        rhs = tensor_apply2(da, lambda x: ucp_bullet(x, EMPTY), unit) \
            + tensor_apply2(da, unit, lambda x: ucp_bullet(x, EMPTY))
        assert lhs == rhs, serialize(a)


def test_kernel_delta_dims():
    # frozen: dim ker on the n-vertex slice, one and two decorations
    assert [kernel_delta_dim(n, DLAB) for n in range(1, 10)] == [
        1, 1, 1, 2, 4, 14, 42, 146, 502]
    assert [kernel_delta_dim(n, ("d", "e")) for n in range(1, 9)] == [
        2, 3, 6, 25, 122, 718, 4342, 27608]


@pytest.mark.parametrize("labels,top", [
    (("d",), 9), (("d", "e"), 7), (("d", "e", "f"), 5),
    (("d", "e", "f", "g"), 4)])
def test_kernel_delta_dim_matches_reference(labels, top):
    for n in range(top + 1):
        assert kernel_delta_dim(n, labels) == \
            kernel_delta_dim_reference(n, labels), (n, labels)


@pytest.mark.parametrize("labels,top", [(("d",), 12), (("d", "e"), 9)])
def test_kernel_delta_dim_matches_the_series(labels, top):
    # the computed rank against the generating-function count, at degrees
    # the per-tree reference cannot reach
    assert [kernel_delta_dim(n, labels) for n in range(1, top + 1)] == \
        kernel_delta_series(top, len(labels))


def _delta_class(t, piece=EMPTY):
    """The class of a tree under delta_perm: its root labels, and its root
    child blocks together with the root blocks of `piece`."""
    roots = t[0] if t else ()
    return (sorted(label for (_, label), _ in roots),
            Counter([b for _, blocks in roots for b in blocks] + list(piece)))


def test_delta_perm_keeps_the_class_of_its_tree():
    # the lemma behind kernel_delta_dim; a cut inside a block breaks it
    trees = [t for n in range(1, 6) for t in enum_partitioned(n, ("d", "e"))]
    for t in trees:
        for trunk, piece in delta_perm(t):
            assert _delta_class(trunk, piece) == _delta_class(t), (
                serialize(t), serialize(trunk), serialize(piece))
    assert any(_delta_class(trunk, piece) != _delta_class(t)
               for t in trees for trunk, piece in coproduct_cp(t)
               if trunk and piece)


@pytest.mark.parametrize("labels", [("d",), ("d", "e")])
def test_pattern_counts_match_the_blocklists(labels):
    counts = _pattern_counts(6, labels)
    for m in range(7):
        assert counts[m] == Counter(
            tuple(sorted(Counter(bl).values()))
            for bl in _unit_enum(labels).blocklists(m)), m


def test_patterned_counts_multisets():
    for n in range(5):
        for s in range(6):
            seen = Counter(
                tuple(sorted(Counter(ms).values()))
                for ms in itertools.combinations_with_replacement(
                    range(n), s))
            assert set(seen) <= set(_partitions(s))
            for pattern in _partitions(s):
                assert _patterned(n, pattern) == seen[pattern], (n, pattern)


def test_kernel_delta_dim_matches_dense_rank():
    # the forward-pass rank behind kernel_delta_dim against the dense
    # Gauss-Jordan reference, on the delta_perm rows of every tree
    for n in range(1, 5):
        rows = [delta_perm(t) for t in enum_partitioned(n, ("d", "e"))]
        cols = sorted({k for r in rows for k in r}, key=repr)
        _, piv = dense_rref([[r[k] for k in cols] for r in rows])
        assert kernel_delta_dim(n, ("d", "e")) == len(rows) - len(piv)


# --- Connes-Moscovici elements -----------------------------------------------

def test_cm_x_goldens():
    assert cm_x(("d",)) == lc(("{[d]}", 1))
    assert cm_x(("d", "d")) == lc(("{[d([d])]}", 1))
    assert cm_x(("d", "d", "d")) == lc(
        ("{[d([d([d])])]}", 1), ("{[d([d],[d])]}", 1))
    assert cm_x(("d",) * 4) == lc(
        ("{[d([d([d([d])])])]}", 1), ("{[d([d([d],[d])])]}", 1),
        ("{[d([d([d])],[d])]}", 3), ("{[d([d],[d],[d])]}", 1))


def test_cm_x_stays_a_tree():
    # each growth step grafts at every existing vertex, so the total mass
    # after k letters is (k-1)!
    x = cm_x(("a", "b", "a", "b"))
    assert sum(x.values()) == 6
    assert all(is_plain(t) and len(t) == 1 for t in x)


def test_cm_bullet_unit_counts_letters():
    for k in range(1, 5):
        x = cm_x(("d",) * k)
        assert x.map_linear(lambda t: hck_bullet(t, EMPTY)) == x.scale(k)


def test_cm_delta_closed_small():
    assert cm_delta_closed(("i", "j")) == LinComb([((("i",), ("j",)), 1)])
    assert cm_delta_closed(("d", "d", "d")) == LinComb([
        ((("d",), ("d", "d")), 1), ((("d", "d"), ("d",)), 3)])
    # positions not containing the first letter contribute nothing
    assert cm_delta_closed(("a", "b")) == LinComb([((("a",), ("b",)), 1)])


@pytest.mark.parametrize("word", [
    ("d", "d"), ("d", "d", "d"), ("d",) * 4,
    ("a", "b"), ("a", "b", "a"), ("b", "a", "a"),
])
def test_cm_delta_closed_matches_oracle(word):
    letters = tuple(sorted(set(word)))
    assert cm_delta_closed(word) == cm_delta_oracle(word, letters)


def test_cm_delta_duality_with_letter_insertion():
    # <delta X_w, X_u (x) X_v> = coefficient of w in the insertion product
    # u • v of the word algebra with f = identity
    fid = {"a": unit("a"), "b": unit("b")}
    for k in range(2, 5):
        for w in words_of_length(ABLAB, k):
            dl = cm_delta_closed(w)
            for lu in range(1, k):
                for u in words_of_length(ABLAB, lu):
                    for v in words_of_length(ABLAB, k - lu):
                        assert dl[(u, v)] == bullet_tvf(fid, u, v)[w]


def test_cm_growth_coproduct_recursion():
    # Delta(X_{w d}) = X' (x) X''•leaf + X'•leaf (x) X'' + X'•unit (x) X''·leaf
    for word in [("d", "d"), ("d", "d", "d"), ("a", "b", "a")]:
        w, d = word[:-1], word[-1]
        leaf = P("{[%s]}" % d)
        x = cm_x(w)
        lhs = cm_x(word).map_linear(coproduct_hck)
        dx = x.map_linear(coproduct_hck)
        rhs = tensor_apply2(dx, unit, lambda t: hck_bullet(t, leaf))
        rhs += tensor_apply2(dx, lambda t: hck_bullet(t, leaf), unit)
        rhs += tensor_apply2(dx, lambda t: hck_bullet(t, EMPTY),
                             lambda t: unit(mul_disjoint(t, leaf)))
        assert lhs == rhs, word


def test_cm_grow_is_a_derivation():
    # N_d(x·y) = N_d(x)·y + x·N_d(y)
    pool = HF3[:10]
    for a, b in itertools.product(pool, repeat=2):
        lhs = cm_grow(unit(mul_disjoint(a, b)), "d")
        rhs = bilinear_extend(mul_disjoint_lc, cm_grow(unit(a), "d"), unit(b)) \
            + bilinear_extend(mul_disjoint_lc, unit(a), cm_grow(unit(b), "d"))
        assert lhs == rhs
