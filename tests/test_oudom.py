import itertools

from hypothesis import given, settings, strategies as st

from comprelie.lincomb import unit
from comprelie.ptree import (
    EMPTY, parse, serialize, build_root, canonicalize, enum_partitioned,
    enum_one_rooted, mul_merge, nvertices,
)
from comprelie.ucp import (
    ucp_bullet, cp_bullet, hck_bullet, mul_merge_lc, mul_disjoint_lc,
    coproduct_cp, coproduct_hck,
)
from comprelie.oudom import (
    Extension, product_rule_defect, coproduct_rule_defect, absorb_defect,
    check_lemma7, check_prop6, extend_bullet, extension_for, fmt_symword,
)
from comprelie.handles import cp_handle, hck_handle, ucp_handle

P = parse

TREES = [P("{[a]}"), P("{[b]}"), P("{[a([b])]}"), P("{[a,b]}"),
         P("{[b([a,b])]}")]

ext_cp = Extension(cp_bullet, serialize)


def test_unit_word_is_identity():
    for t in TREES:
        assert ext_cp.bullet_word(t, ()) == unit(t)
    assert ext_cp.pair((), ()) == unit(())
    assert ext_cp.pair((), ext_cp.word([TREES[0]])).is_zero()


def test_single_letter_is_bullet():
    for t, u in itertools.product(TREES[:3], repeat=2):
        assert ext_cp.bullet_word(t, (u,)) == cp_bullet(t, u)


def test_two_letter_expansion():
    # a•(b×c) = (a•b)•c - a•(b•c), both peelings
    a, b, c = TREES[0], TREES[2], TREES[3]
    w = ext_cp.word([b, c])
    direct = cp_bullet(a, b).map_linear(lambda x: cp_bullet(x, c)) \
        - cp_bullet(b, c).map_linear(lambda y: cp_bullet(a, y))
    assert ext_cp.bullet_word(a, w) == direct


def test_peel_position_independence():
    for a in TREES[:2]:
        for combo in itertools.combinations_with_replacement(TREES, 3):
            w = ext_cp.word(list(combo))
            for pos in range(len(w)):
                assert ext_cp.peel_defect(a, w, pos).is_zero(), (
                    serialize(a), [serialize(t) for t in w], pos)


def test_peel_breaks_for_non_prelie_product():
    # corrupt the product with a non-preLie term; the peel order must then
    # matter somewhere (otherwise this harness could not catch anything)
    def corrupt(t, u):
        out = cp_bullet(t, u)
        if u != EMPTY and nvertices(t) >= 2:
            out.add_term(mul_merge(t, u), 1)
        return out
    extc = Extension(corrupt, serialize)
    assert any(
        not extc.peel_defect(a, extc.word(list(combo)), pos).is_zero()
        for a in TREES[:2]
        for combo in itertools.combinations_with_replacement(TREES, 2)
        for pos in range(2))


def test_word_product_unshuffles():
    # (x×y)•z expands over the two legs
    x, y, z = TREES[0], TREES[1], TREES[2]
    lhs = ext_cp.pair(ext_cp.word([x, y]), (z,))
    rhs = ext_cp.mul_words(ext_cp.pair((x,), (z,)), unit((y,))) \
        + ext_cp.mul_words(unit((x,)), ext_cp.pair((y,), (z,)))
    assert lhs == rhs


def test_one_rooted_trees_factor_through_words():
    # a one-rooted tree is its root grafted with the symmetric word of its
    # child blocks -- the structural identity behind the recursive quotient
    for n in range(1, 5):
        for t in enum_one_rooted(n, ("a", "b")) if n <= 3 else \
                enum_one_rooted(n, ("a",)):
            (k, d), blocks = t[0][0]
            args = [unit(canonicalize((b,))) for b in blocks]
            rebuilt = ext_cp.apply_flat(unit(build_root(d, ())), args)
            assert rebuilt == unit(t), serialize(t)


def test_product_rule_cp_and_hck():
    for a, b in itertools.product(TREES[:2], repeat=2):
        for cs in itertools.combinations_with_replacement(TREES[:4], 2):
            assert product_rule_defect(
                ext_cp, mul_merge_lc, a, b, list(cs)).is_zero()
    ext_h = Extension(hck_bullet, serialize)
    F = [P("{[a]}"), P("{[a([b])]}"), P("{[a],[b]}")]
    for a, b in itertools.product(F[:2], repeat=2):
        for cs in itertools.combinations_with_replacement(F, 2):
            assert product_rule_defect(
                ext_h, mul_disjoint_lc, a, b, list(cs)).is_zero()


def test_coproduct_rule_cp():
    for a in TREES[:3]:
        for bs in itertools.combinations_with_replacement(TREES[:3], 2):
            assert coproduct_rule_defect(
                ext_cp, mul_merge_lc, coproduct_cp, EMPTY,
                a, list(bs)).is_zero(), serialize(a)


def test_coproduct_rule_hck():
    ext_h = Extension(hck_bullet, serialize)
    F = [P("{[a]}"), P("{[b]}"), P("{[a([b])]}")]
    for a in F:
        for bs in itertools.combinations_with_replacement(F, 2):
            assert coproduct_rule_defect(
                ext_h, mul_disjoint_lc, coproduct_hck, EMPTY,
                a, list(bs)).is_zero()


def test_absorb_rule():
    # on single vertices (the primitives), inner units may be peeled off
    # into applications of x -> x•unit
    for bullet in (cp_bullet, ucp_bullet):
        ext = Extension(bullet, serialize)
        for a in (P("{[a]}"), P("{[b]}")):
            for bs in ([], [TREES[2]], [TREES[0], TREES[3]]):
                for k in (1, 2):
                    assert absorb_defect(ext, EMPTY, a, bs, k).is_zero()


WORD_POOL = [t for n in range(3) for t in enum_partitioned(n, ("a",))]


@given(st.sampled_from(WORD_POOL), st.lists(st.sampled_from(WORD_POOL),
                                            max_size=3))
@settings(max_examples=40, deadline=None)
def test_bullet_word_lands_in_base_span(a, ws):
    out = ext_cp.bullet_word(a, ext_cp.word(ws))
    assert all(isinstance(k, tuple) for k in out)
    # grafting words of total size m onto a yields trees of size |a|+m
    if EMPTY not in ws:
        m = nvertices(a) + sum(nvertices(w) for w in ws)
        assert all(nvertices(k) == m for k in out)


# --- handle-level ops -------------------------------------------------------

def test_fmt_symword():
    assert fmt_symword(()) == "1"
    assert fmt_symword((P("{[a]}"), P("{[b]}")), serialize) == \
        "{[a]} x {[b]}"


def test_extend_bullet_singletons_agree_with_prelie():
    cp = cp_handle(labels=("a", "b"))
    for t, u in itertools.product(TREES[:4], repeat=2):
        got = extend_bullet(unit((t,)), unit((u,)), cp)
        assert got == cp_bullet(t, u).map_keys(lambda k: (k,))


def test_extend_bullet_unit_word():
    cp = cp_handle(labels=("a", "b"))
    w = unit(extension_for(cp).word([TREES[0], TREES[2]]))
    assert extend_bullet(w, unit(()), cp) == w
    assert extend_bullet(unit(()), w, cp).is_zero()
    assert extend_bullet(unit(()), unit(()), cp) == unit(())


def test_extend_bullet_bilinear():
    cp = cp_handle(labels=("a", "b"))
    x = unit((TREES[0],)) + unit((TREES[1],)).scale(3)
    z1, z2 = unit((TREES[2],)), unit((TREES[3],))
    assert extend_bullet(x, z1 + z2, cp) == \
        extend_bullet(x, z1, cp) + extend_bullet(x, z2, cp)


def test_extension_for_is_cached():
    cp = cp_handle()
    assert extension_for(cp) is extension_for(cp)


def test_counter_powers_of_the_unit():
    # grafting k unit factors onto a bare vertex increments its counter k
    # times
    ucp = ucp_handle()
    ext = extension_for(ucp)
    v = P("{[d]}")
    for k in range(4):
        w = ext.word([ucp.unit] * k)
        assert ext.bullet_word(v, w) == unit(P("{[d:%d]}" % k))


def test_check_prop6_passes():
    for alg in (cp_handle(), ucp_handle(), hck_handle()):
        reports = check_prop6(alg, 3)
        assert [r.law for r in reports] == ["product-rule", "coproduct-rule"]
        assert all(r.ok for r in reports), [r.line() for r in reports]


def test_check_lemma7_passes():
    for alg in (cp_handle(), ucp_handle(), hck_handle()):
        r = check_lemma7(alg, 3, 3)
        assert r.ok, r.line()
        assert r.line() == f"unit-absorption {alg.name} 6 PASS"


def test_check_prop6_catches_corruption():
    from comprelie.axioms import corrupt
    reports = check_prop6(corrupt(cp_handle(), "prelie"), 2)
    assert not all(r.ok for r in reports)


def test_check_prop6_coproduct_rule_failure_witness():
    from comprelie.axioms import corrupt
    reports = check_prop6(corrupt(cp_handle(), "coproduct"), 2)
    assert [r.line() for r in reports] == [
        "product-rule cp!coproduct 2 PASS",
        "coproduct-rule cp!coproduct 2 FAIL a={[d]} w={}",
    ]


def test_check_lemma7_failure_witness():
    from comprelie.axioms import corrupt
    for name, alg in (("cp", cp_handle()), ("hck", hck_handle())):
        assert check_lemma7(corrupt(alg, "prelie"), 2, 2).line() == \
            f"unit-absorption {name}!prelie 4 FAIL a={{[d]}} k=1 w={{[d]}}"
