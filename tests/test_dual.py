import itertools

from hypothesis import given, settings, strategies as st

from comprelie.lincomb import (
    LinComb, unit, bilinear_extend, tensor_apply2,
)
from comprelie.linalg import rank
from comprelie.ptree import (
    EMPTY, parse, serialize, enum_partitioned, enum_one_rooted, mul_merge,
    mul_disjoint, NEW_BLOCK, graft_shift, generator_label, varsigma,
    vertices,
)
from comprelie.ucp import (
    cp_bullet, mul_merge_lc, coproduct_cp, coproduct_hck,
)
from comprelie.dual import (
    diamond, diamond_down, delta_root, root_graft, free_generators,
    theta, theta_alphabet, weighted_trees, weighted_forests,
    psi_map, psi_inverse,
)

from oracles import tensor_flatten_left, tensor_swap23

P = parse


def lc(*pairs):
    return LinComb([(P(s), c) for s, c in pairs])


# --- grafting into existing blocks -------------------------------------------

def test_diamond_goldens():
    assert diamond(P("{[d]}"), P("{[d]}")) == lc(("{[d([d])]}", 1))
    assert diamond(P("{[d([d])]}"), P("{[d]}")) == lc(
        ("{[d([d([d])])]}", 1), ("{[d([d,d])]}", 1), ("{[d([d],[d])]}", 1))
    assert diamond(P("{[d([d])]}"), EMPTY).is_zero()
    assert diamond(EMPTY, P("{[d]}")).is_zero()


def test_diamond_down_goldens():
    # grafting lowers the grafting vertex's counter; counter 0 kills the term
    assert diamond_down(P("{[d]}"), P("{[e]}")).is_zero()
    assert diamond_down(P("{[d:2]}"), P("{[e]}")) == lc(("{[d:1([e])]}", 1))
    assert diamond_down(P("{[d:1([e])]}"), P("{[f]}")) == lc(
        ("{[d([e],[f])]}", 1), ("{[d([e,f])]}", 1))
    assert diamond_down(P("{[d([e:1])]}"), P("{[f]}")) == lc(
        ("{[d([e([f])])]}", 1))


CP2 = [t for n in range(3) for t in enum_partitioned(n, ("d",))]
CP3 = [t for n in range(4) for t in enum_partitioned(n, ("d",))]


def prelie_defect(bullet, a, b, c):
    lhs = bullet(a, b).map_linear(lambda x: bullet(x, c)) \
        - bullet(b, c).map_linear(lambda x: bullet(a, x))
    rhs = bullet(a, c).map_linear(lambda x: bullet(x, b)) \
        - bullet(c, b).map_linear(lambda x: bullet(a, x))
    return lhs - rhs


def test_diamond_com_prelie():
    for a, b, c in itertools.product(CP2, repeat=3):
        assert prelie_defect(diamond, a, b, c).is_zero()
        lhs = mul_merge_lc(a, b).map_linear(lambda x: diamond(x, c))
        rhs = bilinear_extend(mul_merge_lc, diamond(a, c), unit(b)) \
            + bilinear_extend(mul_merge_lc, unit(a), diamond(b, c))
        assert lhs == rhs


def counterful_one_rooted():
    out = []
    for n in range(1, 3):
        for t in enum_one_rooted(n, ("d",)):
            out.append(t)
            for ref, _ in vertices(t):
                s = graft_shift(t, ref, NEW_BLOCK, EMPTY, +1)
                out.extend([s, graft_shift(s, ref, NEW_BLOCK, EMPTY, +1)])
    return sorted(set(out), key=serialize)


def test_diamond_down_prelie():
    pool = counterful_one_rooted()
    for a, b, c in itertools.product(pool, repeat=3):
        assert prelie_defect(diamond_down, a, b, c).is_zero(), (
            serialize(a), serialize(b), serialize(c))


# --- root pruning -------------------------------------------------------------

def test_delta_root_goldens():
    assert delta_root(P("{[d]}")).is_zero()
    assert delta_root(P("{[d([d],[d])]}")) == LinComb(
        [((P("{[d([d])]}"), P("{[d]}")), 2)])
    assert delta_root(P("{[d([d,d])]}")).is_zero()  # block not singleton
    assert delta_root(P("{[d([d([d])])]}")) == LinComb(
        [((P("{[d]}"), P("{[d([d])]}")), 1)])


def test_delta_root_permutative():
    for n in range(1, 6):
        for t in enum_one_rooted(n, ("d",)):
            tw = tensor_flatten_left(
                tensor_apply2(delta_root(t), delta_root, unit))
            assert tw == tensor_swap23(tw), serialize(t)


def test_root_graft_recovers_varsigma():
    for n in range(1, 5):
        for t in enum_one_rooted(n, ("d", "e")) if n <= 3 else \
                enum_one_rooted(n, ("d",)):
            acc = LinComb()
            for (trunk, piece), c in delta_root(t).items():
                acc.add_term(root_graft(trunk, piece), c)
            assert acc == unit(t).scale(varsigma(t)), serialize(t)


def test_diamond_differentiates_delta_root():
    pool = [t for n in range(1, 4) for t in enum_one_rooted(n, ("d",))]
    for t, u in itertools.product(pool, repeat=2):
        lhs = diamond(t, u).map_linear(delta_root)
        dt = delta_root(t)
        rhs = tensor_apply2(dt, lambda x: diamond(x, u), unit) \
            + tensor_apply2(dt, unit, lambda x: diamond(x, u)) \
            + LinComb([((t, u), 1)])
        assert lhs == rhs, (serialize(t), serialize(u))


def test_free_generator_counts():
    assert [len(free_generators(n, ("d",))) for n in range(1, 5)] == [
        1, 0, 1, 2]
    assert [serialize(g) for g in free_generators(3, ("d",))] == [
        "{[d([d,d])]}"]
    # freeness at the level of dimensions: one-rooted trees of each size
    # match plain trees over the weighted generator alphabet
    gens = theta_alphabet(5, ("d",))
    for n in range(1, 6):
        assert len(enum_one_rooted(n, ("d",))) == len(
            weighted_trees(n, gens)), n


# --- contraction morphism -----------------------------------------------------

A1 = generator_label(P("{[d]}"))
B3 = generator_label(P("{[d([d,d])]}"))


def key1(lab):
    return (((0, lab), ()),)


def test_theta_goldens():
    assert theta(P("{[d]}")) == unit((key1(A1),))
    chain = ((((0, A1), ((((0, A1), ()),),)),),)
    assert theta(P("{[d([d])]}")) == unit(chain)
    # the one-block cherry contracts two ways
    out = theta(P("{[d([d,d])]}"))
    assert len(out) == 2
    assert out[(key1(B3),)] == 1
    corolla = ((((0, A1), ((((0, A1), ()),), (((0, A1), ()),))),),)
    assert out[corolla] == 1
    assert theta(P("{[d([d],[d])]}")) == unit(corolla)


def test_theta_counts_admissible_partitions():
    # total mass = number of admissible partitions
    assert sum(theta(P("{[d([d])]}")).values()) == 1
    assert sum(theta(P("{[d([d,d])]}")).values()) == 2
    assert sum(theta(P("{[d([d([d])])]}")).values()) == 1


def test_theta_multiplicative():
    pool = [t for n in range(1, 3) for t in enum_partitioned(n, ("d",))]
    for a, b in itertools.product(pool, repeat=2):
        lhs = theta(mul_merge(a, b))
        rhs = bilinear_extend(lambda x, y: unit(mul_disjoint(x, y)),
                              theta(a), theta(b))
        assert lhs == rhs


def test_theta_intertwines_coproducts():
    for n in range(5):
        for t in enum_partitioned(n, ("d",)):
            lhs = theta(t).map_linear(coproduct_hck)
            rhs = LinComb()
            for (a, b), c in coproduct_cp(t).items():
                for ka, ca in theta(a).items():
                    for kb, cb in theta(b).items():
                        rhs.add_term((ka, kb), c * ca * cb)
            assert lhs == rhs, serialize(t)


def test_theta_bijective_on_slices():
    for n in range(1, 5):
        src = enum_partitioned(n, ("d",))
        tgt = weighted_forests(n, theta_alphabet(n, ("d",)))
        images = [theta(t) for t in src]
        keys = sorted({k for im in images for k in im}, key=repr)
        mat = [{j: im[k] for j, k in enumerate(keys)} for im in images]
        assert len(src) == len(tgt)
        assert rank(mat) == len(src)
        assert set(keys) <= set(tgt)


def test_theta_two_decorations_slice():
    src = enum_partitioned(3, ("d", "e"))
    tgt = weighted_forests(3, theta_alphabet(3, ("d", "e")))
    images = [theta(t) for t in src]
    keys = sorted({k for im in images for k in im}, key=repr)
    mat = [{j: im[k] for j, k in enumerate(keys)} for im in images]
    assert len(src) == len(tgt) == rank(mat)


# --- coarsening morphism ------------------------------------------------------

def test_psi_goldens():
    assert psi_map(P("{[d]}")) == lc(("{[d]}", 1))
    assert psi_map(P("{[d([d])]}")) == lc(("{[d([d])]}", 1))
    assert psi_map(P("{[d([d],[d])]}")) == lc(
        ("{[d([d],[d])]}", 1), ("{[d([d,d])]}", 1))
    assert psi_map(P("{[d([d,d])]}")) == lc(("{[d([d,d])]}", 1))
    assert psi_map(P("{[d([d],[d],[d])]}")) == lc(
        ("{[d([d],[d],[d])]}", 1), ("{[d([d,d],[d])]}", 3),
        ("{[d([d,d,d])]}", 1))
    assert psi_map(P("{[d([d,d],[d])]}")) == lc(
        ("{[d([d,d],[d])]}", 1), ("{[d([d,d,d])]}", 1))
    assert psi_map(P("{[d([d,d,d])]}")) == lc(("{[d([d,d,d])]}", 1))


def test_psi_intertwines():
    pool = [t for n in range(1, 4) for t in enum_partitioned(n, ("d",))]
    for a, b in itertools.product(pool, repeat=2):
        assert (psi_map(mul_merge(a, b))
                == bilinear_extend(mul_merge_lc, psi_map(a), psi_map(b)))
        # new-block-only grafting becomes graft-into-every-block
        lhs = cp_bullet(a, b).map_linear(psi_map)
        rhs = bilinear_extend(diamond, psi_map(a), psi_map(b))
        assert lhs == rhs, (serialize(a), serialize(b))


PSI_POOL = [t for n in range(5) for t in enum_partitioned(n, ("d",))]


@given(st.sampled_from(PSI_POOL))
@settings(max_examples=30, deadline=None)
def test_psi_inverse(t):
    assert psi_map(t).map_linear(psi_inverse) == unit(t)
    assert psi_inverse(t).map_linear(psi_map) == unit(t)


def test_psi_unitriangular():
    # psi(T) = T + strictly coarser terms, all with the same vertex count
    from comprelie.ptree import nvertices
    for t in PSI_POOL:
        out = psi_map(t)
        assert out[t] == 1
        for s in out:
            assert nvertices(s) == nvertices(t)
            assert len([b for blk in s for b in blk]) <= \
                len([b for blk in t for b in blk])
