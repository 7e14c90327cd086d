"""The grafting products, summed over `ptree.grafts`, and `dual.delta_root`,
read off `ucp.delta_perm`, against one explicit loop each in `oracles`."""

from itertools import product

import pytest

from comprelie.dual import delta_root, diamond, diamond_down
from comprelie.handles import get_handle
from comprelie.ptree import EMPTY, enum_one_rooted, enum_partitioned, serialize
from comprelie.ucp import cp_bullet, cp_bullet_with_map, hck_bullet, ucp_bullet

from oracles import (
    cp_bullet_loop, cp_bullet_with_map_loop, delta_root_loop, diamond_loop,
    hck_bullet_loop, ucp_bullet_loop,
)

D2 = ("d", "e")

PRODUCTS = {
    "ucp": (ucp_bullet, ucp_bullet_loop),
    "cp": (cp_bullet, cp_bullet_loop),
    "hck": (hck_bullet, hck_bullet_loop),
    "dual-cp": (diamond, diamond_loop),
    "dual-ucp": (diamond_down, lambda t, u: diamond_loop(t, u, dk=-1)),
}


@pytest.mark.parametrize("name", PRODUCTS)
def test_grafting_product_matches_the_loop(name):
    # every pair of basis trees (counters 0..1 where the algebra has them)
    # of at most 4 vertices together, the empty forest on the right included
    fast, loop = PRODUCTS[name]
    basis = get_handle(name, labels=D2).basis
    keys = [(n, t) for n in range(5) for t in basis(n)]
    rights = keys if (0, EMPTY) in keys else [(0, EMPTY)] + keys
    for (m, t), (n, u) in product(keys, rights):
        if m + n <= 4:
            assert fast(t, u) == loop(t, u), (serialize(t), serialize(u))


MAPS = {
    "diag": {"d": {"d": 2}, "e": {"e": 3}},
    "jordan": {"d": {"d": 1}, "e": {"d": 1, "e": 1}},
    "swap": {"d": {"e": 1}, "e": {"d": 1}},
    "nilpotent": {"d": {"e": 1}},
    "zero": {},
}


@pytest.mark.parametrize("fmap", MAPS.values(), ids=MAPS)
def test_cp_bullet_with_map_matches_the_loop(fmap):
    # the unit on the right for trees of up to 5 vertices, and every pair
    # of at most 3 vertices together
    fast, loop = cp_bullet_with_map(fmap), cp_bullet_with_map_loop(fmap)
    trees = [(n, t) for n in range(6) for t in enum_partitioned(n, D2)]
    for m, t in trees:
        for n, u in trees:
            if n == 0 or m + n <= 3:
                assert fast(t, u) == loop(t, u), (serialize(t), serialize(u))


def test_delta_root_matches_the_loop():
    for n in range(1, 7):
        for t in enum_one_rooted(n, D2):
            assert delta_root(t) == delta_root_loop(t), serialize(t)
