"""Counting gates for the cut layer: the sizes of the cutting coproducts and
of theta on seeded random trees, against counts taken from the definitions
(`tests/oracles.py`), and the admissible partitions against the filter of
all set partitions."""

import gc
import random

import pytest

from comprelie.dual import psi_inverse, psi_map, theta
from comprelie.ptree import (
    admissible_partitions, canonicalize, drop_counters, enum_partitioned,
    nvertices, parse, restrict, vertices,
)
from comprelie.ucp import (
    coproduct_cp, coproduct_hck, coproduct_ucp, cp_bullet, hck_bullet,
    ucp_bullet,
)

from oracles import (
    admissible_partitions_brute_force, n_admissible, n_cut_terms, n_ideals,
)


def random_forest(seed: int, n: int, roots: int, plain: bool,
                  labels: str = "de", counter_cap: int = 0):
    """A canonical forest on n vertices.

    Vertex v >= roots hangs from v - 1, from vertex 0 or from a uniform
    earlier vertex, a third of the time each, and joins a random child
    block of its parent or opens its own, half the time each.  The roots
    share one block, unless `plain`, which gives every vertex a block of
    its own.  Labels and counters are uniform."""
    rnd = random.Random(seed)
    roots = min(roots, n)
    blocks: list[list[list[int]]] = [[] for _ in range(n)]
    for v in range(roots, n):
        kids = blocks[rnd.choice((v - 1, 0, rnd.randrange(v)))]
        if kids and not plain and rnd.random() < 0.5:
            rnd.choice(kids).append(v)
        else:
            kids.append([v])

    def node(v: int):
        dec = (rnd.randint(0, counter_cap), rnd.choice(labels))
        return (dec, tuple(tuple(node(c) for c in b) for b in blocks[v]))

    tops = [(node(v),) for v in range(roots)]
    if not plain:
        tops = [tuple(nd for b in tops for nd in b)] if roots else []
    return canonicalize(tuple(tops))


# (seed, vertices, roots): every size up to 16, one to three roots
TREES = [(seed, n, 1 + seed % 3 if n >= 3 else 1)
         for seed, n in enumerate(list(range(17)) + [16, 16, 15, 14, 12])]


@pytest.mark.parametrize("seed,n,roots", TREES)
def test_cutting_coproduct_sizes(seed, n, roots):
    """Each coproduct has one term per ideal, summed into the distinct
    pairs (trunk, pruned).  One label half the time, so that equal
    subtrees merge terms; counters a third of the time."""
    labels = "d" if seed % 2 else "de"
    t = random_forest(seed, n, min(roots, 2), False, labels, seed % 3 == 0)
    assert nvertices(t) == n
    for cop, bump in ((coproduct_cp, False), (coproduct_ucp, True)):
        out = cop(t)
        assert sum(out.values()) == n_ideals(t)
        assert len(out) == n_cut_terms(t, bump)
    f = random_forest(seed, n, roots, True, labels)
    out = coproduct_hck(f)
    assert sum(out.values()) == n_ideals(f)
    assert len(out) == n_cut_terms(f)


def _corolla(leaves: int, one_block: bool) -> str:
    if one_block:
        return "{[d([%s])]}" % ",".join(["d"] * leaves)
    return "{[d(%s)]}" % ",".join(["[d]"] * leaves)


# one-rooted trees of 3 to 9 vertices (ids seed-n), the TREES of the
# coproduct gate (ids seed-n-roots) and both 10-vertex corollas
THETA_TREES = (
    [pytest.param(random_forest(seed, n, 1, False), id="%d-%d" % (seed, n))
     for seed, n in [(seed, 3 + seed % 6) for seed in range(12)] + [(8, 9)]]
    + [pytest.param(random_forest(seed, n, roots, False, "d" if seed % 2
                                  else "de"), id="%d-%d-%d" % (seed, n, roots))
       for seed, n, roots in TREES]
    + [pytest.param(parse(_corolla(9, one_block)), id=_corolla(9, one_block))
       for one_block in (False, True)])


@pytest.mark.parametrize("t", THETA_TREES)
def test_theta_sizes(t):
    """theta has one term per admissible partition."""
    count = n_admissible(t)
    assert len(admissible_partitions(t)) == count
    assert sum(theta(t).values()) == count


def assert_same_partitions(t):
    """The admissible partitions are the filtered set partitions, none
    yielded twice."""
    fast = [frozenset(p) for p in admissible_partitions(t)]
    assert len(set(fast)) == len(fast)
    assert set(fast) == {frozenset(p)
                         for p in admissible_partitions_brute_force(t)}


@pytest.mark.parametrize("n", range(6))
def test_admissible_partitions_match_the_filter(n):
    for t in enum_partitioned(n, "de"):
        assert_same_partitions(t)


@pytest.mark.parametrize("seed,n,roots", [c for c in TREES
                                          if c[2] > 1 and c[1] <= 8])
def test_admissible_partitions_of_forests(seed, n, roots):
    """Several roots in one block, and each root in a block of its own."""
    for plain in (False, True):
        assert_same_partitions(random_forest(seed, n, roots, plain))


TREE = parse("{[d([e:1,f([d])],[e])]}")
PLAIN = parse("{[d([e([f])],[e])]}")
CALLS = {
    "coproduct_ucp": lambda: coproduct_ucp(TREE),
    "coproduct_cp": lambda: coproduct_cp(drop_counters(TREE)),
    "coproduct_hck": lambda: coproduct_hck(PLAIN),
    "ucp_bullet": lambda: ucp_bullet(TREE, parse("{[e]}")),
    "cp_bullet": lambda: cp_bullet(drop_counters(TREE), parse("{[e]}")),
    "hck_bullet": lambda: hck_bullet(PLAIN, parse("{[e]}")),
    "restrict": lambda: restrict(TREE, frozenset(
        ref for i, (ref, _) in enumerate(vertices(TREE)) if i % 2)),
    "drop_counters": lambda: drop_counters(TREE),
    "theta": lambda: theta(drop_counters(TREE)),
    "psi_map": lambda: psi_map(drop_counters(TREE)),
    "psi_inverse": lambda: psi_inverse(drop_counters(TREE)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_tree_walks_leave_no_cycles(name):
    """The cut and graft layer frees what it builds by reference counting:
    with the cyclic collector off, a call leaves nothing for it."""
    CALLS[name]()  # fill any cache before counting
    gc.collect()
    gc.disable()
    try:
        CALLS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()
