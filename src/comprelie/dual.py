"""Block-joining grafting products and the contraction/coarsening morphisms.

The cutting coproducts of :mod:`comprelie.ucp` prune material off a tree;
the products here put it back in every possible way, so they are the graded
duals of those coproducts (up to the usual symmetry factors).

* ``diamond`` grafts the right argument at every vertex of the left one,
  both into each existing child block and as a new block (``ptree.grafts``
  with ``existing``).  On the span of all counter-free partitioned trees it
  makes the tree multiplication a Com-PreLie algebra; restricted to
  one-rooted trees it is the product dual to ``delta_root`` below.
* ``diamond_down`` is the counterful variant: each grafting also lowers the
  counter of the grafting vertex by one, killing the term at counter zero.
  This is the product dual to the block-pruning coproduct on counterful
  trees.
* ``delta_root`` keeps the terms of the block-pruning ``delta_perm`` that
  prune a singleton child block.  On one-rooted trees it is permutative,
  ``diamond`` differentiates it, and regrafting at the root (``root_graft``)
  recovers the singleton-block count ``varsigma`` — which is why the trees
  with no singleton child block at the root freely generate.
* ``theta`` contracts a tree along all partitions into one-rooted pieces
  with no singleton child block at their roots; it lands in plain forests
  whose vertex labels name the pieces, and it intertwines products and
  cutting coproducts (tree multiplication becomes disjoint union).
  Its target is spanned by plain forests over the weighted alphabet
  ``theta_alphabet``: one (label, weight) pair per free generator, weighted
  by its vertex count.  ``weighted_trees`` and ``weighted_forests`` list
  them by total weight with the shared enumerator of :mod:`comprelie.ptree`,
  so the dimensions of both sides can be compared.
* ``psi_map`` sums all coarsenings (sibling-block merges, with multiplicity)
  of a tree; it turns new-block-only grafting into ``diamond`` and is
  invertible by triangularity in the block count.
"""

from __future__ import annotations

from .lincomb import LinComb, unit
from .ptree import (
    EMPTY,
    NEW_BLOCK,
    PForest,
    _enum,
    admissible_partitions,
    coarsenings,
    contract,
    enum_one_rooted,
    generator_label,
    graft_shift,
    grafts,
    is_one_rooted,
    serialize,
    varsigma,
)
from .ucp import delta_perm


# ---------------------------------------------------------------------------
# Grafting into existing blocks.
# ---------------------------------------------------------------------------

def diamond(t: PForest, u: PForest) -> LinComb:
    """Graft u at every vertex of t, into every child block and a new one.

    The unit as right argument gives zero (the only extension under which
    the Com-PreLie laws survive)."""
    if u == EMPTY:
        return LinComb()
    return LinComb((s, 1) for s in grafts(t, u, existing=True))


def diamond_down(t: PForest, u: PForest) -> LinComb:
    """Like `diamond`, but each grafting lowers the counter of its grafting
    vertex by one; graftings at counter zero vanish."""
    if u == EMPTY:
        return LinComb()
    return LinComb((s, 1) for s in grafts(t, u, existing=True, dk=-1))


# ---------------------------------------------------------------------------
# Root pruning on one-rooted trees.
# ---------------------------------------------------------------------------

def delta_root(t: PForest) -> LinComb:
    """Remove one singleton child block of the root; the removed vertex,
    with its subtree, is the right leg.  These are the terms of the
    block-pruning `delta_perm` whose pruned block is a singleton."""
    assert is_one_rooted(t), serialize(t)
    return LinComb((pair, c) for pair, c in delta_perm(t).items()
                   if len(pair[1][0]) == 1)


def root_graft(t: PForest, u: PForest) -> PForest:
    """Graft all roots of u as one new child block of the root of t."""
    assert is_one_rooted(t), serialize(t)
    return graft_shift(t, ((0, 0),), NEW_BLOCK, u)


def free_generators(n: int, labels) -> list[PForest]:
    """One-rooted n-vertex trees with no singleton child block at the root."""
    return [t for t in enum_one_rooted(n, labels) if varsigma(t) == 0]


# ---------------------------------------------------------------------------
# Contraction morphism into plain forests over the generator alphabet.
# ---------------------------------------------------------------------------

def theta(t: PForest) -> LinComb:
    """Sum of the contractions of t along all partitions into one-rooted
    pieces with no singleton child block at their root.  The partitions
    come from `admissible_partitions`, grown top-down, so the cost follows
    the number of terms, not the Bell number of t's vertex count: a
    corolla whose leaves sit in singleton blocks has one term."""
    return LinComb((contract(t, part), 1) for part in admissible_partitions(t))


def theta_alphabet(n: int, labels) -> list[tuple[str, int]]:
    """(label, weight) pairs for the generators of weight <= n."""
    out = []
    for m in range(1, n + 1):
        for g in free_generators(m, labels):
            out.append((generator_label(g), m))
    return out


# ---------------------------------------------------------------------------
# Plain trees and forests over a weighted alphabet (for dimension counts).
# ---------------------------------------------------------------------------

def weighted_trees(n: int, gens: list[tuple[str, int]]) -> list:
    """Canonical plain-tree Nodes of total weight n, vertices labeled from
    the weighted alphabet `gens`."""
    return list(_enum(((0, g), w) for g, w in gens).plain_nodes(n))


def weighted_forests(n: int, gens: list[tuple[str, int]]) -> list[PForest]:
    """Canonical plain forests of total weight n over the weighted alphabet."""
    return _enum(((0, g), w) for g, w in gens).plain_forests(n)


# ---------------------------------------------------------------------------
# Coarsening morphism.
# ---------------------------------------------------------------------------

def psi_map(t: PForest) -> LinComb:
    """Sum of all sibling-block coarsenings of t, with multiplicity."""
    return LinComb((c, 1) for c in coarsenings(t))


def psi_inverse(t: PForest) -> LinComb:
    """Inverse of `psi_map` on the tree basis, by downward recursion in the
    number of blocks (every proper coarsening has strictly fewer)."""
    return _psi_inverse(t, {})


def _psi_inverse(s: PForest, memo: dict) -> LinComb:
    """`psi_inverse` of s, each coarsening's inverse computed once per call
    and kept in memo."""
    if s not in memo:
        out = unit(s)
        for c, coeff in psi_map(s).items():
            if c != s:
                out.iadd_scaled(-coeff, _psi_inverse(c, memo))
        memo[s] = out
    return memo[s]
