"""Free unitary Com-PreLie algebra on decorated partitioned rooted trees,
its counter-free quotients, and the Connes-Kreimer Hopf algebra.

Three bases, all canonical ``PForest`` keys from :mod:`comprelie.ptree`:

* ``UCP(D)`` — partitioned trees with counters.  Multiplication merges the
  root blocks; the preLie product ``ucp_bullet`` grafts the right argument
  at every vertex of the left one, opening a new child block each time, and
  grafting the unit bumps one counter per vertex.
* ``CP(D)`` — the counter-free quotient: same trees with all counters zero.
  Grafting the unit multiplies by the vertex count.  More generally, any
  linear decoration map f gives a quotient CP_f along the map
  ``counter_elimination``, which relabels a vertex with counter k and
  decoration d by f^k(d).  The product of CP_f (``cp_bullet_with_map``) is
  the image of UCP's, so grafting the unit applies f to one vertex at a time.
* ``H_CK(D)`` — plain decorated rooted forests with disjoint-union product:
  the further quotient where the block structure under each vertex is
  forgotten.  This is the Connes-Kreimer Hopf algebra of rooted trees.

The coproduct cuts along leafward-closed vertex sets: the pruned subtrees
are multiplied together on the right leg (one merged root block — or a
disjoint union in the plain-forest case) while the trunk stays on the left,
with counters recording how many child blocks vanished whole (UCP only).

Also here: the block-pruning coproduct ``delta_perm`` that removes one whole
child block of one root (a permutative, preLie-compatible coproduct on the
augmentation ideal), and the Connes-Moscovici elements obtained by repeated
grafting of single leaves, with their cogenerator-level reduced coproduct.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping

from .lincomb import LinComb, tensor, unit
from .linalg import sparse_rank
from .ptree import (
    EMPTY,
    PForest,
    build_root,
    canonicalize,
    counter_total,
    enum_partitioned,
    forget_blocks,
    grafts,
    ideals,
    is_partitioned_tree,
    mul_disjoint,
    mul_merge,
    nvertices,
    serialize,
    split_ideal,
)
from .shuffle import Word


# ---------------------------------------------------------------------------
# PreLie products.
# ---------------------------------------------------------------------------

def ucp_bullet(t: PForest, u: PForest) -> LinComb:
    """Graft u at every vertex of t as a fresh child block; grafting the
    empty forest bumps one counter per vertex instead."""
    return LinComb((s, 1) for s in grafts(t, u, dk=int(u == EMPTY)))


def cp_bullet(t: PForest, u: PForest) -> LinComb:
    """Counter-free grafting: t • ∅ = (number of vertices) t."""
    if u == EMPTY:
        return LinComb(((t, nvertices(t)),))
    return LinComb((s, 1) for s in grafts(t, u))


def cp_bullet_with_map(fmap: Mapping[str, Mapping]) -> Callable:
    """Counter-free grafting twisted by a linear decoration map `fmap`
    (label -> mapping label -> coefficient): `ucp_bullet` followed by
    `counter_elimination(fmap)`, so grafting the empty forest applies the
    map to one vertex at a time."""
    phi = counter_elimination(fmap)

    def bullet(t: PForest, u: PForest) -> LinComb:
        return ucp_bullet(t, u).map_linear(phi)
    return bullet


def hck_bullet(f: PForest, g: PForest) -> LinComb:
    """Grafting of plain forests: every root of g becomes a new child of one
    vertex of f (summed over vertices); f • ∅ = (number of vertices) f."""
    if g == EMPTY:
        return LinComb(((f, nvertices(f)),))
    return LinComb((forget_blocks(s), 1) for s in grafts(f, g))


def mul_merge_lc(a: PForest, b: PForest) -> LinComb:
    return unit(mul_merge(a, b))


def mul_disjoint_lc(a: PForest, b: PForest) -> LinComb:
    return unit(mul_disjoint(a, b))


# ---------------------------------------------------------------------------
# Cutting coproducts.
# ---------------------------------------------------------------------------

def _coproduct(forest: PForest, bump: bool, plain: bool) -> LinComb:
    out = LinComb()
    for ideal in ideals(forest):
        trunk, pruned = split_ideal(forest, ideal, bump=bump)
        if plain:
            leg = canonicalize(tuple((nd,) for nd in pruned))
        else:
            leg = canonicalize((pruned,)) if pruned else EMPTY
        out.add_term((trunk, leg), 1)
    return out


def coproduct_ucp(t: PForest) -> LinComb:
    """Cut-and-prune coproduct with counter bumps on the trunk."""
    assert is_partitioned_tree(t), serialize(t)
    return _coproduct(t, bump=True, plain=False)


def coproduct_cp(t: PForest) -> LinComb:
    assert is_partitioned_tree(t), serialize(t)
    return _coproduct(t, bump=False, plain=False)


def coproduct_hck(f: PForest) -> LinComb:
    """Admissible-cut coproduct of plain forests (pruned part on the right)."""
    return _coproduct(f, bump=False, plain=True)


def counit(forest: PForest) -> int:
    return int(forest == EMPTY)


# ---------------------------------------------------------------------------
# Counter elimination along a decoration map.  `fmap` as above; the closed
# per-vertex rule replaces a counter-k vertex decorated d by the linear
# combination f^k(d) of zero-counter vertices.
# ---------------------------------------------------------------------------

def _power_map(fmap: Mapping[str, Mapping]) -> Callable[[int, str], LinComb]:
    memo: dict[tuple[int, str], LinComb] = {}

    def fpow(k: int, d: str) -> LinComb:
        if (k, d) not in memo:
            if k == 0:
                memo[(k, d)] = unit(d)
            else:
                memo[(k, d)] = fpow(k - 1, d).map_linear(
                    lambda e: LinComb(fmap.get(e, {}).items()))
        return memo[(k, d)]

    return fpow


def counter_elimination(fmap: Mapping[str, Mapping]
                        ) -> Callable[[PForest], LinComb]:
    """The algebra map UCP -> counter-free quotient for a decoration map f:
    per vertex, (counter k, label d) becomes f^k(d) with counter zero.

    A counter-free subtree maps to itself, one term, so only the vertices
    on the paths to the counters are expanded; each node's expansion is
    computed once."""
    fpow = _power_map(fmap)

    @lru_cache(maxsize=None)
    def expand_node(nd) -> LinComb:
        (k, d), blocks = nd
        if not k and not counter_total(blocks):
            return unit(nd)
        return tensor(expand_blocks(blocks), fpow(k, d)).map_keys(
            lambda p: ((0, p[1]), p[0]))

    def expand_blocks(blocks) -> LinComb:
        return tensor(*(tensor(*map(expand_node, b)) for b in blocks))

    def phi(t: PForest) -> LinComb:
        if not counter_total(t):  # f^0 is the identity
            return unit(t)
        return expand_blocks(t).map_keys(canonicalize)

    return phi


# ---------------------------------------------------------------------------
# Block-pruning coproduct on nonempty trees: remove one whole child block of
# one root; the removed block, as a partitioned tree, is the right leg.
# ---------------------------------------------------------------------------

def delta_perm(t: PForest) -> LinComb:
    assert is_partitioned_tree(t), serialize(t)
    out = LinComb()
    if t == EMPTY:
        return out
    (roots,) = t
    for ni, nd in enumerate(roots):
        dec, blocks = nd
        for bi, block in enumerate(blocks):
            piece = canonicalize((block,))
            trimmed = (dec, blocks[:bi] + blocks[bi + 1:])
            trunk = canonicalize(
                (roots[:ni] + (trimmed,) + roots[ni + 1:],))
            out.add_term((trunk, piece), 1)
    return out


def kernel_delta_dim(n: int, labels) -> int:
    """Dimension of the kernel of the block-pruning coproduct on the span of
    the n-vertex counter-free partitioned trees."""
    trees = enum_partitioned(n, labels)
    return len(trees) - sparse_rank(delta_perm(t) for t in trees)


# ---------------------------------------------------------------------------
# Connes-Moscovici elements: grow a plain tree by grafting one new leaf at
# every vertex, once per letter of a word.
# ---------------------------------------------------------------------------

def cm_grow(x: LinComb, label: str) -> LinComb:
    leaf = build_root(label, ())
    return x.map_linear(lambda t: hck_bullet(t, leaf))


def cm_x(word: Word) -> LinComb:
    """X_{word}: start from a single vertex decorated by the first letter,
    then graft a leaf for each later letter, everywhere, in order."""
    assert word
    out = unit(build_root(word[0], ()))
    for d in word[1:]:
        out = cm_grow(out, d)
    return out


def cm_delta_closed(word: Word) -> LinComb:
    """Reduced cogenerator-level coproduct of X_{word}, in closed form.

    Keys are pairs of index words (u, v) standing for X_u ⊗ X_v.  A proper
    nonempty subset I of the letter positions contributes the subword at I
    on the left and its complement on the right, with multiplicity the
    longest prefix of positions contained in I (zero terms drop out).
    """
    k = len(word)
    out = LinComb()
    for mask in range(1, (1 << k) - 1):
        m = 0
        while m < k and mask >> m & 1:
            m += 1
        if m == 0:
            continue
        u = tuple(word[i] for i in range(k) if mask >> i & 1)
        v = tuple(word[i] for i in range(k) if not mask >> i & 1)
        out.add_term((u, v), m)
    return out
