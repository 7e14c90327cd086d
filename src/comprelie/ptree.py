"""Decorated partitioned rooted trees and forests.

Data model (immutable nested tuples, usable directly as LinComb keys):

* decoration ``Dec = (counter, label)`` — a nonnegative integer counter and a
  string label;
* ``Node = (Dec, Blocks)`` — a vertex together with its child blocks;
* ``Block = tuple[Node, ...]`` — a nonempty group of sibling vertices;
* ``PForest = Blocks = tuple[Block, ...]`` — the top-level (root) blocks.

A forest and the children of a vertex are the same ``Blocks`` type, so
every walk below is one recursion on a block tuple whose first call is the
forest itself.

A *partitioned tree* is a PForest with at most one root block (the empty
forest ``EMPTY`` counts).  Vertices in one block are required to be siblings
— all roots, or all children of the same vertex — which the shape enforces
by construction.  A *plain* forest is one where every block is a singleton,
i.e. an ordinary decorated rooted forest.

Canonical form: within every block the nodes are sorted by their serialized
string, and every block list (child blocks of a vertex, and the root blocks)
is likewise sorted.  Canonical forests compare equal iff they are equal as
nested tuples, so they serve as basis keys.

Grammar (whitespace-insensitive)::

    pforest := '{' '}' | '{' block (',' block)* '}'
    block   := '[' node (',' node)* ']'
    node    := dec | dec '(' block (',' block)* ')'
    dec     := label | label ':' counter

with ``label`` matching ``LABEL_RE``, [A-Za-z0-9_]+ (word letters too), and
``counter`` a nonnegative integer (omitted when 0).  Examples: ``{[d]}`` is
the single d-vertex; ``{[d([e],[f])]}`` a root with two child blocks;
``{[d([e,f])]}`` a root whose two children share one block; ``{[d,e]}`` two
roots in one block.  ``parse`` reads it in one pass over its tokens with an
explicit stack, so nesting costs it no recursion; the walks below recurse.

Vertex references: a ``VertexRef`` is a tuple of (block_index, node_index)
pairs giving the path from the top level down to a vertex, in canonical
coordinates.  Any surgery (grafting, counter shifts) edits the raw nested
structure at a ref and re-canonicalizes once at the end, since refs do not
survive canonicalization.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product
from typing import Iterator, Optional

Dec = tuple  # (counter: int, label: str)
Node = tuple  # (Dec, Blocks)
Block = tuple  # tuple[Node, ...]
PForest = tuple  # tuple[Block, ...]
VertexRef = tuple  # tuple[(block_idx, node_idx), ...]

EMPTY: PForest = ()

NEW_BLOCK = "*"  # graft target: start a fresh child block


# ---------------------------------------------------------------------------
# Serialization and parsing.
# ---------------------------------------------------------------------------

def ser_dec(dec: Dec) -> str:
    k, d = dec
    return d if k == 0 else "%s:%d" % (d, k)


# The serializers run inside every sort in `canonicalize`, so they are
# memoized; nodes and blocks are immutable tuples.

@lru_cache(maxsize=None)
def ser_node(nd: Node) -> str:
    dec, blocks = nd
    if not blocks:
        return ser_dec(dec)
    return ser_dec(dec) + "(" + ",".join(ser_block(b) for b in blocks) + ")"


@lru_cache(maxsize=None)
def ser_block(block: Block) -> str:
    return "[" + ",".join(ser_node(n) for n in block) + "]"


def serialize(forest: PForest) -> str:
    return "{" + ",".join(ser_block(b) for b in forest) + "}"


class ParseError(ValueError):
    pass


# A tree label or a word letter.
LABEL_RE = re.compile(r"[A-Za-z0-9_]+")

# One token after optional whitespace: a decoration `label[:counter]`, or
# any other single character, which the parser takes as a mark.
_TOKEN_RE = re.compile(r"\s*((%s)(?:\s*:\s*(\d+))?|\S)" % LABEL_RE.pattern)

# What the parser allows after each mark that opens or separates; `x`
# stands for a decoration (no mark is a label character).
_AFTER_OPEN = {"{": "[}", "[": "x", "(": "["}


def parse(text: str) -> PForest:
    """Parse a partitioned forest; the result is canonicalized.

    One pass over the tokens.  `stack` holds the open block lists and
    blocks, alternately, from the root block list down, and `allowed` the
    tokens that may come next, as marks with `x` for a decoration."""
    stack: list[list] = []
    allowed = "{"
    for m in _TOKEN_RE.finditer(text):
        token, label, counter = m.groups()
        tok = "x" if label else token
        if tok not in allowed:
            _unexpected(allowed, m.start(1), text)
        if tok == "x":
            stack[-1].append(((_counter(counter, m.start(3)), label), ()))
            allowed = "(,]"
        elif tok in _AFTER_OPEN:
            stack.append([])
            allowed = _AFTER_OPEN[tok]
        elif tok == ",":
            allowed = "[" if len(stack) % 2 else "x"
        else:
            done = tuple(stack.pop())
            if tok == "}":
                forest, allowed = done, ""
            elif tok == "]":
                stack[-1].append(done)
                allowed = ",}" if len(stack) == 1 else ",)"
            else:
                stack[-1][-1] = (stack[-1][-1][0], done)
                allowed = ",]"
    if allowed:
        _unexpected(allowed, len(text), text)
    return canonicalize(forest)


def _counter(digits: Optional[str], pos: int) -> int:
    """A counter's value; Python refuses to convert a very long digit
    string, which is bad input like any other."""
    try:
        return int(digits or 0)
    except ValueError:
        raise ParseError("counter of %d digits at position %d is too long"
                         % (len(digits), pos)) from None


def _unexpected(allowed: str, pos: int, text: str):
    what = " or ".join("label" if c == "x" else repr(c) for c in allowed)
    raise ParseError("expected %s at position %d in %r"
                     % (what or "end of input", pos, text))


# ---------------------------------------------------------------------------
# Canonical form and basic inspection.
# ---------------------------------------------------------------------------

def canonicalize(forest: PForest) -> PForest:
    """Sort all blocks and block lists by serialized string, bottom-up.
    Memoized level by level, so re-canonicalizing a forest that shares
    subtrees with an earlier one costs only the changed spine."""
    return _canon_blocks(forest)


@lru_cache(maxsize=None)
def _canon_node(nd: Node) -> Node:
    dec, blocks = nd
    return (dec, _canon_blocks(blocks))


@lru_cache(maxsize=None)
def _canon_blocks(blocks) -> PForest:
    fixed = [tuple(sorted((_canon_node(n) for n in b), key=ser_node))
             for b in blocks if b]
    return tuple(sorted(fixed, key=ser_block))


def nvertices(forest: PForest) -> int:
    return sum(1 + nvertices(nd[1]) for b in forest for nd in b)


def counter_total(forest: PForest) -> int:
    return sum(nd[0][0] + counter_total(nd[1]) for b in forest for nd in b)


def vertices(forest: PForest) -> list[tuple[VertexRef, Node]]:
    """All (ref, node) pairs in depth-first order."""
    out: list[tuple[VertexRef, Node]] = []
    _walk((), forest, out)
    return out


# Tree walks recurse through private module-level functions like this one,
# not through nested closures: a closure that calls itself is a reference
# cycle, which leaves its cells (the ideal, the output lists) to the cyclic
# garbage collector.
def _walk(prefix: VertexRef, blocks, out: list) -> None:
    for bi, b in enumerate(blocks):
        for ni, nd in enumerate(b):
            out.append((prefix + ((bi, ni),), nd))
            _walk(out[-1][0], nd[1], out)


def is_partitioned_tree(forest: PForest) -> bool:
    """At most one root block (the empty forest qualifies)."""
    return len(forest) <= 1


def is_plain(forest: PForest) -> bool:
    """Every block (at all levels) is a singleton."""
    return all(len(b) == 1 and is_plain(b[0][1]) for b in forest)


def is_one_rooted(forest: PForest) -> bool:
    """Exactly one root block containing exactly one vertex."""
    return len(forest) == 1 and len(forest[0]) == 1


# ---------------------------------------------------------------------------
# Structure maps between basis families.
# ---------------------------------------------------------------------------

def drop_counters(forest: PForest) -> PForest:
    return canonicalize(_uncounted(forest))


def _uncounted(blocks) -> PForest:
    return tuple(tuple(((0, d), _uncounted(kids)) for (_, d), kids in b)
                 for b in blocks)


def forget_blocks(forest: PForest) -> PForest:
    """Split every block into singletons (partitioned -> plain forest)."""
    return canonicalize(_singletons(forest))


def _singletons(blocks) -> PForest:
    return tuple(((dec, _singletons(kids)),) for b in blocks
                 for dec, kids in b)


def mul_merge(a: PForest, b: PForest) -> PForest:
    """Product merging all root blocks into one (partitioned-tree product)."""
    nodes = tuple(n for blk in a for n in blk) + tuple(n for blk in b for n in blk)
    if not nodes:
        return EMPTY
    return canonicalize((nodes,))


def mul_disjoint(a: PForest, b: PForest) -> PForest:
    """Disjoint-union product (plain forests)."""
    return canonicalize(a + b)


def build_root(label: str, trees: tuple, counter: int = 0) -> PForest:
    """One new root over the given partitioned trees.

    Each nonempty argument tree contributes its root block as one child
    block of the new vertex; the empty forest contributes nothing.
    """
    blocks = []
    for t in trees:
        for blk in t:
            blocks.append(blk)
    root: Node = ((counter, label), tuple(blocks))
    return canonicalize(((root,),))


# ---------------------------------------------------------------------------
# Surgery: grafting and counter shifts at a ref in canonical coordinates,
# giving canonical output (or None when a counter would go negative — the
# Zero sentinel absorbed by LinComb).  `ucp` and `dual` sum over `grafts`.
# ---------------------------------------------------------------------------

def _edit_at(blocks, ref: VertexRef, fn) -> PForest:
    """Rebuild `blocks` with fn applied to the node at `ref` (raw, no sort)."""
    (bi, ni), rest = ref[0], ref[1:]
    blk = blocks[bi]
    nd = blk[ni]
    new = (nd[0], _edit_at(nd[1], rest, fn)) if rest else fn(nd)
    return blocks[:bi] + (blk[:ni] + (new,) + blk[ni + 1:],) + blocks[bi + 1:]


class _Negative(Exception):
    pass


def graft_shift(forest: PForest, ref: VertexRef, target, graft: PForest,
                dk: int = 0) -> Optional[PForest]:
    """Graft the roots of `graft` under the vertex at `ref`, and shift that
    vertex's counter by dk, in one edit.

    `target` is NEW_BLOCK to open a fresh child block, or the index of an
    existing child block to join.  Returns None when the shifted counter
    would be negative.  (Single edit + single canonicalization: refs become
    stale once the result is sorted.)
    """
    new_nodes = tuple(n for blk in graft for n in blk)

    def fn(nd: Node) -> Node:
        (k, d), blocks = nd
        k += dk
        if k < 0:
            raise _Negative
        if new_nodes:
            if target == NEW_BLOCK:
                blocks = blocks + (new_nodes,)
            else:
                blocks = (blocks[:target] + (blocks[target] + new_nodes,)
                          + blocks[target + 1:])
        return ((k, d), blocks)

    try:
        return canonicalize(_edit_at(forest, ref, fn))
    except _Negative:
        return None


def grafts(forest: PForest, graft: PForest, existing: bool = False,
           dk: int = 0) -> Iterator[Optional[PForest]]:
    """`graft_shift` at every vertex of `forest`: to a new child block, and
    with `existing` also into each of the vertex's child blocks."""
    for ref, (_, blocks) in vertices(forest):
        for target in [NEW_BLOCK, *range(len(blocks) if existing else 0)]:
            yield graft_shift(forest, ref, target, graft, dk)


# ---------------------------------------------------------------------------
# Ideals (leafward-closed vertex sets) and the coproduct split.
# ---------------------------------------------------------------------------

def ideals(forest: PForest) -> list[frozenset]:
    """All vertex sets closed under taking children, as frozensets of refs,
    the empty and the full set included.  Under each vertex, either its
    whole subtree is in the ideal, or the vertex is out and each child
    chooses on its own: the work follows the ideals, not the 2^n subsets."""
    return _ideals((), forest)


def _ideals(prefix: VertexRef, blocks) -> list[frozenset]:
    # The last ideal of every list is the full vertex set.
    out = [frozenset()]
    for bi, b in enumerate(blocks):
        for ni, (_, kids) in enumerate(b):
            ref = prefix + ((bi, ni),)
            below = _ideals(ref, kids)
            below.append(below[-1] | {ref})
            out = [a | c for a in out for c in below]
    return out


def split_ideal(forest: PForest, ideal: frozenset, bump: bool = True
                ) -> tuple[PForest, tuple]:
    """Cut away the subtrees spanned by `ideal`.

    Returns (trunk, pruned): `trunk` is the canonical forest on the
    complement, and `pruned` the tuple of removed subtree root nodes (each a
    full canonical subtree).  With bump=True, every remaining vertex has its
    counter increased by the number of its child blocks that vanished whole
    into the ideal; partially removed blocks just shrink and do not count.
    """
    pruned: list[Node] = []
    return canonicalize(_cut((), forest, ideal, bump, pruned)), tuple(pruned)


def _cut(ref: VertexRef, blocks, ideal: frozenset, bump: bool,
         pruned: list) -> PForest:
    out = []
    for bi, block in enumerate(blocks):
        kept = []
        for ni, nd in enumerate(block):
            r = ref + ((bi, ni),)
            if r in ideal:
                pruned.append(nd)
                continue
            (k, d), kids = nd
            sub = _cut(r, kids, ideal, bump, pruned)
            if bump:
                k += len(kids) - len(sub)
            kept.append(((k, d), sub))
        if kept:
            out.append(tuple(kept))
    return tuple(out)


# ---------------------------------------------------------------------------
# General restriction (arbitrary vertex subsets; orphaned groups float to
# the top as new root blocks).
# ---------------------------------------------------------------------------

def restrict(forest: PForest, keep: frozenset) -> PForest:
    """Sub-forest on `keep`: direct edges survive, same-block stays
    same-block, and vertices whose parent is gone become roots (one floated
    root block per surviving part of a block)."""
    floated: list[Block] = []
    return canonicalize(_kept((), forest, keep, floated) + tuple(floated))


def _kept(ref: VertexRef, blocks, keep: frozenset, floated: list) -> PForest:
    out = []
    for bi, block in enumerate(blocks):
        members = []
        for ni, (dec, kids) in enumerate(block):
            r = ref + ((bi, ni),)
            sub = _kept(r, kids, keep, floated)
            if r in keep:
                members.append((dec, sub))
            else:
                floated.extend(sub)
        if members:
            out.append(tuple(members))
    return tuple(out)


def varsigma(tree: PForest) -> int:
    """Number of singleton child blocks of the root (one-rooted trees)."""
    assert is_one_rooted(tree), serialize(tree)
    return sum(1 for b in tree[0][0][1] if len(b) == 1)


# ---------------------------------------------------------------------------
# Coarsenings (block merges), over the set partitions of each block list,
# and admissible partitions, grown piece by piece from the roots down.
# ---------------------------------------------------------------------------

def set_partitions(items: list) -> Iterator[list[list]]:
    """All set partitions of `items` (standard element-by-element
    recursion); `coarsenings` merges a block list along each of them."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def coarsenings(forest: PForest) -> list[PForest]:
    """All forests obtained by merging sibling blocks, with multiplicity.

    Every vertex's child-block list (and the root block list) is merged
    along a set partition of its positions, independently and recursively.
    The returned list repeats a canonical form once per labeled choice, so
    summing over it gives the right multiplicities.
    """
    return [canonicalize(bl) for bl in _merged_blocks(forest)]


def _merged_blocks(blocks) -> list[tuple]:
    """Every merge of the block list `blocks` along a set partition of its
    positions, each vertex's child blocks merged the same way first."""
    per_block = []
    for block in blocks:
        choices = [[(dec, bl) for bl in _merged_blocks(kids)]
                   for dec, kids in block]
        per_block.append([tuple(c) for c in product(*choices)])
    out = []
    for combo in product(*per_block):
        for parts in set_partitions(list(range(len(combo)))):
            merged = tuple(tuple(n for i in grp for n in combo[i])
                           for grp in parts)
            out.append(merged)
    return out


def admissible_partitions(tree: PForest) -> list[list[frozenset]]:
    """Vertex-set partitions all of whose pieces restrict to one-rooted
    trees with no singleton child block at their root.

    The pieces grow top-down: every root heads a piece, and every other
    vertex either heads a new piece or joins its parent's.  A head keeps 0
    or at least 2 children of each of its child blocks in its piece; a
    vertex that joined may keep any of its children.  A subtree is only
    enumerated in a mode its parent can use, so past a factor of two the
    work follows the partitions returned, not the Bell(n) set partitions.
    """
    out = [()]
    for bi, b in enumerate(tree):
        for ni, (_, kids) in enumerate(b):
            h, _ = _grow_pieces(((bi, ni),), kids, False)
            out = [p + rest + (frozenset(own),) for p in out for own, rest in h]
    return [list(p) for p in out]


def _grow_pieces(ref: VertexRef, kids, joins: bool):
    """The partitions of the subtree at `ref`, each a pair (refs of the
    piece that holds `ref`, the other pieces): first where `ref` heads its
    piece, then, if `joins`, where it joins its parent's."""
    heads = [((ref,), ())]
    joined = heads if joins else []
    for bi, b in enumerate(kids):
        # ways[j]: choices for the block so far with j of its vertices in
        # this piece, j = 2 standing for two or more
        ways: list[list] = [[((), ())], [], []]
        for ni, (_, sub) in enumerate(b):
            h, m = _grow_pieces(ref + ((bi, ni),), sub, joins or len(b) > 1)
            h = [((), rest + (frozenset(own),)) for own, rest in h]
            ways = [_pairs(ways[0], h),
                    _pairs(ways[0], m) + _pairs(ways[1], h),
                    _pairs(ways[1], m) + _pairs(ways[2], h + m)]
        heads = _pairs(heads, ways[0] + ways[2])
        if joins:
            joined = _pairs(joined, ways[0] + ways[1] + ways[2])
    return heads, joined


def _pairs(xs: list, ys: list) -> list:
    """Every pair of an x and a y, joined componentwise."""
    return [(a + c, b + d) for a, b in xs for c, d in ys]


def generator_label(piece: PForest) -> str:
    """The vertex label `contract` gives a piece shaped like `piece`."""
    return "<" + serialize(piece) + ">"


def contract(tree: PForest, partition: list[frozenset]) -> PForest:
    """Collapse each piece of a vertex partition to a single vertex.

    The result is a plain forest whose vertex labels are the pieces'
    `generator_label`s (of their restrictions), and whose edges are
    induced: piece P sits under piece Q when the parent of P's minimal
    vertex lies in Q.  Pieces must each have a unique minimal vertex (as
    admissible ones do).
    """
    piece_of = {}
    for i, piece in enumerate(partition):
        for r in piece:
            piece_of[r] = i
    labels = [generator_label(restrict(tree, piece)) for piece in partition]
    # minimal vertex of a piece = the one whose parent ref is outside it
    parents = {}
    for i, piece in enumerate(partition):
        roots = [r for r in piece
                 if len(r) == 1 or r[:-1] not in piece]
        assert len(roots) == 1, "piece is not one-rooted"
        r = roots[0]
        parents[i] = piece_of[r[:-1]] if len(r) > 1 else None

    children: dict = {i: [] for i in range(len(partition))}
    top = []
    for i, par in parents.items():
        if par is None:
            top.append(i)
        else:
            children[par].append(i)

    return canonicalize(tuple((_piece_node(i, labels, children),)
                              for i in top))


def _piece_node(i: int, labels: list, children: dict) -> Node:
    """Piece i of a contraction as a vertex, the pieces under it as its
    singleton child blocks."""
    return ((0, labels[i]), tuple((_piece_node(j, labels, children),)
                                  for j in children[i]))


# ---------------------------------------------------------------------------
# Enumeration.  Vertex decorations come from a weighted alphabet of
# ((counter, label), weight) pairs; the size of a tree is the total weight
# of its decorations.  The `enum_*` functions give every decoration weight
# 1, so size is the vertex count, and take every counter 0..cap (0 by
# default); `dual.weighted_forests` weighs each generator label of `theta`
# by the vertex count of its generator.  Each family is built size
# by size as multisets over the canonically sorted smaller families, so it
# comes out canonical and needs no dedup pass.  `_multisets` steps through a
# table of the next item that still fits, so past building that table its
# cost follows the multisets it yields, not items times recursion depth.
# ---------------------------------------------------------------------------

def _multisets(items: list, sizes: list[int], total: int):
    """Multisets (as index-sorted tuples) of `items` with sizes >= 1 summing
    to `total`, in lexicographic order of their index tuples.  items must be
    sorted in canonical order."""
    n = len(items)
    # fits[t][i]: the least index j >= i with sizes[j] <= t, else n.  The
    # items are in canonical order, not by size, so without this table
    # every level of the recursion would scan all remaining items.
    fits = []
    for t in range(total + 1):
        row = [n] * (n + 1)
        for i in range(n - 1, -1, -1):
            row[i] = i if sizes[i] <= t else row[i + 1]
        fits.append(row)
    return _grow_multisets(items, sizes, fits, total, 0)


def _grow_multisets(items: list, sizes: list[int], fits: list, total: int,
                    i: int):
    """The multisets of `_multisets` that sum to `total` and draw only
    items from index i on."""
    if total == 0:
        yield ()
        return
    row = fits[total]
    i = row[i]
    while i < len(items):
        for rest in _grow_multisets(items, sizes, fits, total - sizes[i], i):
            yield (items[i],) + rest
        i = row[i + 1]


class _Enum:
    """Memoized enumerator for one weighted alphabet."""

    def __init__(self, alphabet: tuple[tuple[Dec, int], ...]):
        self.alphabet = tuple(alphabet)
        self._nodes: dict[int, list[Node]] = {}
        self._blocks: dict[int, list[Block]] = {}
        self._plain: dict[int, list[Node]] = {}

    def _rooted(self, m: int, below) -> list[Node]:
        """Canonical nodes of size m: a decoration of weight w over each
        block list of size m - w that `below` gives, built once per weight."""
        weights = sorted({w for _, w in self.alphabet if w <= m})
        lists = {w: below(m - w) for w in weights}
        out = [(d, bl) for d, w in self.alphabet if w <= m
               for bl in lists[w]]
        return sorted(out, key=ser_node)

    @staticmethod
    def _bags(layer, m: int, key) -> list[tuple]:
        """Multisets of items of `layer(1..m)` with sizes summing to m,
        each a tuple in `key` order."""
        pairs = sorted(((x, q) for q in range(1, m + 1) for x in layer(q)),
                       key=lambda p: key(p[0]))
        return list(_multisets([x for x, _ in pairs],
                               [q for _, q in pairs], m))

    def nodes(self, m: int) -> list[Node]:
        """Canonical nodes (vertex + child blocks) of size m."""
        if m not in self._nodes:
            self._nodes[m] = self._rooted(m, self.blocklists)
        return self._nodes[m]

    def blocks(self, p: int) -> list[Block]:
        """Canonical nonempty blocks of size p >= 1."""
        if p not in self._blocks:
            self._blocks[p] = sorted(self._bags(self.nodes, p, ser_node),
                                     key=ser_block)
        return self._blocks[p]

    def blocklists(self, m: int) -> list[PForest]:
        """Canonical block lists of size m (m=0 gives ())."""
        return self._bags(self.blocks, m, ser_block)

    def plain_nodes(self, m: int) -> list[Node]:
        """Plain rooted trees (all blocks singleton) of size m."""
        if m not in self._plain:
            self._plain[m] = self._rooted(m, self.plain_forests)
        return self._plain[m]

    def plain_forests(self, m: int) -> list[PForest]:
        """Plain rooted forests of size m (m=0 gives ())."""
        return [tuple(sorted(((nd,) for nd in ms), key=ser_block))
                for ms in self._bags(self.plain_nodes, m, ser_node)]


_ENUMS: dict[tuple, _Enum] = {}


def _enum(alphabet) -> _Enum:
    """The shared enumerator of a weighted alphabet."""
    key = tuple(sorted(alphabet))
    if key not in _ENUMS:
        _ENUMS[key] = _Enum(key)
    return _ENUMS[key]


def _unit_enum(labels, cap: int = 0) -> _Enum:
    """The shared enumerator of the labels with every counter 0..cap, each
    decoration of weight 1."""
    return _enum(((k, d), 1) for d in labels for k in range(cap + 1))


def enum_partitioned(n: int, labels, cap: int = 0) -> list[PForest]:
    """Partitioned trees (single root block) with n vertices, counters
    0..cap."""
    if n == 0:
        return [EMPTY]
    return [(b,) for b in _unit_enum(labels, cap).blocks(n)]


def enum_plain_trees(n: int, labels) -> list[PForest]:
    """Plain rooted trees with n vertices (each its own singleton block)."""
    if n == 0:
        return [EMPTY]
    return [((nd,),) for nd in _unit_enum(labels).plain_nodes(n)]


def enum_plain_forests(n: int, labels) -> list[PForest]:
    """Plain rooted forests with n vertices."""
    return _unit_enum(labels).plain_forests(n)


def enum_one_rooted(n: int, labels, cap: int = 0) -> list[PForest]:
    """Partitioned trees whose root block is a singleton, n vertices,
    counters 0..cap."""
    if n == 0:
        return []
    return [((nd,),) for nd in _unit_enum(labels, cap).nodes(n)]
