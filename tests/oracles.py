"""Slow independent implementations that gate the fast ones in `src/`.

Each recomputes a map the package computes in closed form, the long way
round; the tests compare the two.

* ``ucp_bullet_loop``, ``cp_bullet_loop``, ``hck_bullet_loop``,
  ``diamond_loop``, ``cp_bullet_with_map_loop`` and ``delta_root_loop``,
  one loop over the vertices (or the root's blocks) each, gate the sums
  over ``ptree.grafts`` in ``ucp`` and ``dual`` and ``dual.delta_root``;
* ``counter_elimination_recursive`` gates ``ucp.counter_elimination``;
* ``kernel_delta_dim_reference``, one ``delta_perm`` row per tree of the
  slice, gates the class-by-class ``ucp.kernel_delta_dim``, and
  ``kernel_delta_series``, the generating-function identity dim Ker δ_n =
  [xⁿ] A₊(x) · Π_k (1 − x^k)^(a_k), gates it where no rank can reach;
* ``cm_delta_oracle`` gates ``ucp.cm_delta_closed``;
* ``bullet_tvf_shuffles`` gates ``shuffle.bullet_tvf``;
* ``bullet_varpi`` (over all ``splits``) gates ``shuffle.bullet_varpi``
  and the two products built on it;
* ``dense_rref``/``dense_nullspace``/``dense_solve``, Gauss-Jordan on
  lists of Fractions, gate the sparse kernel of ``linalg``;
* ``add_term_reference``, ``lincomb_reference``,
  ``iadd_scaled_reference``, ``map_linear_reference``,
  ``bilinear_extend_reference`` and ``tensor_reference``, which add one
  term at a time, gate the accumulation kernel of ``lincomb``;
* ``iter_reduced``, the iterated reduced coproduct over m-tuples, and
  ``psi_reference``, ``varpi_reference`` and ``F_reference``, which sum
  over its tuples (varpi through ``omega_inverse_reference``, the whole
  inverse of omega), gate the first-leg recursions and the letter columns
  of ``rigidity``;
* ``multisets_brute_force`` gates ``ptree._multisets``; ``with_counters``,
  every counter assignment 0..cap on a tree, gates the counterful
  enumeration (``cap``) of ``ptree.enum_partitioned`` and
  ``ptree.enum_one_rooted``;
* ``parse_reference``, the recursive-descent parser, gates ``ptree.parse``;
  ``coarsens_to``, membership in ``ptree.coarsenings``, is the order of
  sibling-block merges that the coarsening tests check;
* ``ideals_brute_force``, the filter of all 2^n vertex sets, gates
  ``ptree.ideals``; ``admissible_partitions_brute_force``, the filter of
  all Bell(n) set partitions, gates ``ptree.admissible_partitions``;
  ``n_ideals``, ``n_cut_terms`` and ``n_admissible`` count the ideals,
  the distinct terms of a cutting coproduct and the admissible partitions
  straight from their definitions, and gate the sizes of the coproducts
  and of ``dual.theta``;
* ``LAW_DEFECTS``, each law's defect computed on LinComb arguments with a
  fresh LinComb for every product and difference, gates the key-level
  law kernels of ``axioms``.

The tensor-leg helpers at the end reassociate and permute tensor keys for
the coassociativity and cocommutativity tests.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import Callable, Iterator, Mapping, Sequence

from hypothesis import strategies as st

from comprelie import linalg
from comprelie.lincomb import LinComb, bilinear_extend, tensor, unit
from comprelie.oudom import Extension
from comprelie.ptree import (
    EMPTY, NEW_BLOCK, Block, Node, ParseError, PForest, _multisets,
    build_root, canonicalize, coarsenings, enum_partitioned, forget_blocks,
    graft_shift, is_one_rooted, is_partitioned_tree, nvertices, restrict,
    serialize, set_partitions, varsigma, vertices,
)
from comprelie.shuffle import (
    EndoV, Varpi, Word, apply_endo, shuffle, words_of_length,
)
from comprelie.ucp import (
    _power_map, cm_x, coproduct_hck, delta_perm, mul_disjoint_lc,
    mul_merge_lc,
)


# ---------------------------------------------------------------------------
# LinComb arithmetic one term at a time: every sum goes through
# add_term_reference, which reads the old coefficient (0 when absent), adds
# and stores or drops the result.
# ---------------------------------------------------------------------------

def add_term_reference(out: LinComb, key, coeff) -> None:
    """out += coeff * key, pruning zeros."""
    if coeff == 0:
        return
    c = out.get(key, 0) + coeff
    if c == 0:
        out.pop(key, None)
    else:
        out[key] = c


def lincomb_reference(pairs) -> LinComb:
    """The LinComb of (key, coefficient) pairs, repeats added up."""
    out = LinComb()
    for k, c in pairs:
        add_term_reference(out, k, c)
    return out


def iadd_scaled_reference(out: LinComb, coeff, other: LinComb) -> LinComb:
    if coeff != 0:
        for k, c in other.items():
            add_term_reference(out, k, coeff * c)
    return out


def map_linear_reference(x: LinComb, f: Callable) -> LinComb:
    out = LinComb()
    for k, c in x.items():
        iadd_scaled_reference(out, c, f(k))
    return out


def bilinear_extend_reference(op: Callable, a: LinComb,
                              b: LinComb) -> LinComb:
    out = LinComb()
    for ka, ca in a.items():
        for kb, cb in b.items():
            iadd_scaled_reference(out, ca * cb, op(ka, kb))
    return out


def tensor_reference(*factors: LinComb) -> LinComb:
    out = lincomb_reference([((), 1)])
    for f in factors:
        if not f:
            return LinComb()
        out = lincomb_reference((ks + (k,), c * cf)
                                for ks, c in out.items()
                                for k, cf in f.items())
    return out


# ---------------------------------------------------------------------------
# Dense Gauss-Jordan elimination.  Matrices are lists of lists.
# ---------------------------------------------------------------------------

def dense_rref(m: Sequence[Sequence]) -> tuple[list[list[Fraction]],
                                               list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    a = [[Fraction(c) for c in row] for row in m]
    if not a:
        return a, []
    nrows, ncols = len(a), len(a[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col]
        a[r] = [c * inv for c in a[r]]
        for i in range(nrows):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return a, pivots


def dense_nullspace(m: Sequence[Sequence]) -> list[list[Fraction]]:
    """Basis of the right kernel {x : m x = 0}, one vector per free column."""
    if not m:
        return []
    ncols = len(m[0])
    a, pivots = dense_rref(m)
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][j]
        basis.append(v)
    return basis


def dense_solve(m: Sequence[Sequence], b: Sequence) -> list[Fraction] | None:
    """One solution of m x = b with free variables 0, or None if
    inconsistent."""
    if not m:
        return [] if all(c == 0 for c in b) else None
    ncols = len(m[0])
    a, pivots = dense_rref([list(row) + [bi] for row, bi in zip(m, b)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = a[r][ncols]
    return x


# ---------------------------------------------------------------------------
# Weighted multisets by brute force.
# ---------------------------------------------------------------------------

def multisets_brute_force(items: list, sizes: list[int], total: int) -> list:
    """Every multiset of `items` whose sizes (all >= 1) sum to `total`, as a
    tuple of items in index order, sorted by its tuple of indices: all
    index tuples of each length, filtered by their size sum."""
    found = [ix for r in range(total + 1)
             for ix in combinations_with_replacement(range(len(items)), r)
             if sum(sizes[i] for i in ix) == total]
    return [tuple(items[i] for i in ix) for ix in sorted(found)]


def with_counters(forest: PForest, cap: int) -> list[PForest]:
    """All ways to set each vertex counter to 0..cap, canonicalized."""
    def raw(blocks, it):
        return tuple(tuple(((k + next(it), lab), raw(kids, it))
                           for (k, lab), kids in b) for b in blocks)

    out = set()
    for combo in product(range(cap + 1), repeat=nvertices(forest)):
        out.add(canonicalize(raw(forest, iter(combo))))
    return sorted(out, key=serialize)


# ---------------------------------------------------------------------------
# The tree grammar by recursive descent.
# ---------------------------------------------------------------------------

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+")
_NAT_RE = re.compile(r"\d+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError("expected %r at position %d in %r"
                             % (ch, self.pos, self.text))
        self.pos += 1

    def label(self) -> str:
        self.skip_ws()
        m = _LABEL_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("expected label at position %d in %r"
                             % (self.pos, self.text))
        self.pos = m.end()
        return m.group()

    def nat(self) -> int:
        self.skip_ws()
        m = _NAT_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("expected counter at position %d in %r"
                             % (self.pos, self.text))
        self.pos = m.end()
        return int(m.group())

    def node(self) -> Node:
        d = self.label()
        k = 0
        if self.peek() == ":":
            self.pos += 1
            k = self.nat()
        blocks = ()
        if self.peek() == "(":
            self.pos += 1
            bs = [self.block()]
            while self.peek() == ",":
                self.pos += 1
                bs.append(self.block())
            self.expect(")")
            blocks = tuple(bs)
        return ((k, d), blocks)

    def block(self) -> Block:
        self.expect("[")
        ns = [self.node()]
        while self.peek() == ",":
            self.pos += 1
            ns.append(self.node())
        self.expect("]")
        return tuple(ns)

    def pforest(self) -> PForest:
        self.expect("{")
        if self.peek() == "}":
            self.pos += 1
            return EMPTY
        bs = [self.block()]
        while self.peek() == ",":
            self.pos += 1
            bs.append(self.block())
        self.expect("}")
        return tuple(bs)


def parse_outcome(parser: Callable, text: str):
    """What `parser` makes of `text`: the forest, or ParseError."""
    try:
        return parser(text)
    except ParseError:
        return ParseError


def parse_reference(text: str) -> PForest:
    """`ptree.parse` by recursive descent, one method per grammar rule."""
    p = _Parser(text)
    f = p.pforest()
    p.skip_ws()
    if p.pos != len(p.text):
        raise ParseError("trailing input at position %d in %r"
                         % (p.pos, p.text))
    return canonicalize(f)


# Parser inputs: strings of grammar characters, and single-character edits
# (delete, insert, replace) of canonical forest texts.
GRAMMAR_CHARS = "{}[](),:de_07 \t"
_FORESTS = ["{}", "{[d]}", "{[e:2([d])]}", "{[d([d([e])])]}",
            "{[d([d:1,e],[e])],[d,e]}"]


@st.composite
def _edited_forest(draw) -> str:
    text = draw(st.sampled_from(_FORESTS))
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from(GRAMMAR_CHARS))
    return draw(st.sampled_from((text[:i] + text[i + 1:],
                                 text[:i] + c + text[i:],
                                 text[:i] + c + text[i + 1:])))


parser_inputs = st.one_of(st.text(GRAMMAR_CHARS, max_size=16),
                          _edited_forest())


def coarsens_to(fine: PForest, coarse: PForest) -> bool:
    """True iff `coarse` arises from `fine` by merging sibling blocks."""
    return coarse in set(coarsenings(fine))


# ---------------------------------------------------------------------------
# Ideals and the sizes of the cutting coproducts and of theta.
# ---------------------------------------------------------------------------

def ideals_brute_force(forest: PForest) -> list[frozenset]:
    """Every vertex set closed under taking children: all 2^n subsets of
    the refs, filtered."""
    verts = vertices(forest)
    refs = [r for r, _ in verts]
    children = {r: [r + ((bi, ni),) for bi, b in enumerate(nd[1])
                    for ni, _ in enumerate(b)]
                for r, nd in verts}
    out = []
    n = len(refs)
    for mask in range(1 << n):
        sub = frozenset(refs[i] for i in range(n) if mask >> i & 1)
        if all(c in sub for r in sub for c in children[r]):
            out.append(sub)
    return out


def n_ideals(forest: PForest) -> int:
    """The number of ideals: under each vertex, either its whole subtree or
    an ideal below each child, the children choosing independently."""
    out = 1
    for block in forest:
        for _, kids in block:
            out *= 1 + n_ideals(kids)
    return out


def _text(counter: int, label: str, blocks: list[list[str]]) -> str:
    """A vertex as text, its child blocks given as lists of vertex texts;
    sorting at every level makes isomorphic subtrees equal text."""
    head = "%s:%d" % (label, counter) if counter else label
    inner = sorted("[" + ",".join(sorted(b)) + "]" for b in blocks)
    return head + ("(" + ",".join(inner) + ")" if inner else "")


def _node_text(nd: Node) -> str:
    (k, label), blocks = nd
    return _text(k, label, [[_node_text(c) for c in b] for b in blocks])


def _cuts(nd: Node, bump: bool) -> list[tuple]:
    """(kept, cut) for every ideal of a vertex's subtree: the text of what
    stays (None when the vertex is cut) and the texts of the subtrees cut
    off.  With bump, a staying vertex's counter grows by its child blocks
    that were cut whole."""
    (k, label), blocks = nd
    out = [(None, (_node_text(nd),))]
    kids = [(bi, _cuts(c, bump)) for bi, b in enumerate(blocks) for c in b]
    for choice in product(*(cuts for _, cuts in kids)):
        kept: list[list[str]] = [[] for _ in blocks]
        cut: list[str] = []
        for (bi, _), (stays, gone) in zip(kids, choice):
            if stays is not None:
                kept[bi].append(stays)
            cut.extend(gone)
        left = [b for b in kept if b]
        bumped = k + (len(blocks) - len(left) if bump else 0)
        out.append((_text(bumped, label, left), tuple(cut)))
    return out


def n_cut_terms(forest: PForest, bump: bool = False) -> int:
    """Distinct terms of a cutting coproduct of a partitioned tree or a
    plain forest: the distinct pairs of (roots that stay, subtrees cut
    off), each a multiset of vertex texts."""
    roots = [nd for b in forest for nd in b]
    terms = set()
    for choice in product(*(_cuts(nd, bump) for nd in roots)):
        stays = tuple(sorted(s for s, _ in choice if s is not None))
        cut = tuple(sorted(x for _, gone in choice for x in gone))
        terms.add((stays, cut))
    return len(terms)


def _pieces(nd: Node) -> tuple[int, int]:
    """(heads, inside): the partitions of a vertex's subtree into pieces
    when the vertex heads its piece, and when it belongs to its parent's."""
    heads = inside = 1
    for block in nd[1]:
        # ways[j]: choices for the block so far with j of its vertices in
        # this vertex's piece, j = 2 standing for two or more
        ways = [1, 0, 0]
        for c in block:
            h, i = _pieces(c)
            ways = [ways[0] * h, ways[0] * i + ways[1] * h,
                    ways[1] * i + ways[2] * (h + i)]
        inside *= sum(ways)
        heads *= ways[0] + ways[2]
    return heads, inside


def admissible_partitions_brute_force(forest: PForest
                                      ) -> list[list[frozenset]]:
    """Every set partition of the refs whose pieces all restrict to
    one-rooted trees with no singleton child block at their root: all
    Bell(n) set partitions, filtered."""
    refs = [r for r, _ in vertices(forest)]
    out = []
    for parts in set_partitions(refs):
        pieces = [frozenset(p) for p in parts]
        if all(is_one_rooted(sub) and varsigma(sub) == 0
               for sub in (restrict(forest, p) for p in pieces)):
            out.append(pieces)
    return out


def n_admissible(forest: PForest) -> int:
    """Partitions of the vertices into admissible pieces: each piece
    connected under one top vertex, and each child block of that top
    vertex keeping none or at least two of its vertices in the piece."""
    out = 1
    for block in forest:
        for nd in block:
            out *= _pieces(nd)[0]
    return out


# ---------------------------------------------------------------------------
# The grafting products and root pruning, each an explicit loop over the
# vertices (or the root's child blocks) of its own.
# ---------------------------------------------------------------------------

def ucp_bullet_loop(t: PForest, u: PForest) -> LinComb:
    out = LinComb()
    for ref, _ in vertices(t):
        if u == EMPTY:
            out.add_term(graft_shift(t, ref, NEW_BLOCK, EMPTY, +1), 1)
        else:
            out.add_term(graft_shift(t, ref, NEW_BLOCK, u), 1)
    return out


def cp_bullet_loop(t: PForest, u: PForest) -> LinComb:
    if u == EMPTY:
        return LinComb(((t, nvertices(t)),))
    out = LinComb()
    for ref, _ in vertices(t):
        out.add_term(graft_shift(t, ref, NEW_BLOCK, u), 1)
    return out


def hck_bullet_loop(f: PForest, g: PForest) -> LinComb:
    if g == EMPTY:
        return LinComb(((f, nvertices(f)),))
    out = LinComb()
    for ref, _ in vertices(f):
        out.add_term(forget_blocks(graft_shift(f, ref, NEW_BLOCK, g)), 1)
    return out


def diamond_loop(t: PForest, u: PForest, dk: int = 0) -> LinComb:
    """`dual.diamond`, and with dk=-1 `dual.diamond_down`."""
    out = LinComb()
    if u == EMPTY:
        return out
    for ref, nd in vertices(t):
        if nd[0][0] + dk < 0:
            continue
        out.add_term(graft_shift(t, ref, NEW_BLOCK, u, dk), 1)
        for bi in range(len(nd[1])):
            out.add_term(graft_shift(t, ref, bi, u, dk), 1)
    return out


def _relabel_at(blocks, ref, label: str):
    """`blocks` with the vertex at `ref` relabeled (raw, not re-sorted)."""
    (bi, ni), rest = ref[0], ref[1:]
    dec, kids = blocks[bi][ni]
    nd = (dec, _relabel_at(kids, rest, label)) if rest else ((dec[0], label),
                                                              kids)
    block = blocks[bi][:ni] + (nd,) + blocks[bi][ni + 1:]
    return blocks[:bi] + (block,) + blocks[bi + 1:]


def cp_bullet_with_map_loop(fmap: Mapping[str, Mapping]) -> Callable:
    """`ucp.cp_bullet_with_map`: grafting the empty forest relabels one
    vertex at a time by its f-image."""
    def bullet(t: PForest, u: PForest) -> LinComb:
        if u != EMPTY:
            return cp_bullet_loop(t, u)
        out = LinComb()
        for ref, nd in vertices(t):
            for e, c in fmap.get(nd[0][1], {}).items():
                out.add_term(canonicalize(_relabel_at(t, ref, e)), c)
        return out
    return bullet


def delta_root_loop(t: PForest) -> LinComb:
    """`dual.delta_root`: prune one singleton child block of the root."""
    dec, blocks = t[0][0]
    out = LinComb()
    for bi, b in enumerate(blocks):
        if len(b) == 1:
            trunk = canonicalize((((dec, blocks[:bi] + blocks[bi + 1:]),),))
            out.add_term((trunk, canonicalize((b,))), 1)
    return out


def kernel_delta_dim_reference(n: int, labels) -> int:
    """`ucp.kernel_delta_dim` over every tree: enumerate the n-vertex
    slice, then rank one `delta_perm` row per tree."""
    trees = enum_partitioned(n, labels)
    return len(trees) - linalg.sparse_rank(delta_perm(t) for t in trees)


def _euler_step(b: list[int], d: list[int], c: list[int]) -> None:
    """Append the next coefficient of c = Euler(b) = Π_k (1 − x^k)^(−b_k),
    the multiset transform, once b is known up to that degree n:
    n·c_n = Σ_{k=1..n} d_k c_{n−k}, with d_k = Σ_{j | k} j·b_j."""
    n = len(c)
    d.append(sum(j * b[j] for j in range(1, n + 1) if n % j == 0))
    c.append(sum(d[k] * c[n - k] for k in range(1, n + 1)) // n)


def kernel_delta_series(n_max: int, n_labels: int) -> list[int]:
    """dim Ker δ_n for n = 1..n_max as [xⁿ] A₊(x) · Π_k (1 − x^k)^(a_k),
    with a_n the n-vertex partitioned trees, no enumeration and no rank.

    a_n is counted by the recursion that builds the trees: nodes(n) =
    |D| · blocklists(n − 1), blocks = Euler(nodes), blocklists =
    Euler(blocks), and a tree is one root block, so a_n = blocks(n).  The
    product is then 1 / Euler(a), the block-list series, and one
    power-series division gives the answer.  O(n²) integer operations."""
    nodes, blocks, lists, d_nodes, d_blocks = [0], [1], [1], [0], [0]
    for n in range(1, n_max + 1):
        nodes.append(n_labels * lists[n - 1])
        _euler_step(nodes, d_nodes, blocks)
        _euler_step(blocks, d_blocks, lists)
    ker = [0]
    for n in range(1, n_max + 1):
        ker.append(blocks[n] - sum(lists[k] * ker[n - k] for k in range(1, n)))
    return ker[1:]


# ---------------------------------------------------------------------------
# Counter elimination by structural recursion through the symmetric-word
# extension.
# ---------------------------------------------------------------------------

def counter_elimination_recursive(fmap: Mapping[str, Mapping]
                                  ) -> Callable[[PForest], LinComb]:
    """`ucp.counter_elimination`, computed by structural recursion: split
    multi-root trees as products, write a one-rooted tree as its root
    grafted with the symmetric word of its child blocks, and push both
    through the quotient.  Quadratically slower than the closed rule; used
    to gate it."""
    bullet = cp_bullet_with_map_loop(fmap)
    ext = Extension(bullet, serialize)
    fpow = _power_map(fmap)
    memo: dict[PForest, LinComb] = {}

    def phi(t: PForest) -> LinComb:
        if t not in memo:
            memo[t] = _compute(t)
        return memo[t]

    def _compute(t: PForest) -> LinComb:
        if t == EMPTY:
            return unit(EMPTY)
        assert is_partitioned_tree(t), serialize(t)
        roots = t[0]
        if len(roots) > 1:
            res = unit(EMPTY)
            for nd in roots:
                res = bilinear_extend(mul_merge_lc, res,
                                      phi(canonicalize(((nd,),))))
            return res
        (k, d), blocks = roots[0]
        x = fpow(k, d).map_keys(lambda e: build_root(e, ()))
        if not blocks:
            return x
        args = [phi(canonicalize((b,))) for b in blocks]
        return ext.apply_flat(x, args)

    return phi


# ---------------------------------------------------------------------------
# The Connes-Moscovici coproduct by an exact re-expansion.
# ---------------------------------------------------------------------------

def _word_multisets(total: int, letters) -> list[tuple[Word, ...]]:
    items: list[Word] = []
    for l in range(1, total + 1):
        items.extend(words_of_length(letters, l))
    items.sort()
    sizes = [len(w) for w in items]
    return list(_multisets(items, sizes, total))


def _monomial_value(words: tuple[Word, ...]) -> LinComb:
    out = unit(EMPTY)
    for w in words:
        out = bilinear_extend(mul_disjoint_lc, out, cm_x(w))
    return out


def cm_delta_oracle(word: Word, letters) -> LinComb:
    """Reduced cogenerator-level coproduct computed the long way round.

    Apply the forest coproduct to X_{word}, re-expand each bidegree in the
    basis of products of X's by an exact linear solve, and keep the terms
    where both legs are a single X.  Must agree with `cm_delta_closed`.
    """
    k = len(word)
    full = cm_x(word).map_linear(coproduct_hck)
    out = LinComb()
    for a in range(1, k):
        sub = LinComb((key, c) for key, c in full.items()
                      if nvertices(key[0]) == a)
        if sub.is_zero():
            continue
        pairs = [(m1, m2)
                 for m1 in _word_multisets(a, letters)
                 for m2 in _word_multisets(k - a, letters)]
        columns = [tensor(_monomial_value(m1), _monomial_value(m2))
                   for m1, m2 in pairs]
        rows = set(sub)
        for col in columns:
            rows.update(col)
        row_list = sorted(rows, key=repr)
        mat = [[col[r] for col in columns] for r in row_list]
        rhs = [sub[r] for r in row_list]
        coeffs = dense_solve(mat, rhs)
        assert coeffs is not None, "coproduct left the span of X-products"
        for (m1, m2), c in zip(pairs, coeffs):
            if c != 0 and len(m1) == 1 and len(m2) == 1:
                out.add_term((m1[0], m2[0]), c)
    return out


# ---------------------------------------------------------------------------
# The degree-0 word product, shuffle by shuffle.
# ---------------------------------------------------------------------------

def shuffle_permutations(k: int, l: int):
    """(k,l)-shuffles as (positions, m_k): `positions` lists where the
    first word's letters land (increasing), and m_k is the length of the
    initial run positions[0..m-1] == 0..m-1."""
    for pos in combinations(range(k + l), k):
        m = 0
        while m < k and pos[m] == m:
            m += 1
        yield pos, m


def bullet_tvf_shuffles(f: EndoV, u: Word, v: Word) -> LinComb:
    """`shuffle.bullet_tvf`, computed shuffle-by-shuffle: sum over
    (k,l)-shuffles sigma and insertion depths i up to the initial fixed run
    of sigma, applying f to the letter in position i of the shuffled word."""
    k, l = len(u), len(v)
    out = LinComb()
    for pos, m in shuffle_permutations(k, l):
        word = [None] * (k + l)
        rest = [p for p in range(k + l) if p not in set(pos)]
        for i, p in enumerate(pos):
            word[p] = u[i]
        for j, p in enumerate(rest):
            word[p] = v[j]
        for i in range(m):
            fx = apply_endo(f, word[i])
            for x, cx in fx.items():
                out.add_term(tuple(word[:i]) + (x,) + tuple(word[i + 1:]), cx)
    return out


def splits(w: Word, parts: int) -> Iterator[tuple]:
    """All ways to cut w into `parts` consecutive (possibly empty) pieces."""
    if parts == 1:
        yield (w,)
        return
    for i in range(len(w) + 1):
        for rest in splits(w[i:], parts - 1):
            yield (w[:i],) + rest


def bullet_varpi(varpi: Varpi, u: Word, v: Word) -> LinComb:
    """`shuffle.bullet_varpi`, summed over every deconcatenation u = u1u2u3,
    v = v1v2, whether or not varpi has a component of that shape."""
    out = LinComb()
    for u1, u2, u3 in splits(u, 3):
        for v1, v2 in splits(v, 2):
            mid = varpi.apply(u2, v1)
            if not mid:
                continue
            sh = shuffle(u3, v2)
            for x, cx in mid.items():
                for w, cw in sh.items():
                    out.add_term(u1 + (x,) + w, cx * cw)
    return out


# ---------------------------------------------------------------------------
# The rigidity maps, summed over the m-tuples of the iterated reduced
# coproduct.  tb is a rigidity.TruncatedBialgebra, iso a rigidity.HopfIso.
# ---------------------------------------------------------------------------

def iter_reduced(tb, k, m: int) -> LinComb:
    """(m−1)-fold iterated reduced coproduct of a key, over m-tuples,
    expanding the last leg each time."""
    if m == 1:
        return LinComb() if k == tb.alg.unit else unit((k,))
    return iter_reduced(tb, k, m - 1).map_linear(
        lambda t: tb.reduced_k(t[-1]).map_keys(lambda p: t[:-1] + p))


def psi_reference(tb, k) -> LinComb:
    """psi(k) = Σ_m (−1)^{m+1}/m · mul^{m−1}(reduced-Δ^{m−1}(k)), each
    tuple multiplied from the left."""
    out = LinComb()
    for m in range(1, tb.deg[k] + 1):
        sign = Fraction((-1) ** (m + 1), m)
        for t, c in iter_reduced(tb, k, m).items():
            term = unit(t[0])
            for leg in t[1:]:
                term = bilinear_extend(tb.mul_k, term, unit(leg))
            out.iadd_scaled(sign * c, term)
    return out


def omega_inverse_reference(om, y, n: int) -> LinComb:
    """The whole word expansion omega⁻¹(y) of a homogeneous degree-n y,
    from every column of the inverse of omega's degree-n images."""
    keys, rows = om._image_rows(n)
    inv = dict(zip(keys, linalg.invert(rows)))
    words = om.words(n)
    out = LinComb()
    for k, c in y.items():
        for i, x in inv[k].items():
            out.add_term(words[i], c * x)
    return out


def varpi_reference(iso, k) -> LinComb:
    """The length-1 part of the whole word expansion omega⁻¹(psi(k)), over
    letters."""
    y = psi_reference(iso.tb, k)
    out = LinComb()
    if y:
        n = iso.tb.deg[k]
        for w, c in omega_inverse_reference(iso.omega, y, n).items():
            if len(w) == 1:
                out.add_term(w[0], c)
    return out


def F_reference(iso, k) -> LinComb:
    """F(k) = Σ_m varpi^{⊗m}(reduced-Δ^{m−1}(k)), over letter words."""
    if k == iso.tb.alg.unit:
        return unit(())
    out = LinComb()
    for m in range(1, iso.tb.deg[k] + 1):
        for t, c in iter_reduced(iso.tb, k, m).items():
            out.iadd_scaled(c, tensor(*map(iso.varpi_k, t)))
    return out


# ---------------------------------------------------------------------------
# The law defects at LinComb arguments, by law name: every product, nested
# product and difference is a LinComb of its own.  Zero iff the law holds on
# the arguments.
# ---------------------------------------------------------------------------

def _commutativity(ops, x, y):
    return ops.mul(x, y) - ops.mul(y, x)


def _associativity(ops, x, y, z):
    return ops.mul(ops.mul(x, y), z) - ops.mul(x, ops.mul(y, z))


def _prelie_identity(ops, x, y, z):
    def assoc_defect(u, v, w):
        return ops.prelie(ops.prelie(u, v), w) - ops.prelie(u, ops.prelie(v, w))

    return assoc_defect(x, y, z) - assoc_defect(x, z, y)


def _leibniz(ops, x, y, z):
    return (ops.prelie(ops.mul(x, y), z)
            - ops.mul(ops.prelie(x, z), y)
            - ops.mul(x, ops.prelie(y, z)))


def _coassociativity(ops, x):
    out = LinComb()
    for (k1, k2), co in ops.cop(x).items():
        for (a, b), ci in ops.cop_k(k1).items():
            out.add_term((a, b, k2), co * ci)
        for (a, b), ci in ops.cop_k(k2).items():
            out.add_term((k1, a, b), -co * ci)
    return out


def _counit_law(ops, x):
    eps = ops.alg.counit
    left = LinComb()
    right = LinComb()
    for (k1, k2), c in ops.cop(x).items():
        left.add_term(k2, c * eps(k1))
        right.add_term(k1, c * eps(k2))
    d = left - x
    return d if d else right - x


def _multiplicativity(ops, x, y):
    lhs = ops.cop(ops.mul(x, y))
    rhs = LinComb()
    for (a1, a2), ca in ops.cop(x).items():
        for (b1, b2), cb in ops.cop(y).items():
            for k1, c1 in ops.mul_k(a1, b1).items():
                for k2, c2 in ops.mul_k(a2, b2).items():
                    rhs.add_term((k1, k2), ca * cb * c1 * c2)
    return lhs - rhs


def _compatibility(ops, x, y):
    lhs = ops.cop(ops.prelie(x, y))
    cx = ops.cop(x)
    rhs = LinComb()
    for (a1, a2), ca in cx.items():
        for kb, cb in y.items():
            for k, c in ops.prelie_k(a2, kb).items():
                rhs.add_term((a1, k), ca * cb * c)
    cy = ops.cop(y)
    for (a1, a2), ca in cx.items():
        for (b1, b2), cb in cy.items():
            for k1, c1 in ops.prelie_k(a1, b1).items():
                for k2, c2 in ops.mul_k(a2, b2).items():
                    rhs.add_term((k1, k2), ca * cb * c1 * c2)
    return lhs - rhs


def _eps_prelie(ops, x, y):
    v = ops.counit(ops.prelie(x, y))
    return LinComb() if v == 0 else LinComb([(("counit of prelie",), v)])


LAW_DEFECTS = {
    "commutativity": _commutativity,
    "associativity": _associativity,
    "prelie": _prelie_identity,
    "leibniz": _leibniz,
    "coassociativity": _coassociativity,
    "counit": _counit_law,
    "multiplicativity": _multiplicativity,
    "compatibility": _compatibility,
    "eps-prelie": _eps_prelie,
}


# ---------------------------------------------------------------------------
# Tensor-leg helpers.
# ---------------------------------------------------------------------------

def tensor_flatten_left(t: LinComb) -> LinComb:
    """Reassociate ((a,b),c) keys to (a,b,c) triples."""
    out = LinComb()
    for ((ka, kb), kc), c in t.items():
        out.add_term((ka, kb, kc), c)
    return out


def tensor_flatten_right(t: LinComb) -> LinComb:
    """Reassociate (a,(b,c)) keys to (a,b,c) triples."""
    out = LinComb()
    for (ka, (kb, kc)), c in t.items():
        out.add_term((ka, kb, kc), c)
    return out


def tensor_swap(t: LinComb) -> LinComb:
    """Flip the two legs of a 2-leg tensor."""
    return t.map_keys(lambda k: (k[1], k[0]))


def tensor_swap23(t: LinComb) -> LinComb:
    """The permutation (23) on a 3-leg tensor: (a,b,c) -> (a,c,b)."""
    return t.map_keys(lambda k: (k[0], k[2], k[1]))
