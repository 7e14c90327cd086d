from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from comprelie import ptree
from comprelie.handles import get_handle
from comprelie.ptree import (
    EMPTY, NEW_BLOCK, parse, serialize, canonicalize, nvertices, vertices,
    graft_shift, split_ideal, ideals, restrict, varsigma,
    coarsenings, admissible_partitions, contract,
    mul_merge, mul_disjoint, forget_blocks, drop_counters, build_root,
    is_partitioned_tree, is_plain, is_one_rooted, counter_total,
    enum_partitioned, enum_plain_trees, enum_plain_forests, enum_one_rooted,
    set_partitions, ParseError,
)

from oracles import (
    coarsens_to, ideals_brute_force, multisets_brute_force, n_ideals,
    parse_outcome, parse_reference, parser_inputs, with_counters,
)

D1 = ("d",)
D2 = ("d", "e")


# --- parsing / serialization ----------------------------------------------

def test_parse_basics():
    assert parse("{}") == EMPTY
    assert parse("{[d]}") == (((((0, "d")), ()),),)
    assert parse(" { [ d:3 ] } ") == ((((3, "d"), ()),),)
    # canonical order does not depend on input order
    assert parse("{[d([f],[e])]}") == parse("{[d([e],[f])]}")
    assert parse("{[e,d]}") == parse("{[d,e]}")


def test_parse_errors():
    for bad in ("", "{", "{[]}", "{[d]", "{[d]} junk", "[d]", "{[d:]}"):
        with pytest.raises(ParseError):
            parse(bad)


@settings(max_examples=400, deadline=None)
@given(parser_inputs)
def test_parse_matches_reference(text):
    """ParseError exactly when the recursive-descent reference raises it,
    the same forest otherwise, and no other exception."""
    assert parse_outcome(parse, text) == parse_outcome(parse_reference, text)


@pytest.mark.parametrize("text", [
    "{[d,]}", "{[d],}", "{,}", "{[]}", "{[d()]}", "{[d([e]),]}",
    "{[d]]}", "{[d])}", "{[d([e]]}", "{[d:3:4]}", "{[d:]}", "{[:3]}",
    "{[d e]}", "{}}", "{} {}", "{[d]}\n", " { [ d : 3 ( [ e ] ) ] } ",
    "{[d:03,e_1([d],[e]),d]}", "{[d\t([e])]}",
])
def test_parse_matches_reference_at_the_edges(text):
    assert parse_outcome(parse, text) == parse_outcome(parse_reference, text)


def test_parse_error_names_what_was_expected():
    with pytest.raises(ParseError, match=r"expected '\(' or ',' or ']' "
                                         r"at position 6 in"):
        parse("{[d:1 e]}")
    with pytest.raises(ParseError, match="expected end of input at "
                                         "position 6"):
        parse("{[d]} x")
    with pytest.raises(ParseError, match="expected '{' at position 0"):
        parse("")


def test_counter_display():
    t = parse("{[d:2([e])]}")
    assert serialize(t) == "{[d:2([e])]}"
    assert ptree.counter_total(t) == 2
    assert serialize(drop_counters(t)) == "{[d([e])]}"


@given(st.integers(0, 4), st.integers(0, 10000))
def test_roundtrip_enumerated(n, seed):
    trees = enum_partitioned(n, D2)
    t = trees[seed % len(trees)]
    assert parse(serialize(t)) == t
    assert canonicalize(t) == t
    assert nvertices(t) == n


# --- enumeration counts -----------------------------------------------------

def test_partitioned_counts_one_label():
    assert [len(enum_partitioned(n, D1)) for n in range(6)] == [1, 1, 2, 5, 14, 42]


def test_plain_counts():
    assert [len(enum_plain_trees(n, D1)) for n in range(6)] == [1, 1, 1, 2, 4, 9]
    assert [len(enum_plain_forests(n, D1)) for n in range(6)] == [1, 1, 2, 4, 9, 20]


def test_enumeration_is_canonical_and_distinct():
    for n in range(5):
        ts = enum_partitioned(n, D2)
        assert len(set(ts)) == len(ts)
        for t in ts:
            assert canonicalize(t) == t
            assert is_partitioned_tree(t)
    for t in enum_plain_forests(4, D1):
        assert is_plain(t)
    for t in enum_one_rooted(3, D1):
        assert is_one_rooted(t)


def test_one_rooted_are_the_singleton_root_block_trees():
    for n in range(1, 5):
        expect = [t for t in enum_partitioned(n, D2) if is_one_rooted(t)]
        assert enum_one_rooted(n, D2) == expect


# --- enumeration against Euler-transform counts ---------------------------
#
# Counted over an alphabet with weights[w] labels of weight w, sharing no code
# with the enumerators: a node is a label over a block list, a block is a
# nonempty multiset of nodes and a block list a multiset of blocks; a plain
# tree is a label over a plain forest, a multiset of plain trees.

def euler_next(a: list, b: list) -> None:
    """Append b[n], n = len(b), to b = Euler(a): b[n] counts the multisets
    of total size n drawn from a[k] kinds of items of size k."""
    n = len(b)
    c = [sum(d * a[d] for d in range(1, k + 1) if k % d == 0)
         for k in range(n + 1)]
    q, r = divmod(sum(c[k] * b[n - k] for k in range(1, n + 1)), n)
    assert r == 0
    b.append(q)


def euler_counts(weights: list, top: int) -> dict:
    """Sizes 0..top of the four `enum_*` families, by mode name."""
    def rooted(under: list, n: int) -> int:
        return sum(weights[w] * under[n - w]
                   for w in range(1, min(n, len(weights) - 1) + 1))

    nodes, bags, blocks, lists = [0], [1], [0], [1]
    trees, forests = [0], [1]
    for n in range(1, top + 1):
        nodes.append(rooted(lists, n))
        euler_next(nodes, bags)
        blocks.append(bags[n])
        euler_next(blocks, lists)
        trees.append(rooted(forests, n))
        euler_next(trees, forests)
    return {"partitioned": [1] + blocks[1:], "one-rooted": nodes,
            "plain-trees": [1] + trees[1:], "plain-forests": forests}


def generator_weights(labels: int, top: int) -> list:
    """weights[m] = number of free generators with m vertices: one-rooted
    trees with no singleton child block at the root, so a label over a
    multiset of blocks of at least two nodes each."""
    unit = euler_counts([0, labels], top)
    wide = [0] + [unit["partitioned"][p] - unit["one-rooted"][p]
                  for p in range(1, top + 1)]
    rootless = [1]
    for _ in range(top):
        euler_next(wide, rootless)
    return [0] + [labels * rootless[m - 1] for m in range(1, top + 1)]


ENUMS = {"partitioned": enum_partitioned, "one-rooted": enum_one_rooted,
         "plain-trees": enum_plain_trees, "plain-forests": enum_plain_forests}


# Each row pins the literal counts at its top size, which also guards
# `euler_counts`; the higher rows check every size up to n = 9/7/6.
@pytest.mark.parametrize("labels,top,last", [
    (D1, 7, (444, 258, 48, 115)),
    (D2, 6, (5759, 3392, 916, 2058)),
    (("d", "e", "f"), 5, (6465, 3879, 1485, 3144)),
    (D1, 9, (5318, 3049, 286, 719)),
    (D2, 7, (36340, 21294, 4116, 9498)),
    (("d", "e", "f"), 6, (57757, 34200, 9432, 20875)),
])
def test_enum_counts_match_euler_transform(labels, top, last):
    expect = euler_counts([0, len(labels)], top)
    for mode, enum in ENUMS.items():
        got = [len(enum(n, labels)) for n in range(top + 1)]
        assert got == expect[mode], mode
    assert tuple(expect[mode][top] for mode in ENUMS) == last


@pytest.mark.parametrize("labels,top", [(D1, 7), (D2, 5), (D1, 9), (D2, 7)])
def test_weighted_forest_counts_match_euler_transform(labels, top):
    from comprelie.dual import theta_alphabet, weighted_forests
    weights = generator_weights(len(labels), top)
    gens = theta_alphabet(top, labels)
    assert [sum(w == m for _, w in gens) for m in range(top + 1)] == weights
    expect = euler_counts(weights, top)["plain-forests"]
    assert [len(weighted_forests(n, gens)) for n in range(top + 1)] == expect
    # the freeness dimension identity: as many partitioned trees as plain
    # forests over the weighted generator alphabet, size by size
    assert expect == euler_counts([0, len(labels)], top)["partitioned"]
    assert expect == [len(enum_partitioned(n, labels)) for n in range(top + 1)]


@given(st.lists(st.integers(1, 4), max_size=7), st.integers(0, 7))
def test_multisets_match_brute_force(sizes, total):
    # sizes drawn from 1..4 include alphabets with no size-1 item, as the
    # generator alphabets of `dual.weighted_forests` have
    items = [f"x{i}" for i in range(len(sizes))]
    assert list(ptree._multisets(items, sizes, total)) == \
        multisets_brute_force(items, sizes, total)


def test_multisets_edge_cases():
    assert list(ptree._multisets([], [], 0)) == [()]
    assert list(ptree._multisets([], [], 3)) == []
    assert list(ptree._multisets(["a", "b"], [2, 3], 0)) == [()]
    assert list(ptree._multisets(["a", "b"], [2, 3], 1)) == []
    assert list(ptree._multisets(["a", "b", "c"], [3, 2, 2], 6)) == [
        ("a", "a"), ("b", "b", "b"), ("b", "b", "c"), ("b", "c", "c"),
        ("c", "c", "c")]


def test_enumeration_order_is_pinned():
    assert [serialize(t) for t in enum_plain_forests(4, D1)] == [
        "{[d],[d],[d],[d]}", "{[d([d])],[d],[d]}", "{[d([d([d])])],[d]}",
        "{[d([d],[d])],[d]}", "{[d([d([d([d])])])]}", "{[d([d([d])],[d])]}",
        "{[d([d([d],[d])])]}", "{[d([d])],[d([d])]}", "{[d([d],[d],[d])]}"]
    assert [serialize(t) for t in enum_partitioned(3, D2)] == [
        "{[d([d([d])])]}", "{[d([d([e])])]}", "{[d([d,d])]}", "{[d([d,e])]}",
        "{[d([d]),e]}", "{[d([d],[d])]}", "{[d([d],[e])]}", "{[d([e([d])])]}",
        "{[d([e([e])])]}", "{[d([e,e])]}", "{[d([e]),e]}", "{[d([e],[e])]}",
        "{[d,d([d])]}", "{[d,d([e])]}", "{[d,d,d]}", "{[d,d,e]}",
        "{[d,e([d])]}", "{[d,e([e])]}", "{[d,e,e]}", "{[e([d([d])])]}",
        "{[e([d([e])])]}", "{[e([d,d])]}", "{[e([d,e])]}", "{[e([d],[d])]}",
        "{[e([d],[e])]}", "{[e([e([d])])]}", "{[e([e([e])])]}",
        "{[e([e,e])]}", "{[e([e],[e])]}", "{[e,e([d])]}", "{[e,e([e])]}",
        "{[e,e,e]}"]


def test_rooted_builds_each_blocklist_once():
    # labels of one weight share the block lists below them
    en = ptree._Enum((((0, "d"), 1), ((0, "e"), 1)))
    built = Counter()
    blocklists = en.blocklists

    def counting(m):
        built[m] += 1
        return blocklists(m)

    en.blocklists = counting
    en.blocks(6)
    assert built == Counter(range(6))


@pytest.mark.parametrize("labels,cap,top", [(D1, 1, 6), (D1, 2, 5),
                                           (D2, 1, 4), (D2, 2, 4)])
@pytest.mark.parametrize("enum,name", [(enum_partitioned, "ucp"),
                                       (enum_one_rooted, "dual-ucp")])
def test_counter_bases_match_every_counter_assignment(enum, name, labels,
                                                      cap, top):
    basis = get_handle(name, labels, counter_cap=cap).basis
    for n in range(top + 1):
        assert basis(n) == sorted({c for t in enum(n, labels)
                                   for c in with_counters(t, cap)},
                                  key=serialize), n


# --- products ----------------------------------------------------------------

def test_mul_merge():
    a, b = parse("{[d]}"), parse("{[e([f])]}")
    assert serialize(mul_merge(a, b)) == "{[d,e([f])]}"
    assert mul_merge(a, EMPTY) == a
    assert mul_merge(EMPTY, EMPTY) == EMPTY
    # commutative by canonicalization
    assert mul_merge(a, b) == mul_merge(b, a)


def test_mul_disjoint():
    a, b = parse("{[d]}"), parse("{[e]}")
    assert serialize(mul_disjoint(a, b)) == "{[d],[e]}"
    assert mul_disjoint(a, b) == mul_disjoint(b, a)


def test_forget_blocks():
    t = parse("{[d([e,f([g]),h])]}")
    assert serialize(forget_blocks(t)) == "{[d([e],[f([g])],[h])]}"
    assert is_plain(forget_blocks(t))


def test_build_root():
    t1, t2 = parse("{[e]}"), parse("{[f,g]}")
    assert serialize(build_root("d", (t1, t2))) == "{[d([e],[f,g])]}"
    assert serialize(build_root("d", ())) == "{[d]}"
    assert serialize(build_root("d", (EMPTY,))) == "{[d]}"


# --- surgery -----------------------------------------------------------------

def build_ref_map(t):
    return {ptree.ser_dec(nd[0]): r for r, nd in vertices(t)}


def test_graft_goldens():
    tdeux = parse("{[r([l])]}")
    tun = parse("{[m]}")
    refs = build_ref_map(tdeux)
    assert serialize(graft_shift(tdeux, refs["r"], NEW_BLOCK, tun)) == "{[r([l],[m])]}"
    assert serialize(graft_shift(tdeux, refs["r"], 0, tun)) == "{[r([l,m])]}"
    assert serialize(graft_shift(tdeux, refs["l"], NEW_BLOCK, tun)) == "{[r([l([m])])]}"


def test_graft_multi_root():
    # grafting a two-root one-block tree keeps its roots in one block
    t = parse("{[r]}")
    h = parse("{[a,b]}")
    refs = build_ref_map(t)
    assert serialize(graft_shift(t, refs["r"], NEW_BLOCK, h)) == "{[r([a,b])]}"


def test_shift():
    t = parse("{[r([l])]}")
    refs = build_ref_map(t)
    assert serialize(graft_shift(t, refs["l"], NEW_BLOCK, EMPTY, 2)) \
        == "{[r([l:2])]}"
    assert graft_shift(t, refs["l"], NEW_BLOCK, EMPTY, -1) is None
    t2 = parse("{[r:1([l])]}")
    refs2 = build_ref_map(t2)
    assert serialize(graft_shift(t2, refs2["r:1"], NEW_BLOCK, EMPTY, -1)) \
        == "{[r([l])]}"


# --- ideals and splitting ------------------------------------------------------

def test_ideals_chain():
    c3 = parse("{[a([b([c])])]}")
    ids = ideals(c3)
    assert len(ids) == 4
    got = set()
    for I in ids:
        R, P = split_ideal(c3, I)
        got.add((serialize(R), tuple(ptree.ser_node(n) for n in P)))
    assert got == {
        ("{[a([b([c])])]}", ()),
        ("{[a([b:1])]}", ("c",)),
        ("{[a:1]}", ("b([c])",)),
        ("{}", ("a([b([c])])",)),
    }


def test_ideals_partial_block_no_bump():
    # removing part of a block shrinks it without a counter bump
    t = parse("{[a([b,c])]}")
    refs = build_ref_map(t)
    I = frozenset([refs["b"]])
    R, P = split_ideal(t, I)
    assert serialize(R) == "{[a([c])]}"
    assert tuple(ptree.ser_node(n) for n in P) == ("b",)
    # removing the whole block does bump
    R2, P2 = split_ideal(t, frozenset([refs["b"], refs["c"]]))
    assert serialize(R2) == "{[a:1]}"


def test_split_no_bump_mode():
    t = parse("{[a([b])]}")
    refs = build_ref_map(t)
    R, P = split_ideal(t, frozenset([refs["b"]]), bump=False)
    assert serialize(R) == "{[a]}"


def test_ideals_match_brute_force():
    """The subtree recursion finds exactly the children-closed vertex sets,
    each once, on every tree with labels d, e and every plain forest shape
    up to 6 vertices."""
    cases = 0
    for n in range(7):
        for t in enum_partitioned(n, D2) + enum_plain_forests(n, D1):
            got = ideals(t)
            assert len(got) == len(set(got)) == n_ideals(t)
            assert set(got) == set(ideals_brute_force(t))
            cases += 1
    assert cases == 7005


def test_ideal_count_is_antichain_free():
    # every subset of leaves of a corolla is an ideal: corolla with 3 leaves
    t = parse("{[a([b],[c],[d])]}")
    assert len(ideals(t)) == 8 + 1  # 2^3 leaf subsets plus the full set


# --- restriction, varsigma -----------------------------------------------------

def test_restrict_floats_orphans():
    c3 = parse("{[a([b([c])])]}")
    refs = build_ref_map(c3)
    sub = restrict(c3, frozenset([refs["a"], refs["c"]]))
    assert serialize(sub) == "{[a],[c]}"
    assert not is_one_rooted(sub)
    sub2 = restrict(c3, frozenset([refs["a"], refs["b"]]))
    assert serialize(sub2) == "{[a([b])]}"


def test_restrict_block_grouping():
    # two same-block children whose parent is removed stay in one block
    t = parse("{[a([b,c])]}")
    refs = build_ref_map(t)
    sub = restrict(t, frozenset([refs["b"], refs["c"]]))
    assert serialize(sub) == "{[b,c]}"


def test_varsigma():
    assert varsigma(parse("{[d]}")) == 0
    assert varsigma(parse("{[d([e])]}")) == 1
    assert varsigma(parse("{[d([e,f])]}")) == 0
    assert varsigma(parse("{[d([e],[f])]}")) == 2
    assert varsigma(parse("{[d([e,f],[g])]}")) == 1


# --- coarsenings -----------------------------------------------------------------

def test_coarsening_multiplicities():
    t41 = parse("{[d([d],[d],[d])]}")
    c = Counter(serialize(x) for x in coarsenings(t41))
    assert c == {"{[d([d],[d],[d])]}": 1,
                 "{[d([d,d],[d])]}": 3,
                 "{[d([d,d,d])]}": 1}


def test_coarsening_order():
    t31 = parse("{[d([d],[d])]}")
    h31 = parse("{[d([d,d])]}")
    assert coarsens_to(t31, h31)
    assert not coarsens_to(h31, t31)
    assert coarsens_to(t31, t31)
    # chain: merging at different depths composes
    t = parse("{[d([d([d],[d])],[d])]}")
    cs = set(map(serialize, coarsenings(t)))
    assert "{[d([d,d([d,d])])]}" in cs
    assert len(cs) == 4


def test_set_partitions_count():
    # Bell numbers
    assert sum(1 for _ in set_partitions(list(range(4)))) == 15
    assert sum(1 for _ in set_partitions([])) == 1


# --- admissible partitions and contraction ----------------------------------------

def test_admissible_partitions():
    assert len(admissible_partitions(parse("{[d]}"))) == 1
    assert len(admissible_partitions(parse("{[d([e])]}"))) == 1
    assert len(admissible_partitions(parse("{[d([e,f])]}"))) == 2
    assert len(admissible_partitions(parse("{[d([e],[f])]}"))) == 1


def test_contract_golden():
    t = parse("{[d([d])]}")
    (ap,) = admissible_partitions(t)
    a = "<{[d]}>"
    assert serialize(contract(t, ap)) == "{[%s([%s])]}" % (a, a)

    h31 = parse("{[d([d,d])]}")
    out = sorted(serialize(contract(h31, ap)) for ap in admissible_partitions(h31))
    assert "{[<{[d([d,d])]}>]}" in out
    assert "{[%s([%s],[%s])]}" % (a, a, a) in out


# --- every walk on every small tree -------------------------------------------

def _walk_cases():
    for n in range(6):
        for t in enum_partitioned(n, D2):
            yield t
            if n <= 4:
                yield from (c for c in with_counters(t, 1) if c != t)


def test_walks_agree_on_all_small_trees():
    """The cut, the restriction, the counters and the ref walks agree with
    each other on every tree with up to 5 vertices and every ideal."""
    cases = 0
    for t in _walk_cases():
        verts = vertices(t)
        assert len(verts) == nvertices(t)
        refs = frozenset(r for r, _ in verts)
        for r in refs:
            assert canonicalize(ptree._edit_at(t, r, lambda nd: nd)) == t
        counter_of = {r: nd[0][0] for r, nd in verts}
        for ideal in ideals(t):
            cases += 1
            trunk, pruned = split_ideal(t, ideal, bump=False)
            assert trunk == restrict(t, refs - ideal)
            assert canonicalize((pruned,)) == mul_merge(restrict(t, ideal),
                                                        EMPTY)
            assert nvertices(trunk) == len(refs - ideal)
            assert sum(nvertices(((nd,),)) for nd in pruned) == len(ideal)
            vanished = sum(
                1 for r, nd in verts if r not in ideal
                for bi, b in enumerate(nd[1])
                if all(r + ((bi, ni),) in ideal for ni in range(len(b))))
            bumped, pruned2 = split_ideal(t, ideal)
            assert pruned2 == pruned
            assert counter_total(bumped) == (
                counter_total(t) - sum(counter_of[r] for r in ideal)
                + vanished)
    assert cases == 31963
