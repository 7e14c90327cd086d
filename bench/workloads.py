"""Workload definitions, the seeded input generator and the output oracles.

A workload is a list of `Invocation`s: CLI arguments for `comprelie`, plus
an oracle that checks the invocation's stdout independently of the
recorded digest.  The oracles here share no code with `src/comprelie`:
counts come from generating-function recurrences and tree recursions
written from the definitions.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

# An oracle returns None when the output is right, else a one-line reason.
Oracle = Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    oracle: Optional[Oracle] = None

    @property
    def key(self) -> str:
        """Stable identifier of the argument list, the expected-table key."""
        return hashlib.sha256("\0".join(self.argv).encode()).hexdigest()[:16]

    def label(self) -> str:
        text = " ".join(self.argv)
        return text if len(text) <= 80 else text[:77] + "..."


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------

def euler_transform(a: list[int]) -> list[int]:
    """b[n] = number of multisets of weighted items with total weight n,
    where a[k] items have weight k (a[0] is ignored)."""
    n_max = len(a) - 1
    c = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for k in range(d, n_max + 1, d):
            c[k] += d * a[d]
    b = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        b[n] = sum(c[k] * b[n - k] for k in range(1, n + 1)) // n
    return b


def tree_counts(n_max: int, n_labels: int) -> dict[str, list[int]]:
    """Counts per vertex number of the four enumerated families.

    Partitioned: nodes = |D| * blocklists(n-1), blocks = Euler(nodes),
    blocklists = Euler(blocks); a partitioned tree is one root block and a
    one-rooted tree one node.  Plain: trees = |D| * forests(n-1),
    forests = Euler(trees)."""
    nodes = [0] * (n_max + 1)
    blocks = [1] + [0] * n_max
    blocklists = [1] + [0] * n_max
    trees = [0] * (n_max + 1)
    forests = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        nodes[n] = n_labels * blocklists[n - 1]
        blocks = euler_transform(nodes[:n + 1]) + [0] * (n_max - n)
        blocklists = euler_transform(blocks[:n + 1]) + [0] * (n_max - n)
        trees[n] = n_labels * forests[n - 1]
        forests = euler_transform(trees[:n + 1]) + [0] * (n_max - n)
    return {"partitioned": blocks, "one-rooted": nodes,
            "plain-trees": trees, "plain-forests": forests}


def line_count_oracle(expected: int) -> Oracle:
    def check(out: str) -> Optional[str]:
        got = len(out.splitlines())
        return None if got == expected else f"{got} lines, expected {expected}"
    return check


def coefficients(out: str) -> list[int]:
    """The integer coefficients of a `c*KEY + c*KEY` output line."""
    got = []
    for term in out.strip().split(" + "):
        coeff, star, _ = term.partition("*")
        if not star or not coeff.lstrip("-").isdigit():
            raise ValueError(f"unexpected term {term[:40]!r}")
        got.append(int(coeff))
    return got


def terms_oracle(total: int, terms: Optional[int] = None) -> Oracle:
    """The coefficients sum to `total`, over `terms` distinct terms."""
    def check(out: str) -> Optional[str]:
        try:
            got = coefficients(out)
        except ValueError as e:
            return str(e)
        if sum(got) != total:
            return f"coefficients sum to {sum(got)}, expected {total}"
        if terms is not None and len(got) != terms:
            return f"{len(got)} terms, expected {terms}"
        return None
    return check


def checks_pass(out: str) -> Optional[str]:
    """Every check line ends in PASS: the lines after `checks:` if there is
    such a header (`rigidity iso`), else every line (`check`)."""
    lines = out.splitlines()
    if "checks:" in lines:
        lines = lines[lines.index("checks:") + 1:]
    bad = [ln for ln in lines if not ln.endswith(" PASS")]
    if not lines or bad:
        return f"check lines not all PASS: {bad[:2]}"
    return None


# ---------------------------------------------------------------------------
# Trees: a node is (label, blocks), blocks a list of lists of nodes.
# ---------------------------------------------------------------------------

def fmt_node(nd) -> str:
    label, blocks = nd
    if not blocks:
        return label
    return label + "(" + ",".join(fmt_block(b) for b in blocks) + ")"


def fmt_block(block) -> str:
    return "[" + ",".join(fmt_node(nd) for nd in block) + "]"


def fmt_forest(blocks) -> str:
    return "{" + ",".join(fmt_block(b) for b in blocks) + "}"


def n_ideals(nd) -> int:
    """Children-closed vertex sets of a node's subtree: either the whole
    subtree, or the node stays and each child chooses independently."""
    prod = 1
    for block in nd[1]:
        for ch in block:
            prod *= n_ideals(ch)
    return 1 + prod


def forest_ideals(blocks) -> int:
    out = 1
    for block in blocks:
        for nd in block:
            out *= n_ideals(nd)
    return out


def _canon(label: str, counter: int, blocks: list[list[str]]) -> str:
    """Canonical text of a vertex, given its children's canonical texts."""
    head = f"{label}:{counter}" if counter else label
    if not blocks:
        return head
    return head + "(" + ",".join(sorted(
        "[" + ",".join(sorted(b)) + "]" for b in blocks)) + ")"


def canon(nd) -> str:
    label, blocks = nd
    return _canon(label, 0, [[canon(c) for c in b] for b in blocks])


def _cuts(nd, bump: bool) -> list[tuple]:
    """(trunk, pruned) for every ideal of a node's subtree: the canonical
    text of what stays (None if the node itself is cut away) and the texts
    of the cut-off subtrees.  With bump, a staying vertex counts the child
    blocks it lost whole."""
    label, blocks = nd
    out = [(None, (canon(nd),))]
    kids = [(bi, _cuts(c, bump)) for bi, b in enumerate(blocks) for c in b]
    for combo in product(*(cuts for _, cuts in kids)):
        kept: list[list[str]] = [[] for _ in blocks]
        pruned: list[str] = []
        for (bi, _), (trunk, cut) in zip(kids, combo):
            if trunk is not None:
                kept[bi].append(trunk)
            pruned.extend(cut)
        left = [b for b in kept if b]
        counter = len(blocks) - len(left) if bump else 0
        out.append((_canon(label, counter, left), tuple(pruned)))
    return out


def n_terms(blocks, bump: bool = False) -> int:
    """Distinct terms of a cutting coproduct of a one-root tree or a plain
    forest: distinct pairs of (remaining roots, cut-off subtrees)."""
    roots = [nd for b in blocks for nd in b]
    pairs = set()
    for combo in product(*(_cuts(nd, bump) for nd in roots)):
        trunk = tuple(sorted(t for t, _ in combo if t is not None))
        pruned = tuple(sorted(p for _, cut in combo for p in cut))
        pairs.add((trunk, pruned))
    return len(pairs)


def _pieces(nd) -> tuple[int, int]:
    """(top, inner): admissible cuttings of a node's subtree when the node
    heads its piece, and when it hangs below its parent in the same piece.

    A piece is connected; at its head each child block keeps 0 or at least
    2 of its vertices inside the piece (no singleton child block)."""
    top = inner = 1
    for block in nd[1]:
        kids = [_pieces(ch) for ch in block]
        every = 1
        for t, i in kids:
            every *= t + i
        exactly_one = 0
        for j, (_, i) in enumerate(kids):
            term = i
            for k, (t, _) in enumerate(kids):
                if k != j:
                    term *= t
            exactly_one += term
        inner *= every
        top *= every - exactly_one
    return top, inner


def n_admissible(blocks) -> int:
    """Partitions of a forest's vertices into admissible pieces (the sum of
    the coefficients of `theta`)."""
    out = 1
    for block in blocks:
        for nd in block:
            out *= _pieces(nd)[0]
    return out


def _grow(rnd: random.Random, n: int, attach: Callable[[int], int],
          labels=("d", "e"), p_join: float = 0.5):
    """Random tree on n vertices: vertex v hangs below attach(v) < v, and
    each vertex's children fall into random sibling blocks."""
    kids: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        kids[attach(v)].append(v)
    lab = [rnd.choice(labels) for _ in range(n)]

    def build(v: int):
        blocks: list[list] = []
        for c in kids[v]:
            if blocks and rnd.random() < p_join:
                rnd.choice(blocks).append(build(c))
            else:
                blocks.append([build(c)])
        return (lab[v], blocks)

    return build(0)


def wide_tree(rnd: random.Random, n: int):
    """Corolla-like: most vertices hang from the root."""
    return _grow(rnd, n, lambda v: 0 if rnd.random() < 0.5 else rnd.randrange(v))


def deep_tree(rnd: random.Random, n: int):
    """Path-like: most vertices hang from the previous one."""
    return _grow(rnd, n, lambda v: v - 1 if rnd.random() < 0.8 else rnd.randrange(v))


def recursive_tree(rnd: random.Random, n: int):
    """Random recursive tree: each vertex hangs from a uniform earlier one."""
    return _grow(rnd, n, lambda v: rnd.randrange(v))


def plain_forest(rnd: random.Random, n: int, roots: int):
    """Random recursive plain forest: singleton blocks everywhere."""
    tree = _grow(rnd, n + 1, lambda v: 0 if v <= roots else rnd.randrange(1, v),
                 p_join=0.0)
    return tree[1]


FAMILIES = {"wide": wide_tree, "deep": deep_tree, "random": recursive_tree}

# Bands on the number of ideals and of distinct coproduct terms, and on the
# number of admissible partitions (theta terms).  They set the work after
# the exhaustive filters and the size of the output, so bounding them keeps
# every seed's pass about equally long and equally large in memory.  A shape
# outside its bands is redrawn from the same random stream.
COPROD_VERTICES = 16
COPROD_BANDS = {  # family: (ideals, distinct terms)
    "wide": ((4500, 6500), (2100, 2600)),
    "deep": ((40, 160), (40, 160)),
    "random": ((900, 2000), (950, 1150)),
}
HCK_BANDS = ((1200, 2400), (1000, 1400))
THETA_VERTICES = 9
THETA_ADMISSIBLE = {"wide": (5, 32), "deep": (1, 16), "random": (4, 33)}


def _draw(make: Callable, accept: Callable):
    while True:
        t = make()
        if accept(t):
            return t


def _within(value: int, band) -> bool:
    return band[0] <= value <= band[1]


def cuts_invocations(seed: int) -> list[Invocation]:
    """Large single trees from the three shape families, fed to the cutting
    coproducts and to theta."""
    rnd = random.Random(seed)
    out = []
    for family, make in FAMILIES.items():
        algebra = rnd.choice(("cp", "ucp"))
        ideals, terms = COPROD_BANDS[family]
        tree = _draw(lambda: make(rnd, COPROD_VERTICES), lambda t: (
            _within(n_ideals(t), ideals)
            and _within(n_terms([[t]], algebra == "ucp"), terms)))
        out.append(Invocation(
            ("coprod", "--algebra", algebra, fmt_forest([[tree]])),
            terms_oracle(n_ideals(tree), n_terms([[tree]], algebra == "ucp"))))
    roots = rnd.choice((2, 3))
    ideals, terms = HCK_BANDS
    forest = _draw(lambda: plain_forest(rnd, COPROD_VERTICES, roots), lambda f: (
        _within(forest_ideals(f), ideals) and _within(n_terms(f), terms)))
    out.append(Invocation(("coprod", "--algebra", "hck", fmt_forest(forest)),
                          terms_oracle(forest_ideals(forest), n_terms(forest))))
    for family, make in FAMILIES.items():
        tree = _draw(lambda: make(rnd, THETA_VERTICES), lambda t: _within(
            n_admissible([[t]]), THETA_ADMISSIBLE[family]))
        out.append(Invocation(("theta", fmt_forest([[tree]])),
                              terms_oracle(n_admissible([[tree]]))))
    return out


# ---------------------------------------------------------------------------
# The workloads.
# ---------------------------------------------------------------------------

def fixed_workloads() -> dict[str, list[Invocation]]:
    counts = tree_counts(7, 2)
    return {
        "rigidity": [
            Invocation(("rigidity", "iso", "--algebra", "cp", "--maxdeg", "5"),
                       checks_pass),
            Invocation(("rigidity", "iso", "--algebra", "hck", "--maxdeg", "6",
                        "--force"), checks_pass),
            Invocation(("rigidity", "iso", "--algebra", "cp", "--maxdeg", "3",
                        "--labels", "3"), checks_pass),
        ],
        "enumerate": [
            Invocation(("kerdelta", "--degree", "7", "--labels", "2", "--force")),
            Invocation(("enum", "--n", "7", "--labels", "2", "--mode",
                        "plain-forests", "--force"),
                       line_count_oracle(counts["plain-forests"][7])),
            Invocation(("enum", "--n", "7", "--labels", "2", "--mode",
                        "one-rooted", "--force"),
                       line_count_oracle(counts["one-rooted"][7])),
        ],
        "sweep": [
            Invocation(("check", "--algebra", "all", "--maxdeg", "5", "--force"),
                       checks_pass),
        ],
    }


WORKLOADS = ("rigidity", "enumerate", "sweep", "cuts")


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocations; only `cuts` depends on the seed."""
    if workload == "cuts":
        return cuts_invocations(seed)
    return fixed_workloads()[workload]
