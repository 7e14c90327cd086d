"""Primitive slices, the convolution-log projection, and the constructive
coalgebra/Hopf isomorphisms, pinned on the two tree bialgebras."""

import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from comprelie.cli import main
from comprelie.handles import (
    cp_handle, dual_cp_handle, get_handle, hck_handle, ucp_handle,
)
from comprelie.lincomb import LinComb, unit
from comprelie.ptree import parse
from comprelie.rigidity import (
    HopfIso,
    Omega,
    TruncatedBialgebra,
    cofree_obstruction,
    primitive_basis,
)
from oracles import (
    F_reference, iter_reduced, omega_inverse_reference, psi_reference,
    rigidity_reports_reference, varpi_reference,
)

P = parse
TUN = P("{[d]}")
TDEUX = P("{[d([d])]}")
CHERRY = P("{[d([d],[d])]}")


def tb_cp(N=4):
    return TruncatedBialgebra(cp_handle(), N)


def tb_hck(N=4):
    return TruncatedBialgebra(hck_handle(), N)


# --- truncation wrapper ------------------------------------------------------

def test_requires_bialgebra_pieces():
    with pytest.raises(ValueError):
        TruncatedBialgebra(dual_cp_handle(), 3)


def test_degree_table():
    tb = tb_cp(3)
    assert tb.deg[tb.alg.unit] == 0
    assert tb.deg[TUN] == 1 and tb.deg[TDEUX] == 2


def test_iter_reduced_vanishing():
    tb = tb_hck()
    # m-fold tensors need degree >= m
    assert iter_reduced(tb, TUN, 2).is_zero()
    assert iter_reduced(tb, TDEUX, 2) == unit((TUN, TUN))
    assert iter_reduced(tb, TDEUX, 3).is_zero()


# --- primitives ---------------------------------------------------------------

def test_primitive_dimensions():
    cp, hck = tb_cp(), tb_hck()
    assert [len(primitive_basis(cp, n)) for n in range(5)] == [0, 1, 1, 2, 5]
    assert [len(primitive_basis(hck, n)) for n in range(5)] == [0, 1, 1, 1, 2]


def test_primitives_are_primitive():
    for tb in (tb_cp(), tb_hck()):
        for n in range(1, 5):
            for p in primitive_basis(tb, n):
                assert p.map_linear(tb.reduced_k).is_zero()


def test_hck_degree2_primitive():
    p = primitive_basis(tb_hck(), 2)[0]
    forest = P("{[d],[d]}")
    assert set(p) == {TDEUX, forest}
    assert p[forest] / p[TDEUX] == Fraction(-1, 2)


def test_degree_bound_enforced():
    with pytest.raises(ValueError):
        primitive_basis(tb_cp(2), 3)


# --- the convolution-log projection --------------------------------------------

def test_psi_fixes_primitives():
    for tb in (tb_cp(), tb_hck()):
        for n in range(1, 5):
            for p in primitive_basis(tb, n):
                assert p.map_linear(tb.psi_k) == p


def test_psi_kills_products():
    for tb in (tb_cp(), tb_hck()):
        for da in range(1, 4):
            for db in range(1, 5 - da):
                for a in tb.slices[da]:
                    for b in tb.slices[db]:
                        assert tb.mul_k(a, b).map_linear(tb.psi_k).is_zero()


def test_psi_golden_values():
    tb = tb_hck()
    assert tb.psi_k(TUN) == unit(TUN)
    assert tb.psi_k(TDEUX) == \
        unit(TDEUX) - unit(P("{[d],[d]}")).scale(Fraction(1, 2))
    assert tb.psi_k(tb.alg.unit).is_zero()


def test_psi_idempotent():
    for tb in (tb_cp(), tb_hck()):
        for n in range(5):
            for k in tb.slices[n]:
                y = tb.psi_k(k)
                assert y.map_linear(tb.psi_k) == y


@pytest.mark.xfail(
    reason="the image of the projection need not be primitive; the "
           "three-vertex corolla is a counterexample", strict=True)
def test_psi_image_primitive():
    tb = tb_hck()
    y = tb.psi_k(CHERRY)
    assert y.map_linear(tb.reduced_k).is_zero()


# --- omega ----------------------------------------------------------------------

def test_omega_letters():
    om = Omega(tb_hck())
    assert om.letters == ["v1_0", "v2_0", "v3_0", "v4_0", "v4_1"]
    assert om.letter_deg["v4_1"] == 4


def test_omega_word_enumeration():
    om = Omega(tb_hck())
    assert om.words(0) == [()]
    assert om.words(2) == [("v1_0", "v1_0"), ("v2_0",)]
    assert all(sum(om.letter_deg[x] for x in w) == 3 for w in om.words(3))
    assert len(om.words(4)) == 9


def test_omega_on_letters_is_the_primitive():
    for tb in (tb_cp(), tb_hck()):
        om = Omega(tb)
        for letter in om.letters:
            assert om.apply_word((letter,)) == om.letter_prim[letter]
    # and on the empty word, the unit
    assert Omega(tb_cp()).apply_word(()) == unit(cp_handle().unit)


def test_omega_iso_and_coalgebra():
    for tb in (tb_cp(), tb_hck()):
        om = Omega(tb)
        assert all(r.ok for r in om.check_iso()), \
            [r.line() for r in om.check_iso()]
        assert om.check_coalgebra().ok


def test_omega_inverse_roundtrip():
    tb = tb_cp()
    om = Omega(tb)
    for n in range(1, 5):
        for k in tb.slices[n]:
            assert omega_inverse_reference(om, unit(k), n).map_linear(
                om.apply_word) == unit(k)


@pytest.mark.parametrize("make", [tb_cp, tb_hck])
def test_omega_inverse_is_the_letter_coordinates(make):
    # omega⁻¹(omega(w)) is the word w, whose letter coordinates are the
    # letter itself for a one-letter word and nothing for a longer one
    om = Omega(make())
    for n in range(1, 5):
        for w in om.words(n):
            got = om.inverse(om.apply_word(w), n)
            assert got == (unit(w[0]) if len(w) == 1 else LinComb()), w


def test_omega_general_right_inverse():
    # doubling the bullet wholesale keeps every law (each law's two sides
    # scale alike) but makes x•unit scale by twice the degree; the solve
    # for g finds the primitive over 2n and the construction goes through
    base = cp_handle()

    def doubled(a, b):
        return base.prelie(a, b).scale(2)

    tb = TruncatedBialgebra(replace(base, name="cp2f", prelie=doubled), 3)
    om = Omega(tb)
    for letter in om.letters:
        n = om.letter_deg[letter]
        assert om._f(om._g[letter]) == om.letter_prim[letter]
        assert om._g[letter] == \
            om.letter_prim[letter].scale(Fraction(1, 2 * n))
    assert all(r.ok for r in om.check_iso())
    assert om.check_coalgebra().ok


def test_omega_rejects_non_surjective_f():
    base = cp_handle()

    def killed(a, b):
        return LinComb() if b == base.unit else base.prelie(a, b)

    tb = TruncatedBialgebra(replace(base, name="cp0f", prelie=killed), 2)
    with pytest.raises(ValueError):
        Omega(tb)


# --- the Hopf isomorphism --------------------------------------------------------

@pytest.mark.parametrize("make", [tb_cp, tb_hck])
def test_hopf_iso_all_checks(make):
    iso = HopfIso(make())
    reports = iso.run_checks()
    assert all(r.ok for r in reports), [r.line() for r in reports]


def test_hopf_iso_two_labels():
    tb = TruncatedBialgebra(cp_handle(labels=("d", "e")), 3)
    reports = HopfIso(tb).run_checks()
    assert all(r.ok for r in reports), [r.line() for r in reports]


def test_hopf_golden_images():
    iso = HopfIso(tb_hck())
    assert iso.F_k(iso.tb.alg.unit) == unit(())
    assert iso.F_k(TUN) == unit(("v1_0",))
    assert iso.F_k(TDEUX) == unit(("v2_0",)) + unit(("v1_0", "v1_0"))
    assert iso.tb.mul_k(TUN, TUN).map_linear(iso.F_k) == \
        unit(("v1_0", "v1_0")).scale(2)


def test_hopf_iso_deterministic():
    runs = []
    for _ in range(2):
        iso = HopfIso(tb_cp())
        runs.append({k: iso.F_k(k) for n in range(5)
                     for k in iso.tb.slices[n]})
    assert runs[0] == runs[1]


@pytest.mark.parametrize("make, labels, N", [
    (cp_handle, ("d",), 5), (cp_handle, ("d", "e"), 4), (hck_handle, ("d",), 5),
], ids=["cp-5", "cp-4-two-labels", "hck-5"])
def test_recursions_match_the_iterated_tuples(make, labels, N):
    # psi and F by first-leg recursion, varpi from the letter columns of
    # omega's inverse, against the sums over m-tuples and the whole inverse
    iso = HopfIso(TruncatedBialgebra(make(labels), N))
    tb = iso.tb
    for n in range(N + 1):
        for k in tb.slices[n]:
            assert tb.psi_k(k) == psi_reference(tb, k)
            assert iso.varpi_k(k) == varpi_reference(iso, k)
            assert iso.F_k(k) == F_reference(iso, k)


def test_varpi_kills_products_and_unit():
    iso = HopfIso(tb_cp())
    tb = iso.tb
    assert iso.varpi_k(tb.alg.unit).is_zero()
    for a in tb.slices[1]:
        for b in tb.slices[2]:
            assert tb.mul_k(a, b).map_linear(iso.varpi_k).is_zero()


# --- every check fails on a seeded fault, naming its witness ---------------------

def _failures(reports):
    return [r.line() for r in reports if not r.ok]


def _singular_in_degree_2():
    # a right inverse that kills the degree-2 letters makes omega singular
    om = Omega(tb_cp(3))
    for x in om.letters:
        if om.letter_deg[x] == 2:
            om._g[x] = LinComb()
    return om


def test_omega_iso_failure_witness():
    om = _singular_in_degree_2()
    assert _failures(om.check_iso()) == [
        "omega-iso cp 2 FAIL rank 1 < 2", "omega-iso cp 3 FAIL rank 3 < 5"]
    assert om.check_coalgebra().ok
    # and omega⁻¹ refuses the singular slice, not the others
    assert om.inverse(unit(TUN), 1) == unit("v1_0")
    with pytest.raises(ValueError, match="degree 2"):
        om.inverse(unit(TDEUX), 2)
    # a dropped letter leaves fewer words than basis elements
    om = Omega(tb_cp(3))
    om.letters.pop()
    assert _failures(om.check_iso()) == [
        "omega-iso cp 3 FAIL 4 words vs 5 basis elements"]


def test_omega_coalgebra_failure_witness():
    # adding a product to g(v2_0) makes omega(v2_0) non-primitive
    iso = HopfIso(tb_cp(3))
    g = iso.omega._g
    g["v2_0"] = g["v2_0"] + unit(P("{[d,d]}"))
    assert _failures(iso.run_checks()) == [
        "omega-coalgebra cp 3 FAIL w=v2_0",
        "varpi-primitives cp 3 FAIL letter=v2_0",
    ]


def test_varpi_primitives_failure_witness():
    # g = the primitive itself is a right inverse only in degree 1
    iso = HopfIso(tb_cp(3))
    iso.omega._g.update(iso.omega.letter_prim)
    assert _failures(iso.run_checks()) == [
        "varpi-primitives cp 3 FAIL letter=v2_0"]


def test_hopf_iso_failure_witness():
    # varpi forced to zero on the one-vertex tree
    iso = HopfIso(tb_cp(3))
    iso._varpi[TUN] = LinComb()
    assert _failures(iso.run_checks()) == [
        "hopf-iso cp 1 FAIL rank 0 < 1",
        "hopf-iso cp 2 FAIL rank 1 < 2",
        "hopf-iso cp 3 FAIL rank 2 < 5",
        "varpi-primitives cp 3 FAIL letter=v1_0",
    ]


def _count_calls(monkeypatch, name):
    """The row counts of the matrices rigidity passes to linalg's `name`."""
    from comprelie import rigidity
    seen = []
    real = getattr(rigidity, name)

    def counting(rows, *args):
        seen.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(rigidity, name, counting)
    return seen


def test_failing_slice_is_ranked_once(monkeypatch):
    ranked = _count_calls(monkeypatch, "rank")
    iso = HopfIso(tb_cp(3))
    iso._varpi[TUN] = LinComb()
    assert not any(r.ok for r in iso.check_iso())
    assert ranked == [1, 2, 5]


def test_omega_ranks_only_failing_slices(monkeypatch):
    ranked = _count_calls(monkeypatch, "rank")
    assert all(r.ok for r in Omega(tb_cp(3)).check_iso())
    assert ranked == []
    om = _singular_in_degree_2()
    assert _failures(om.check_iso()) == [
        "omega-iso cp 2 FAIL rank 1 < 2", "omega-iso cp 3 FAIL rank 3 < 5"]
    assert ranked == [2, 5]


@pytest.mark.parametrize("argv, N", [
    ("--algebra cp --maxdeg 4", 4), ("--algebra hck --maxdeg 5", 5),
    ("--algebra cp --maxdeg 3 --labels 3", 3),
])
def test_a_passing_run_eliminates_each_omega_slice_once(monkeypatch, argv,
                                                        N):
    # the printed pipeline inverts each of omega's slices once, for varpi,
    # and ranks only F's, one square slice per degree each
    ranked = _count_calls(monkeypatch, "rank")
    inverted = _count_calls(monkeypatch, "invert")
    assert main(["rigidity", "iso"] + argv.split()) == 0
    assert len(inverted) == N
    assert ranked == inverted


def test_hopf_multiplicative_failure_witness():
    # a psi that fixes the product {[d,d]} instead of killing it
    tb = tb_cp(3)
    prod = P("{[d,d]}")
    psi_k = tb.psi_k
    tb.psi_k = lambda k: unit(prod) if k == prod else psi_k(k)
    assert _failures(HopfIso(tb).run_checks()) == [
        "varpi-primitives cp 3 FAIL letter=v2_0",
        "hopf-multiplicative cp 3 FAIL x={[d]} y={[d]}",
    ]


def test_hopf_projection_and_coalgebra_failure_witnesses():
    iso = HopfIso(tb_cp(3))
    iso._F[iso.tb.alg.unit] = LinComb()
    assert _failures(iso.run_checks()) == [
        "hopf-projection cp 3 FAIL unit image",
        "hopf-coalgebra cp 3 FAIL x={[d]}",
        "hopf-multiplicative cp 3 FAIL x={} y={[d]}",
    ]
    iso = HopfIso(tb_cp(3))
    iso._F[TDEUX] = iso.F_k(TDEUX) + unit(("v2_0",))
    assert _failures(iso.run_checks()) == [
        "hopf-projection cp 3 FAIL x={[d([d])]}",
        "hopf-coalgebra cp 3 FAIL x={[d([d([d])])]}",
        "hopf-multiplicative cp 3 FAIL x={[d]} y={[d([d])]}",
    ]
    iso = HopfIso(tb_cp(3))
    iso._F[TDEUX] = iso.F_k(TDEUX) + unit(("v1_0", "v1_0"))
    assert _failures(iso.run_checks()) == [
        "hopf-coalgebra cp 3 FAIL x={[d([d])]}",
        "hopf-multiplicative cp 3 FAIL x={[d]} y={[d([d])]}",
    ]


# --- the int defect kernels against the checks on LinCombs -----------------------
# Each tampering is made before any check runs, so the kernels and the
# reference see it alike; the last two make an image wrong by a fraction.

def _product_in_g(iso):
    x = next(x for x in iso.omega.letters if iso.omega.letter_deg[x] == 2)
    one = iso.tb.slices[1][0]
    iso.omega._g[x] = iso.omega._g[x] + iso.tb.mul_k(one, one)


def _psi_fixes_a_product(iso):
    tb, one = iso.tb, iso.tb.slices[1][0]
    prod, psi_k = next(iter(tb.mul_k(one, one))), tb.psi_k
    tb.psi_k = lambda k: unit(prod) if k == prod else psi_k(k)


def _no_varpi_in_degree_1(iso):
    iso._varpi[iso.tb.slices[1][0]] = LinComb()


def _no_unit_image(iso):
    iso._F[iso.tb.alg.unit] = LinComb()


def _a_third_of_a_word_in_F(iso):
    k = iso.tb.slices[2][0]
    iso._F[k] = iso.F_k(k) + unit(iso.omega.words(2)[0]).scale(Fraction(1, 3))


def _half_a_varpi(iso):
    k = iso.tb.slices[1][-1]
    iso._varpi[k] = iso.varpi_k(k).scale(Fraction(1, 2))


# the shuffle algebra's primitives are its letters, all of degree 1, so
# the first two tamperings have nothing to act on there
ON_WORDS = [_no_varpi_in_degree_1, _no_unit_image, _a_third_of_a_word_in_F,
            _half_a_varpi]
ON_TREES = [_product_in_g, _psi_fixes_a_product] + ON_WORDS


@pytest.mark.parametrize("name, labels, N, tamper", [
    (name, labels, N, tamper)
    for name, labels, N, tampers in [
        ("cp", ("d",), 5, ON_TREES), ("hck", ("d",), 6, ON_TREES),
        ("cp", ("d", "e", "f"), 3, ON_TREES), ("tvf", ("d",), 4, ON_WORDS)]
    for tamper in [None] + tampers
], ids=lambda v: (v.__name__ if callable(v) else "-".join(v)
                  if isinstance(v, tuple) else str(v)))
def test_checks_match_the_reference(name, labels, N, tamper):
    reports = []
    for check in (HopfIso.run_checks, rigidity_reports_reference):
        iso = HopfIso(TruncatedBialgebra(get_handle(name, labels=labels), N))
        if tamper:
            tamper(iso)
        reports.append(check(iso))
    assert reports[0] == reports[1]
    assert all(r.ok for r in reports[0]) == (tamper is None), \
        _failures(reports[0])


# --- the two-label obstruction ----------------------------------------------------

def test_obstruction_two_labels_infeasible():
    assert cofree_obstruction(("d", "e")) is None


def test_obstruction_one_label_solvable():
    x = cofree_obstruction(("d",))
    assert x == unit(P("{[d,d]}")).scale(Fraction(1, 2))
    tb = TruncatedBialgebra(ucp_handle(labels=("d",), counter_cap=2), 2)
    assert x.map_linear(tb.reduced_k) == unit((TUN, TUN))


# --- the printed pipeline, pinned ------------------------------------------------

@pytest.mark.parametrize("argv, digest", [
    ("rigidity iso --algebra cp --maxdeg 4",
     "b011a40a35981e24be5623c28f80ff2ac9e3dbfe6d1d56b66e6c1623939b63ba"),
    ("rigidity iso --algebra hck --maxdeg 5",
     "912fa3f6f86f7afdd198266edbb5e1d58db996fe6d504137a6c565d2908b522a"),
    ("rigidity iso --algebra cp --maxdeg 6 --force",
     "5d847f1e1d91b634a4233b77ed18d1684b685b6f2c9385c4cecd31019bf154cb"),
    ("rigidity iso --algebra hck --maxdeg 7 --force",
     "757a1fc9495ec0894273d76fae3c48f7b1a05e22b236841b324ad8a38da65dff"),
    ("rigidity iso --algebra cp --maxdeg 2 --labels 2",
     "0ed758da9f08244c4fcd92dfa396a650508dbb0416155f321b6c54710591b732"),
    ("rigidity obstruction --labels 1",
     "9d4fdde7de508ad17d0b10e57138937d5833aae0314bd67bd0d513b77324dd5d"),
    ("rigidity obstruction --labels 2",
     "9ecc6fd52c6e6b8c3bce4718e62655510a376fa89ef551c1ba7f689ea7571bae"),
])
def test_rigidity_stdout_is_pinned(capsys, argv, digest):
    # the omega and F matrices are printed over the primitive letters, so a
    # kernel returning another basis of the primitives changes the digest
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
