"""Catalog-level checks: recursion consistency and reference-form agreement.

Two kinds of test live here:

* internal consistency -- each block of sigma_{-2} and sigma_{-4} must
  equal the composition step applied to the piece of sigma_0 or sigma_2
  it is named for, formed with generic symbol products; sigma_{-2} must
  invert sigma_1 + sigma_0 on both sides by the composition formula; the
  cube's untwisted sigma_2 is compared with sigma_2 of D o D o D; and
  every catalog entry must be homogeneous of its stated order (that the
  inverse-cube symbols recomputed through the generic composition
  recursion equal the catalog forms is checked in the acceptance suite);
* reference comparison -- engine symbols are compared against the
  published intermediate forms.  Where the published form contains a
  misprint the test asserts the *documented disagreement* (the engine side
  is independently validated by the numeric oracle in the acceptance
  suite); silently "fixing" the comparison would hide the discrepancy.
"""

from fractions import Fraction

import pytest

from references import (compose, equal_on_sphere, equals, homogeneity_order,
                        homogeneous_part, paper_form)
from wresbd import catalog as C
from wresbd.catalog import (DIRAC, SIGNATURE, alpha_dirac, c_endo,
                            cubed_sigma, first_order_sigma, p_signature,
                            _frac, _sandwich)
from wresbd.ring import Scalar
from wresbd.symbols import (RationalSymbol, _poly_add, _poly_mul, b_poly,
                            pi_plus)

FAMS = [DIRAC, SIGNATURE]


# -- internal consistency ----------------------------------------------------


def _stated_pieces(fam, order):
    """sigma_0 (order 0) or the cube's sigma_2 (order 2) split by the block
    of the inverse each piece feeds, as the reference names the blocks."""
    const = RationalSymbol.constant
    b = _frac(b_poly(), 0)
    cx = _frac(C.c_xi_poly(), 0)
    dirac = fam.name == "dirac"
    if order == 0:
        untwisted = const(C.sigma0_connection(fam))
        if dirac:
            return {"core": untwisted, "beta": const(C.beta_dirac())}
        return {"B123": untwisted, "B4": const(C.vartheta(starred=False))}
    untwisted = _frac(C.sigma2_cube(), 0)
    if dirac:
        return {"D1": untwisted,
                "D2": b * const(alpha_dirac()),
                "D3": b * const(c_endo("PhiStar")) * -2,
                "D4": cx * const(c_endo("Phi")) * cx * -2}
    return {"D1": untwisted,
            "p": b * const(p_signature()),
            "thetastar": b * const(C.vartheta(starred=True)),
            "w": cx * const(c_endo("w")) * cx - b * const(c_endo("wStar"))}


def _total(blocks):
    return sum(blocks.values(), RationalSymbol.zero())


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
@pytest.mark.parametrize("order", [0, 2])
def test_blocks_are_the_composition_step_of_their_pieces(fam, order):
    """The block fed by piece P is -inv P inv, plus the composition
    remainder on the untwisted block, formed with generic products."""
    pieces = _stated_pieces(fam, order)
    if order == 0:
        blocks = first_order_sigma(fam, -2)
        top, inv = C._i_c_xi(0), first_order_sigma(fam, -1)["total"]
    else:
        blocks = cubed_sigma(fam, -4)
        top, inv = cubed_sigma(fam, 3)["total"], cubed_sigma(fam, -3)["total"]
        sigma2 = cubed_sigma(fam, 2)
        assert list(sigma2) == list(pieces)
        for name, piece in pieces.items():
            assert equals(sigma2[name], piece), name
    assert list(blocks) == list(pieces)
    for k, (name, piece) in enumerate(pieces.items()):
        want = -(inv * piece * inv)
        if k == 0:
            want = want + C._remainder(top, inv)
        assert equals(blocks[name], want), name


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_sigma_m2_is_a_left_and_right_parametrix(fam):
    """sigma_{-1} + sigma_{-2} inverts sigma_1 + sigma_0 on both sides up
    to order -2, by the composition formula alone (no _remainder)."""
    sym = C._i_c_xi(0) + _total(_stated_pieces(fam, 0))
    inv = (first_order_sigma(fam, -1)["total"]
           + _total(first_order_sigma(fam, -2)))
    one = RationalSymbol.constant(C.CE.one())
    for prod in (compose(sym, inv), compose(inv, sym)):
        assert equals(homogeneous_part(prod, 0), one)
        assert equals(homogeneous_part(prod, -1), RationalSymbol.zero())


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_untwisted_cube_sigma2_against_composition(fam):
    """The untwisted block D1 of the cube's sigma_2 against sigma_2 of the
    composed cube, with sigma(D) = i c(xi) - (5/4) H1 c(dx_n) (the
    connection part of sigma_0 only).  D o D^2 and D^2 o D agree; D1
    exceeds them by c(xi)(2 sigma^k - Gamma^k) xi_k + H1 xi_n^2 c(dx_n),
    compared on the sphere at x_0, where D1 is stated."""
    h1 = Scalar.sym("H1")
    d = C._i_c_xi(0) + RationalSymbol.constant(C.CE.c(6, h1 * Fraction(-5, 4)))
    square = compose(d, d)
    left = homogeneous_part(compose(d, square), 2)
    assert equals(left, homogeneous_part(compose(square, d), 2))
    inner0 = sum((C.CE.word([("C", k), ("C", 6)], Scalar.sym("XI%d" % k))
                  for k in range(1, 6)), C.CE.zero())
    inner = [inner0 * (h1 * Fraction(1, 2)), C.CE.scalar(h1 * Fraction(-5, 2))]
    excess = _poly_add(_poly_mul(C.c_xi_poly(), inner),
                       [C.CE.zero(), C.CE.zero(), C.CE.c(6, h1)])
    assert equal_on_sphere((cubed_sigma(fam, 2)["D1"] - left).restrict(),
                           _frac(excess, 0).restrict())


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
@pytest.mark.parametrize("order", [3, 2, -3, -4])
def test_cube_symbols_are_homogeneous(fam, order):
    for sym in cubed_sigma(fam, order).values():
        assert homogeneity_order(sym) == order


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
@pytest.mark.parametrize("order", [-1, -2])
def test_first_order_symbols_are_homogeneous(fam, order):
    for sym in first_order_sigma(fam, order).values():
        assert homogeneity_order(sym) == order


@pytest.mark.parametrize("make, match", [
    (lambda: first_order_sigma(DIRAC, -3), "orders -1 and -2 only"),
    (lambda: first_order_sigma(SIGNATURE, 0), "orders -1 and -2 only"),
    (lambda: cubed_sigma(DIRAC, 1), "orders 3, 2, -3, -4 only"),
    (lambda: cubed_sigma(SIGNATURE, -5), "orders 3, 2, -3, -4 only"),
], ids=["first-order-3", "first-order0", "cube1", "cube-5"])
def test_orders_outside_the_catalog_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_leading_symbols_compose_to_identity(fam):
    p3 = cubed_sigma(fam, 3)["total"]
    q3 = cubed_sigma(fam, -3)["total"]
    assert equals(p3 * q3, RationalSymbol.constant(C.CE.one()))
    assert equals(q3 * p3, RationalSymbol.constant(C.CE.one()))


# -- reference comparison: forms that agree ----------------------------------

_EQ_IDS = {
    "dirac": dict(dxn_pp="(3.14)", dxi_pp="(3.20)", d2="(3.15)",
                  dxidxn="(3.21)", dxi3="(3.56)"),
    "signature": dict(dxn_pp="(5.7)", dxi_pp="(5.12)", d2="(5.8)",
                      dxidxn="(5.13)", dxi3="(5.23)"),
}


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_projected_first_order_derivatives_match_reference(fam):
    ids = _EQ_IDS[fam.name]
    s1 = first_order_sigma(fam, -1)["total"]
    got = pi_plus(s1.derive("xn").restrict())
    assert equal_on_sphere(got, paper_form(fam.name, ids["dxn_pp"]))
    got = pi_plus(s1.derive("xin").restrict())
    assert equal_on_sphere(got, paper_form(fam.name, ids["dxi_pp"]))


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_inverse_cube_derivatives_match_reference(fam):
    ids = _EQ_IDS[fam.name]
    q3 = cubed_sigma(fam, -3)["total"]
    pairs = [
        (q3.derive("xin").derive("xin"), ids["d2"]),
        (q3.derive("xin").derive("xn"), ids["dxidxn"]),
        (q3.derive("xin"), ids["dxi3"]),
    ]
    for sym, eq_id in pairs:
        assert equal_on_sphere(sym.restrict(),
                               paper_form(fam.name, eq_id)), eq_id


def test_sandwich_derivatives_match_reference():
    got = _sandwich(alpha_dirac(), 3).derive("xin").restrict()
    assert equal_on_sphere(got, paper_form("dirac", "(3.34)"))
    got = _sandwich(c_endo("PhiStar"), 3).derive("xin").restrict()
    assert equal_on_sphere(got, paper_form("dirac", "(3.39)"))
    got = _sandwich(p_signature(), 3).derive("xin").restrict()
    assert equal_on_sphere(got, paper_form("signature", "(5.44)"))


def test_projected_second_symbol_blocks_match_reference():
    core = first_order_sigma(DIRAC, -2)["core"]
    a1 = paper_form("dirac", "(3.53)")
    a2 = paper_form("dirac", "(3.54)")
    assert equal_on_sphere(pi_plus(core.restrict()), a1 - a2)

    beta = first_order_sigma(DIRAC, -2)["beta"]
    assert equal_on_sphere(pi_plus(beta.restrict()),
                           paper_form("dirac", "(3.55)"))

    b4 = first_order_sigma(SIGNATURE, -2)["B4"]
    assert equal_on_sphere(pi_plus(b4.restrict()),
                           paper_form("signature", "(5.22)"))


# -- reference comparison: documented misprints ------------------------------


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_projected_leading_symbol_sign_misprint(fam):
    """The reference prints pi^+ sigma_{-1} with a leading minus sign.

    The engine obtains +(c(xi') + i c(dx_n))/(2(xi_n - i)); the plus sign is
    the one consistent with the reference's own derivative form and with
    the numeric oracle.  The two expressions differ exactly by sign.
    """
    eq_id = "(3.29)" if fam.name == "dirac" else "(5.39)"
    got = pi_plus(first_order_sigma(fam, -1)["total"].restrict())
    ref = paper_form(fam.name, eq_id)
    assert not equal_on_sphere(got, ref)
    assert equal_on_sphere(got, -ref)


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_untwisted_inverse_cube_subleading_misprints(fam):
    """The printed sigma_{-4}(D^{-3}) and its xi_n derivative contain
    misprints; the engine form (validated through the composition recursion
    and the numeric oracle) disagrees with both printed expressions."""
    s4_id, ds4_id = (("(3.30)", "(3.31)") if fam.name == "dirac"
                     else ("(5.40)", "(5.41)"))
    s4 = cubed_sigma(fam, -4)["D1"]
    assert not equal_on_sphere(s4.restrict(), paper_form(fam.name, s4_id))
    assert not equal_on_sphere(s4.derive("xin").restrict(),
                               paper_form(fam.name, ds4_id))


def test_twisting_potential_derivative_misprint():
    """The reference prints d_xin(c(Phi)/|xi|^4) with numerator -2 xi_n
    c(Phi); the chain rule gives -4 xi_n c(Phi)."""
    got = _frac([c_endo("Phi")], 2).derive("xin").restrict()
    ref = paper_form("dirac", "(3.44)")
    assert not equal_on_sphere(got, ref)
    assert equal_on_sphere(got, ref * 2)


def test_signature_p_sandwich_block_misprint():
    """The printed third block repeats the normal-derivative terms that
    already appear in the first block; the engine's p-sandwich block alone
    therefore differs from it, while the printed three-block sum agrees
    with the engine once the duplicate is accounted for via block B123."""
    b123 = pi_plus(first_order_sigma(SIGNATURE, -2)["B123"].restrict())
    ref_sum = (paper_form("signature", "(5.19)")
               + paper_form("signature", "(5.20)")
               + paper_form("signature", "(5.21)"))
    assert not equal_on_sphere(b123, ref_sum)
    # the discrepancy is exactly the duplicated normal-derivative terms:
    # printed third block minus the engine's pure p-sandwich projection
    duplicate = (paper_form("signature", "(5.21)")
                 - pi_plus(_sandwich(p_signature(), 2).restrict()))
    assert equal_on_sphere(ref_sum - b123, duplicate)

