"""Catalog-level checks: recursion consistency and reference-form agreement.

Two kinds of test live here:

* internal consistency -- the inverse-cube symbols recomputed through the
  generic composition recursion must equal the hand-built catalog forms,
  and every catalog entry must be homogeneous of its stated order;
* reference comparison -- engine symbols are compared against the
  published intermediate forms.  Where the published form contains a
  misprint the test asserts the *documented disagreement* (the engine side
  is independently validated by the numeric oracle in the acceptance
  suite); silently "fixing" the comparison would hide the discrepancy.
"""

import pytest

from wresbd import catalog as C
from wresbd import refdata as R
from wresbd.catalog import (DIRAC, FAMILIES, SIGNATURE, alpha_dirac, c_endo,
                            cubed_sigma, first_order_sigma, invert_cubed,
                            p_signature, _frac, _sandwich, _sigma4_dm3)
from wresbd.symbols import RationalSymbol, pi_plus

FAMS = [DIRAC, SIGNATURE]


# -- internal consistency ----------------------------------------------------


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_inverse_cube_recursion_matches_catalog(fam):
    q3, q4 = invert_cubed(fam)
    assert q3.equals(cubed_sigma(fam, -3).expr)
    assert q4.equals(cubed_sigma(fam, -4).expr)


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
@pytest.mark.parametrize("order", [3, 2, -3, -4])
def test_cube_symbols_are_homogeneous(fam, order):
    assert cubed_sigma(fam, order).expr.homogeneity_order() == order


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
@pytest.mark.parametrize("order", [-1, -2])
def test_first_order_symbols_are_homogeneous(fam, order):
    assert first_order_sigma(fam, order).expr.homogeneity_order() == order


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_blocks_sum_to_expr(fam):
    for entry in (first_order_sigma(fam, -2), cubed_sigma(fam, -4)):
        total = RationalSymbol.zero(False)
        for b in entry.blocks.values():
            total = total + b
        assert total.equals(entry.expr)


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_leading_symbols_compose_to_identity(fam):
    p3 = cubed_sigma(fam, 3).expr
    q3 = cubed_sigma(fam, -3).expr
    assert (p3 * q3).equals(RationalSymbol.constant(C.CE.one()))
    assert (q3 * p3).equals(RationalSymbol.constant(C.CE.one()))


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
    s1 = first_order_sigma(fam, -1).expr
    got = pi_plus(s1.derive("xn").restrict())
    assert got.equals(R.paper_form(fam.name, ids["dxn_pp"]), on_sphere=True)
    got = pi_plus(s1.derive("xin").restrict())
    assert got.equals(R.paper_form(fam.name, ids["dxi_pp"]), on_sphere=True)


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_inverse_cube_derivatives_match_reference(fam):
    ids = _EQ_IDS[fam.name]
    q3 = cubed_sigma(fam, -3).expr
    pairs = [
        (q3.derive("xin").derive("xin"), ids["d2"]),
        (q3.derive("xin").derive("xn"), ids["dxidxn"]),
        (q3.derive("xin"), ids["dxi3"]),
    ]
    for sym, eq_id in pairs:
        assert sym.restrict().equals(R.paper_form(fam.name, eq_id),
                                     on_sphere=True), eq_id


def test_sandwich_derivatives_match_reference():
    got = _sandwich(alpha_dirac(), 3).derive("xin").restrict()
    assert got.equals(R.paper_form("dirac", "(3.34)"), on_sphere=True)
    got = _sandwich(c_endo("PhiStar"), 3).derive("xin").restrict()
    assert got.equals(R.paper_form("dirac", "(3.39)"), on_sphere=True)
    got = _sandwich(p_signature(), 3).derive("xin").restrict()
    assert got.equals(R.paper_form("signature", "(5.44)"), on_sphere=True)


def test_projected_second_symbol_blocks_match_reference():
    core = first_order_sigma(DIRAC, -2).blocks["core"]
    a1 = R.paper_form("dirac", "(3.53)")
    a2 = R.paper_form("dirac", "(3.54)")
    assert pi_plus(core.restrict()).equals(a1 - a2, on_sphere=True)

    beta = first_order_sigma(DIRAC, -2).blocks["beta"]
    assert pi_plus(beta.restrict()).equals(R.paper_form("dirac", "(3.55)"),
                                           on_sphere=True)

    b4 = first_order_sigma(SIGNATURE, -2).blocks["B4"]
    assert pi_plus(b4.restrict()).equals(R.paper_form("signature", "(5.22)"),
                                         on_sphere=True)


# -- reference comparison: documented misprints ------------------------------


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_projected_leading_symbol_sign_misprint(fam):
    """The reference prints pi^+ sigma_{-1} with a leading minus sign.

    The engine obtains +(c(xi') + i c(dx_n))/(2(xi_n - i)); the plus sign is
    the one consistent with the reference's own derivative form and with
    the numeric oracle.  The two expressions differ exactly by sign.
    """
    eq_id = "(3.29)" if fam.name == "dirac" else "(5.39)"
    got = pi_plus(first_order_sigma(fam, -1).expr.restrict())
    ref = R.paper_form(fam.name, eq_id)
    assert not got.equals(ref, on_sphere=True)
    assert got.equals(-ref, on_sphere=True)


@pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
def test_untwisted_inverse_cube_subleading_misprints(fam):
    """The printed sigma_{-4}(D^{-3}) and its xi_n derivative contain
    misprints; the engine form (validated through the composition recursion
    and the numeric oracle) disagrees with both printed expressions."""
    s4_id, ds4_id = (("(3.30)", "(3.31)") if fam.name == "dirac"
                     else ("(5.40)", "(5.41)"))
    s4 = _sigma4_dm3()
    assert not s4.restrict().equals(R.paper_form(fam.name, s4_id),
                                    on_sphere=True)
    assert not s4.derive("xin").restrict().equals(
        R.paper_form(fam.name, ds4_id), on_sphere=True)


def test_twisting_potential_derivative_misprint():
    """The reference prints d_xin(c(Phi)/|xi|^4) with numerator -2 xi_n
    c(Phi); the chain rule gives -4 xi_n c(Phi)."""
    got = _frac([c_endo("Phi")], 2).derive("xin").restrict()
    ref = R.paper_form("dirac", "(3.44)")
    assert not got.equals(ref, on_sphere=True)
    assert got.equals(ref * 2, on_sphere=True)


def test_signature_p_sandwich_block_misprint():
    """The printed third block repeats the normal-derivative terms that
    already appear in the first block; the engine's p-sandwich block alone
    therefore differs from it, while the printed three-block sum agrees
    with the engine once the duplicate is accounted for via block B123."""
    e2 = first_order_sigma(SIGNATURE, -2)
    b123 = pi_plus(e2.blocks["B123"].restrict())
    ref_sum = (R.paper_form("signature", "(5.19)")
               + R.paper_form("signature", "(5.20)")
               + R.paper_form("signature", "(5.21)"))
    assert not b123.equals(ref_sum, on_sphere=True)
    # the discrepancy is exactly the duplicated normal-derivative terms:
    # printed third block minus the engine's pure p-sandwich projection
    duplicate = (R.paper_form("signature", "(5.21)")
                 - pi_plus(_sandwich(p_signature(), 2).restrict()))
    assert (ref_sum - b123).equals(duplicate, on_sphere=True)
