"""Fault-injection matrix: which engine stages the oracle can see.

Each row doubles the result of one engine stage and asserts that the
ledger no longer agrees with the numeric oracle.  The oracle takes its
factor symbols from the engine's own ``case_factor_pairs``, so a fault in
a stage that builds those symbols reaches both sides; those rows are
strict xfails, and each one fails loudly once the oracle builds that
stage independently.
"""

import pytest

from wresbd import boundary
from wresbd.boundary import BoundaryCase
from wresbd.ledger import build_ledger
from wresbd.symbols import RationalSymbol

_SHARED = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="stage shared by the engine and the oracle")


def _doubled(fn):
    return lambda *args: fn(*args) * 2


def _doubled_derive(var):
    derive = RationalSymbol.derive

    def faulty(sym, v):
        out = derive(sym, v)
        return out * 2 if v == var else out
    return faulty


@pytest.mark.parametrize("family, owner, attr, fault", [
    pytest.param("dirac", boundary, "_trace_symbol",
                 _doubled(boundary._trace_symbol), id="trace-dirac"),
    pytest.param("signature", boundary, "_trace_symbol",
                 _doubled(boundary._trace_symbol), id="trace-signature"),
    pytest.param("dirac", boundary, "integrate_line",
                 _doubled(boundary.integrate_line), id="line"),
    pytest.param("dirac", boundary, "sphere_integrate",
                 _doubled(boundary.sphere_integrate), id="sphere"),
    pytest.param("dirac", BoundaryCase, "prefactor",
                 _doubled(BoundaryCase.prefactor), id="prefactor"),
    pytest.param("dirac", boundary, "pi_plus", _doubled(boundary.pi_plus),
                 marks=_SHARED, id="pi_plus"),
    pytest.param("dirac", RationalSymbol, "restrict",
                 _doubled(RationalSymbol.restrict), marks=_SHARED,
                 id="restrict"),
    pytest.param("dirac", RationalSymbol, "derive", _doubled_derive("xn"),
                 marks=_SHARED, id="derive-xn"),
    pytest.param("dirac", RationalSymbol, "derive", _doubled_derive("xin"),
                 marks=_SHARED, id="derive-xin"),
])
def test_oracle_catches_doubled_stage(family, owner, attr, fault,
                                      monkeypatch):
    monkeypatch.setattr(owner, attr, fault)
    ledger = build_ledger(family, [1], case_ids={"aII"})
    assert ledger["all_match_oracle"] is False
