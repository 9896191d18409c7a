"""Exact engine for boundary contributions to the noncommutative residue.

Layers, bottom to top, on the standard library only:

* :mod:`wresbd.ring` -- exact Gaussian-rational scalars and sphere moments;
* :mod:`wresbd.clifford` -- Clifford/endomorphism words, normal form,
  one symbolic trace rule for the spin and exterior modules;
* :mod:`wresbd.symbols` -- rational symbols in the normal covariable,
  the boundary projection pi+, residue line integral;
* :mod:`wresbd.catalog` -- operator-family symbol catalogs, the inverse
  symbols from one parametrix step;
* :mod:`wresbd.boundary` -- case enumeration, exact case evaluation,
  assembly, mean-curvature substitution;
* :mod:`wresbd.oracle` -- independent seeded numeric cross-check, and
  the only home of the spin and exterior representation matrices;
* :mod:`wresbd.ledger` / :mod:`wresbd.cli` -- verification reports.

Importing the package loads neither the ledger nor the oracle: their
names are imported on first use.
"""

import importlib

from .boundary import (CASES, BoundaryCase, CaseResult, assemble,
                       evaluate_case, substitute_K)
from .catalog import (DIRAC, FAMILIES, SIGNATURE, OperatorFamily,
                      cubed_sigma, first_order_sigma)
from .clifford import CliffordElement, normal_form, trace_ext, trace_spin
from .ring import GRat, Scalar, sphere_integrate, sphere_moment
from .symbols import NotIntegrable, RationalSymbol, integrate_line, pi_plus

# the numeric names, imported on first use (PEP 562)
_LAZY = {"build_ledger": "ledger", "render_json": "ledger",
         "render_text": "ledger", "OracleAssignment": "oracle",
         "ext_degree_trace": "oracle", "oracle_case": "oracle"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(importlib.import_module("." + _LAZY[name], __name__), name)


__all__ = [
    "BoundaryCase",
    "CASES",
    "CaseResult",
    "CliffordElement",
    "DIRAC",
    "FAMILIES",
    "GRat",
    "NotIntegrable",
    "OperatorFamily",
    "OracleAssignment",
    "RationalSymbol",
    "SIGNATURE",
    "Scalar",
    "assemble",
    "build_ledger",
    "cubed_sigma",
    "evaluate_case",
    "ext_degree_trace",
    "first_order_sigma",
    "integrate_line",
    "normal_form",
    "oracle_case",
    "pi_plus",
    "render_json",
    "render_text",
    "sphere_integrate",
    "sphere_moment",
    "substitute_K",
    "trace_ext",
    "trace_spin",
]
