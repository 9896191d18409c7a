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

The package exports the exact engine's entry points, ``assemble`` and
``substitute_K``.  Every other name is read from its module: the report
functions ``build_ledger``, ``render_text`` and ``render_json`` from
:mod:`wresbd.ledger`, which importing the package does not load.
"""

from .boundary import assemble, substitute_K

__all__ = ["assemble", "substitute_K"]
