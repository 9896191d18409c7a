"""Walk one boundary case of the twisted Dirac family through the pipeline.

The general term of a boundary case is

    (-i)^(|a|+j+k+1) / (a! (j+k+1)!)
      * integral over xi' of the line integral in xi_n of
        tr[ d_xn^j d_xi'^a d_xin^k pi^+ sigma_r  *
            d_x'^a d_xin^(j+1) d_xn^k sigma_l ].

Case b has symbol orders (r, l) = (-1, -4) and j = k = |a| = 0, so the
second factor carries the one xi_n-derivative that every case has.  The
script prints the case's indices and prefactor, the names of the blocks
the second factor splits into, each block's value and the case value.
"""

from wresbd.boundary import CASES, case_factor_pairs, evaluate_case
from wresbd.catalog import DIRAC

case = next(c for c in CASES if c.case_id == "b")
print("case %s: r=%d, l=%d, j=%d, k=%d, |alpha|=%d"
      % (case.case_id, case.r, case.ell, case.j, case.k, case.nalpha))
print("prefactor:", case.prefactor().render())
print()

pairs = case_factor_pairs(DIRAC, case)
print("second factor splits into %d blocks: %s"
      % (len(pairs), ", ".join(sorted(pairs))))
print()

result = evaluate_case(DIRAC, case, pairs)
for name in sorted(result.blocks):
    print("  block %-5s -> %s" % (name, result.blocks[name].render()))
print()
print("case value:", result.value.render())
