"""Verification ledger: exact values, reference values, oracle values.

A ledger collects, for one operator family, every tabulated quantity of
the boundary computation -- per-case totals, named sub-blocks, the grand
total and its mean-curvature form -- and records for each:

* the engine's exact value (a rendered Scalar expression),
* the published reference value for the same equation id, verbatim,
* whether the two agree symbolically (``match_paper``),
* for each requested seed, the exact value and the independent numeric
  oracle value at that assignment and whether they agree numerically
  (``match_oracle``, relative tolerance 1e-8).

Reports are deterministic: the same inputs produce byte-identical text
and JSON output.
"""

import json
import re

from . import boundary
from .boundary import CASES, evaluate_case, substitute_K
from .catalog import FAMILIES
from .clifford import trace_ext_degree
from .oracle import OracleAssignment, ext_degree_trace, oracle_case
from .refdata import INTERIOR_TERMS, PUBLISHED
from .ring import Scalar

__all__ = ["build_ledger", "render_text", "render_json", "REL_TOL"]

REL_TOL = 1e-8
_ABS_FLOOR = 1e-10

def _cnum(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _match(a, b):
    a, b = complex(a), complex(b)
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), _ABS_FLOOR)


def _entry(case_id, block, exact, family_name, seeds, assignments, oracle):
    eq_id, ref = PUBLISHED[family_name][(case_id, block)]
    rows = []
    for seed, assignment, oval in zip(seeds, assignments, oracle):
        ev = complex(exact.evaluate(assignment.env))
        rows.append({"seed": seed, "exact": _cnum(ev), "oracle": _cnum(oval),
                     "match_oracle": _match(ev, oval)})
    return {
        "id": eq_id,
        "case": case_id,
        "block": block,
        "exact": exact.render(),
        "paper": ref.render(),
        "match_paper": (exact - ref).is_zero(),
        "match_oracle": all(row["match_oracle"] for row in rows),
        "seeds": rows,
    }


def _b6_pattern_entry():
    """Degreewise exterior traces of the published word pattern (5.29).

    The alternating products of wedge and contraction in the published
    intermediate step reduce to the word c_i chat_i c_6 chat_6; its trace
    on each exterior degree follows a binomial pattern that sums to zero
    over all degrees.  The exact rule is checked against the oracle's
    matrices degree by degree.
    """
    word = (("C", 1), ("CH", 1), ("C", 6), ("CH", 6))
    per_degree = [trace_ext_degree(word, m) for m in range(7)]
    total = sum(per_degree)
    return {
        "id": "(5.29)",
        "case": None,
        "block": "b6m-sum",
        "exact": "sum_m tr_m[c_i chat_i c_6 chat_6] = %d  (per degree: %s)"
                      % (total, per_degree),
        "paper": "0",
        "match_paper": total == 0,
        "match_oracle": all(_match(e, ext_degree_trace(word, m))
                            for m, e in enumerate(per_degree)),
        "seeds": [],
    }


def build_ledger(family, seeds, case_ids=None):
    """Full verification ledger for one family over the given seeds.

    Returns a JSON-serializable dict.  `case_ids` optionally restricts the
    evaluation to a subset of case ids (totals are then omitted); an empty
    selection, an id not in CASES or an empty `seeds` raises ValueError,
    since none of them would check anything against the oracle.
    """
    family = FAMILIES[family] if isinstance(family, str) else family
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    if case_ids is not None:
        if not set(case_ids):
            raise ValueError("no case selected")
        unknown = set(case_ids) - {c.case_id for c in CASES}
        if unknown:
            raise ValueError("unknown case ids: %s"
                             % ", ".join(map(repr, sorted(unknown))))
    assignments = [OracleAssignment(s) for s in seeds]
    entries = []

    def add(case_id, block, exact, oracle):
        entries.append(_entry(case_id, block, exact, family.name, seeds,
                              assignments, oracle))

    grand_exact = Scalar.zero()
    totals = []  # per case, its oracle totals aligned with seeds
    for case in CASES:
        if case_ids is not None and case.case_id not in case_ids:
            continue
        # called through the module, so a patched builder is the one used
        pairs = boundary.case_factor_pairs(family, case)
        res = evaluate_case(family, case, pairs)
        oracle = [oracle_case(family, case, a, pairs) for a in assignments]
        if len(res.blocks) > 1:
            for name, bval in res.blocks.items():
                add(case.case_id, name, bval, [ob[name] for ob, _ in oracle])
        totals.append([ot for _, ot in oracle])
        add(case.case_id, None, res.value, totals[-1])
        grand_exact = grand_exact + res.value

    if case_ids is None:
        # summed per seed position in case order; seeds may repeat
        grand_oracle = [sum(col, 0j) for col in zip(*totals)]
        add("total", None, grand_exact, grand_oracle)
        add("total", "mean-curvature form", substitute_K(grand_exact),
            grand_oracle)
        if family.name == "signature":
            entries.append(_b6_pattern_entry())

    return {
        "family": family.name,
        "seeds": seeds,
        "rel_tol": REL_TOL,
        "interior_term": INTERIOR_TERMS[family.name],
        "entries": entries,
        "all_match_oracle": all(e["match_oracle"] for e in entries),
    }


def _fmt_c(d):
    # an imaginary part this small against |z| is float noise of the sums
    if abs(d["im"]) < 1e-12 * max(1.0, abs(complex(d["re"], d["im"]))):
        return "%.12g" % d["re"]
    return "%.12g%+.12gi" % (d["re"], d["im"])


def render_text(ledger):
    """Deterministic plain-text report."""
    lines = []
    lines.append("boundary-term verification: %s family" % ledger["family"])
    lines.append("seeds: %s    relative tolerance: %g"
                 % (",".join(str(s) for s in ledger["seeds"]),
                    ledger["rel_tol"]))
    lines.append("interior term (reported, not verified here):")
    lines.append("  " + ledger["interior_term"])
    lines.append("")
    for e in ledger["entries"]:
        where = e["case"] or "-"
        if e["block"]:
            where += "/" + e["block"]
        lines.append("%s  [%s]" % (e["id"], where))
        lines.append("  exact:  %s" % e["exact"])
        lines.append("  paper:  %s  -> match_paper=%s"
                     % (e["paper"], e["match_paper"]))
        for row in e["seeds"]:
            lines.append(
                "  seed %s: exact=%s oracle=%s match_oracle=%s"
                % (row["seed"], _fmt_c(row["exact"]),
                   _fmt_c(row["oracle"]), row["match_oracle"]))
        if not e["seeds"]:
            lines.append("  (symbolic check only) match=%s"
                         % e["match_oracle"])
        lines.append("")
    lines.append("all_match_oracle: %s" % ledger["all_match_oracle"])
    return "\n".join(lines) + "\n"


def _id_key(entry):
    m = re.fullmatch(r"\((\d+)\.(\d+)\)", entry["id"])
    if m is None:
        raise ValueError("malformed equation id %r" % (entry["id"],))
    return int(m.group(1)), int(m.group(2))


def render_json(ledger):
    """Deterministic JSON report; entries sorted by equation id."""
    out = dict(ledger)
    out["entries"] = sorted(ledger["entries"], key=_id_key)
    return json.dumps(out, indent=2, sort_keys=True) + "\n"
