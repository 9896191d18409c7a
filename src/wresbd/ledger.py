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


def _entry(case_id, block, exact, family_name, oracle_values):
    eq_id, ref = PUBLISHED[family_name][(case_id, block)]
    seed_rows = []
    all_match = True
    for seed, assignment, oval in oracle_values:
        ev = complex(exact.evaluate(assignment.env))
        ok = _match(ev, oval)
        all_match = all_match and ok
        seed_rows.append({
            "seed": seed,
            "exact": _cnum(ev),
            "oracle": _cnum(oval),
            "match_oracle": ok,
        })
    return {
        "id": eq_id,
        "case": case_id,
        "block": block,
        "exact": exact.render(),
        "paper": ref.render(),
        "match_paper": (exact - ref).is_zero(),
        "match_oracle": all_match,
        "seeds": seed_rows,
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
    grand_exact = Scalar.zero()
    grand_oracle = [0j] * len(seeds)  # per seed position; seeds may repeat
    selected = [c for c in CASES
                if case_ids is None or c.case_id in case_ids]
    for case in selected:
        # called through the module, so a patched builder is the one used
        pairs = boundary.case_factor_pairs(family, case)
        res = evaluate_case(family, case, pairs)
        per_seed = []
        for i, (seed, a) in enumerate(zip(seeds, assignments)):
            oblocks, ototal = oracle_case(family, case, a, pairs)
            per_seed.append((seed, a, oblocks, ototal))
            grand_oracle[i] += ototal
        grand_exact = grand_exact + res.value
        if len(res.blocks) > 1:
            for name, bval in res.blocks.items():
                ovals = [(s, a, ob[name]) for s, a, ob, _ in per_seed]
                entries.append(_entry(case.case_id, name, bval,
                                      family.name, ovals))
        ovals = [(s, a, ot) for s, a, _, ot in per_seed]
        entries.append(_entry(case.case_id, None, res.value, family.name,
                              ovals))

    if case_ids is None:
        ovals = list(zip(seeds, assignments, grand_oracle))
        entries.append(_entry("total", None, grand_exact, family.name,
                              ovals))
        entries.append(_entry("total", "mean-curvature form",
                              substitute_K(grand_exact), family.name,
                              ovals))
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
    if abs(d["im"]) < 1e-12:
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
    m = re.match(r"\((\d+)\.(\d+)\)", entry["id"])
    return (int(m.group(1)), int(m.group(2))) if m else (99, 99)


def render_json(ledger):
    """Deterministic JSON report; entries sorted by equation id."""
    out = dict(ledger)
    out["entries"] = sorted(ledger["entries"], key=_id_key)
    return json.dumps(out, indent=2, sort_keys=True) + "\n"
