"""Correctness checks on the outputs of each workload.

Every check recomputes a property the method must have, or compares with
an independent computation; none compares with a stored copy of earlier
output.  Each check returns a list of problems, empty when the output is
correct.

Exact values arrive as the program's rendered expressions (a sum of terms
``coeff*SYM*SYM**2...`` with Gaussian-rational coefficients).  They are
parsed here into ``{monomial: (re, im)}`` with Fraction parts, so that sums
of blocks and cases are checked exactly, independently of the program's
own arithmetic.
"""

import json
import re
from fractions import Fraction

import numpy as np

import workloads

CASE_IDS = ("aI", "aII", "aIII", "b", "c")
REL_TOL = 1e-8
ABS_FLOOR = 1e-10
SUM_TOL = 1e-9

REQUIRED_IDS = {
    "dirac": ("(3.12)", "(3.18)", "(3.23)", "(3.33)", "(3.38)", "(3.43)",
              "(3.48)", "(3.49)", "(3.59)", "(3.63)", "(3.64)", "(3.65)",
              "(3.67)"),
    "signature": ("(5.5)", "(5.10)", "(5.15)", "(5.35)", "(5.36)", "(5.37)",
                  "(5.43)", "(5.45)", "(5.47)", "(5.48)", "(5.49)", "(5.50)",
                  "(5.52)", "(5.29)"),
}

# -- exact expressions ---------------------------------------------------------

_NUM = r"\d+(?:/\d+)?"
_PAREN = re.compile(r"\((-?%s)([+-])(?:(%s)\*)?I\)(?:\*(.+))?$" % (_NUM, _NUM))
_SYM = re.compile(r"([A-Za-z][A-Za-z0-9:]*)(?:\^(\d+))?")


def _term(text):
    """(coefficient, monomial) of one unsigned rendered term."""
    m = _PAREN.match(text)
    if m:
        im = Fraction(m.group(3) or 1)
        coeff = (Fraction(m.group(1)), im if m.group(2) == "+" else -im)
        rest = m.group(4)
        factors = rest.replace("**", "^").split("*") if rest else []
    else:
        factors = text.replace("**", "^").split("*")
        coeff = (Fraction(1), Fraction(0))
        if re.fullmatch(_NUM, factors[0]):
            coeff = (Fraction(factors.pop(0)), Fraction(0))
        if factors and factors[0] == "I":
            factors.pop(0)
            coeff = (-coeff[1], coeff[0])
    mono = []
    for f in factors:
        s = _SYM.fullmatch(f)
        if not s:
            raise ValueError("bad factor %r in %r" % (f, text))
        mono.append((s.group(1), int(s.group(2) or 1)))
    return coeff, tuple(sorted(mono))


def parse_exact(text):
    """Parse a rendered exact value into {monomial: (re, im)}."""
    text = text.strip()
    if text == "0":
        return {}
    pieces = re.split(r" ([+-]) ", text)
    signs = [1] + [1 if s == "+" else -1 for s in pieces[1::2]]
    out = {}
    for sign, term in zip(signs, pieces[0::2]):
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        if not term:
            raise ValueError("empty term in %r" % text)
        (re_, im), mono = _term(term)
        old = out.get(mono, (0, 0))
        out[mono] = (old[0] + sign * re_, old[1] + sign * im)
    return {m: c for m, c in out.items() if c != (0, 0)}


def add_exact(*exprs):
    out = {}
    for e in exprs:
        for m, (a, b) in e.items():
            old = out.get(m, (0, 0))
            out[m] = (old[0] + a, old[1] + b)
    return {m: c for m, c in out.items() if c != (0, 0)}


def evaluate_exact(expr, env):
    total = 0j
    for mono, (a, b) in expr.items():
        v = complex(a, b)
        for sym, e in mono:
            v *= env[sym] ** e
        total += v
    return total


def _agree(a, b):
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_FLOOR)


def _sums_to(parts, whole):
    scale = sum(abs(p) for p in parts) + abs(whole)
    return abs(sum(parts) - whole) <= SUM_TOL * scale + 1e-12


def _c(d):
    return complex(d["re"], d["im"])


# -- verify ----------------------------------------------------------------------


def check_verify_report(fam, seeds, rc, text):
    """Check one `wresbd verify --format json` report."""
    try:
        rep = json.loads(text)
        return _check_verify(fam, seeds, rc, rep)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return ["%s: malformed report (%s: %s)"
                % (fam, type(exc).__name__, exc)]


def _check_verify(fam, seeds, rc, rep):
    errs = []
    if rep["family"] != fam or rep["seeds"] != seeds:
        errs.append("%s: report is for %s at %s"
                    % (fam, rep["family"], rep["seeds"]))
    entries = rep["entries"]
    ids = [e["id"] for e in entries]
    errs += ["%s: equation %s missing" % (fam, i)
             for i in REQUIRED_IDS[fam] if i not in ids]
    for e in entries:
        where = "%s %s" % (fam, e["id"])
        if not e["seeds"]:
            errs += _check_pattern_entry(where, e)
            continue
        if [r["seed"] for r in e["seeds"]] != seeds:
            errs.append("%s: seed rows %s" % (where, e["seeds"]))
        oks = []
        for r in e["seeds"]:
            ok = _agree(_c(r["exact"]), _c(r["oracle"]))
            if not ok:
                errs.append("%s seed %s: exact %s and oracle %s differ"
                            % (where, r["seed"], _c(r["exact"]),
                               _c(r["oracle"])))
            if r["match_oracle"] is not ok:
                errs.append("%s seed %s: match_oracle=%s but the numbers "
                            "say %s" % (where, r["seed"], r["match_oracle"],
                                        ok))
            oks.append(ok)
        if e["match_oracle"] is not all(oks):
            errs.append("%s: entry flag disagrees with its rows" % where)
    overall = all(e["match_oracle"] for e in entries)
    if rep["all_match_oracle"] is not overall:
        errs.append("%s: all_match_oracle disagrees with the entries" % fam)
    if rc != (0 if overall else 1):
        errs.append("%s: exit status %s" % (fam, rc))

    cases = {e["case"]: e for e in entries
             if e["case"] in CASE_IDS and e["block"] is None}
    if set(cases) != set(CASE_IDS):
        return errs + ["%s: cases %s" % (fam, sorted(cases))]
    blocks = {}
    for e in entries:
        if e["case"] in CASE_IDS and e["block"] is not None:
            blocks.setdefault(e["case"], []).append(e)
    total = [e for e in entries if e["case"] == "total" and e["block"] is None]
    theorem = [e for e in entries if e["case"] == "total"
               and e["block"] == "mean-curvature form"]
    if len(total) != 1 or len(theorem) != 1:
        return errs + ["%s: total entries missing" % fam]
    total, theorem = total[0], theorem[0]

    if cases["aI"]["exact"] != "0":
        errs.append("%s: case aI is %s, not 0" % (fam, cases["aI"]["exact"]))
    for cid, parts in blocks.items():
        if add_exact(*(parse_exact(b["exact"]) for b in parts)) != \
                parse_exact(cases[cid]["exact"]):
            errs.append("%s: blocks of %s do not sum to it exactly"
                        % (fam, cid))
        for i, seed in enumerate(seeds):
            if not _sums_to([_c(b["seeds"][i]["exact"]) for b in parts],
                            _c(cases[cid]["seeds"][i]["exact"])):
                errs.append("%s seed %s: blocks of %s do not sum to it"
                            % (fam, seed, cid))
    if add_exact(*(parse_exact(cases[c]["exact"]) for c in CASE_IDS)) != \
            parse_exact(total["exact"]):
        errs.append("%s: cases do not sum to the total exactly" % fam)
    for i, seed in enumerate(seeds):
        tot = _c(total["seeds"][i]["exact"])
        if not _sums_to([_c(cases[c]["seeds"][i]["exact"])
                         for c in CASE_IDS], tot):
            errs.append("%s seed %s: cases do not sum to the total"
                        % (fam, seed))
        if not _sums_to([_c(theorem["seeds"][i]["exact"])], tot):
            errs.append("%s seed %s: mean-curvature form differs from the "
                        "total" % (fam, seed))
    return errs


def _check_pattern_entry(where, e):
    # "sum_m tr_m[...] = T  (per degree: [t0, ..., t6])"
    m = re.search(r"= (-?\d+)\s+\(per degree: \[([-\d, ]*)\]\)$", e["exact"])
    if not m:
        return ["%s: unreadable symbolic entry %r" % (where, e["exact"])]
    per_degree = [int(x) for x in m.group(2).split(",")]
    total = int(m.group(1))
    errs = []
    if len(per_degree) != 7 or sum(per_degree) != total:
        errs.append("%s: per-degree traces %s do not sum to %s"
                    % (where, per_degree, total))
    if e["match_oracle"] is not (total == 0):
        errs.append("%s: flag disagrees with the traces" % where)
    return errs


def check_identical(texts):
    """Reports of the same input must be byte-identical."""
    return ([] if all(t == texts[0] for t in texts)
            else ["reports of the same input differ"])


# -- assemble ----------------------------------------------------------------------


def oracle_reference(seeds):
    """Oracle totals at seeded assignments: {family: [(env, total)]}.

    Uses the program's numeric oracle (matrix traces, quadrature, Gamma
    moments), a different method from the exact engine under test.
    """
    from wresbd.boundary import CASES
    from wresbd.oracle import OracleAssignment, oracle_case

    ref = {}
    for fam in workloads.FAMILIES:
        rows = []
        for seed in seeds:
            a = OracleAssignment(seed)
            total = sum(oracle_case(fam, case, a)[1] for case in CASES)
            rows.append((dict(a.env), total))
        ref[fam] = rows
    return ref


def check_assemble(output, reference):
    try:
        return _check_assemble(output, reference)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return ["malformed assemble output (%s: %s)"
                % (type(exc).__name__, exc)]


def _check_assemble(output, reference):
    errs = []
    for fam in workloads.FAMILIES:
        out = output[fam]
        if set(out["cases"]) != set(CASE_IDS):
            errs.append("%s: cases %s" % (fam, sorted(out["cases"])))
            continue
        cases = {c: parse_exact(out["cases"][c]) for c in CASE_IDS}
        if out["cases"]["aI"] != "0":
            errs.append("%s: case aI is %s, not 0" % (fam, out["cases"]["aI"]))
        for cid, blocks in out["blocks"].items():
            if add_exact(*map(parse_exact, blocks.values())) != cases[cid]:
                errs.append("%s: blocks of %s do not sum to it" % (fam, cid))
        total = parse_exact(out["total"])
        if add_exact(*cases.values()) != total:
            errs.append("%s: total is not the sum of the cases" % fam)
        total_k = parse_exact(out["total_K"])
        if any(sym == "H1" for mono in total_k for sym, _ in mono):
            errs.append("%s: mean-curvature form still holds H1" % fam)
        for env, oracle in reference[fam]:
            exact = evaluate_exact(total, env)
            if not _agree(exact, oracle):
                errs.append("%s: total %s, oracle %s at h1=%s"
                            % (fam, exact, oracle, env["H1"]))
            if not _sums_to([evaluate_exact(total_k, env)], exact):
                errs.append("%s: substitute_K changes the value at h1=%s"
                            % (fam, env["H1"]))
    return errs


# -- algebra -----------------------------------------------------------------------


def _spin_matrices():
    """Cl(6) on C^8 from Pauli Kronecker products, generators squaring
    to -1: gamma_{2k+1}, gamma_{2k+2} = I^(2-k) x i*sigma_{1,2} x sigma_3^k."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    one = np.eye(2, dtype=complex)
    gens = {}
    for k in range(3):
        for n, s in enumerate((s1, s2)):
            m = np.eye(1, dtype=complex)
            for f in [one] * (2 - k) + [1j * s] + [s3] * k:
                m = np.kron(m, f)
            gens[("C", 2 * k + n + 1)] = m
    return gens


def _ext_matrices():
    """c(e_j) = wedge - contraction and hat-c(e_j) = wedge + contraction on
    the exterior algebra of R^6, basis e_S indexed by the bitmask of S."""
    gens = {}
    for j in range(6):
        bit = 1 << j
        wedge = np.zeros((64, 64), dtype=complex)
        for s in range(64):
            if not s & bit:
                # moving e_j past the basis vectors of S below it
                wedge[s | bit, s] = (-1) ** bin(s & (bit - 1)).count("1")
        contraction = wedge.T
        gens[("C", j + 1)] = wedge - contraction
        gens[("CH", j + 1)] = wedge + contraction
    return gens


def _signed_permutation(m):
    """(perm, phase) with m[perm[s], s] = phase[s], the only nonzero of
    column s."""
    nz = m != 0
    if not (nz.sum(axis=0) == 1).all():
        raise ValueError("generator matrix is not monomial")
    perm = nz.argmax(axis=0)
    return perm, m[perm, np.arange(m.shape[0])]


def _check_relations(gens):
    eye = np.eye(next(iter(gens.values())).shape[0])
    for g, a in gens.items():
        square = 1 if g[0] == "CH" else -1
        if not np.allclose(a @ a, square * eye):
            raise ValueError("%s does not square to %d" % (g, square))
        for h, b in gens.items():
            if h != g and not np.allclose(a @ b + b @ a, 0):
                raise ValueError("%s and %s do not anticommute" % (g, h))


def matrix_traces(words, gens):
    """Integer trace of each word's matrix product, left to right."""
    _check_relations(gens)
    names = sorted(gens)
    index = {g: i for i, g in enumerate(names)}
    perms, phases = zip(*(_signed_permutation(gens[g]) for g in names))
    perm, phase = np.array(perms), np.array(phases)
    dim = perm.shape[1]
    out = [0] * len(words)
    by_len = {}
    for i, w in enumerate(words):
        by_len.setdefault(len(w), []).append(i)
    for n, rows in by_len.items():
        idx = np.array([[index[g] for g in words[i]] for i in rows],
                       dtype=np.intp).reshape(len(rows), n)
        state = np.tile(np.arange(dim), (len(rows), 1))
        ph = np.ones(state.shape, dtype=complex)
        for pos in reversed(range(n)):
            g = idx[:, pos:pos + 1]
            ph = ph * phase[g, state]
            state = perm[g, state]
        tr = (ph * (state == np.arange(dim))).sum(axis=1)
        for i, t in zip(rows, tr):
            if abs(t.imag) > 1e-9 or abs(t.real - round(t.real)) > 1e-9:
                raise ValueError("non-integer trace %s" % t)
            out[i] = int(round(t.real))
    return out


def algebra_reference(inputs):
    """Benchmark-built traces {rep: [trace]} for the words of `inputs`."""
    ref = {}
    for rep, gens, dim in (("spin", _spin_matrices(), 8),
                           ("ext", _ext_matrices(), 64)):
        words = [w for w, _ in inputs[rep]]
        traces = matrix_traces(words, gens)
        for w, t in zip(words, traces):
            reduced_empty = all(n % 2 == 0 for n in
                                (w.count(g) for g in set(w)))
            if (t != 0) != reduced_empty or (t and abs(t) != dim):
                raise ValueError("reference trace %s of %s" % (t, w))
        ref[rep] = traces
    return ref


def check_algebra(output, inputs, reference):
    errs = []
    for rep in ("spin", "ext"):
        got = output[rep]
        if len(got) != len(inputs[rep]):
            errs.append("%s: %d traces for %d words"
                        % (rep, len(got), len(inputs[rep])))
            continue
        for (word, coeff), t, (text, rot_text) in zip(inputs[rep],
                                                      reference[rep], got):
            want = ({(("DIMF", 1),): (Fraction(coeff * t), Fraction(0))}
                    if t else {})
            try:
                ok = parse_exact(text) == want
                ok_rot = parse_exact(rot_text) == want
            except ValueError as exc:
                errs.append("%s %s: %s" % (rep, word, exc))
                continue
            if not ok:
                errs.append("%s %s*%s: trace %s, matrices give %s"
                            % (rep, coeff, word, text, coeff * t))
            if not ok_rot:
                errs.append("%s %s*%s: rotated trace %s differs"
                            % (rep, coeff, word, rot_text))
            if len(errs) > 20:
                return errs
    return errs
