"""The three workloads: their imports, their seeded inputs and one op each.

This module imports only the standard library at load time, so that a
worker's set-up time is the cost of the workload's own imports.  An op
calls the program through module attributes looked up at call time, so
the tracer's wrappers see every call.
"""

import itertools
import random

FAMILIES = ("dirac", "signature")
SPIN_GENS = tuple(("C", j) for j in range(1, 7))
ALL_GENS = SPIN_GENS + tuple(("CH", j) for j in range(1, 7))
MAX_WORD = 4


def oracle_seeds(seed):
    """Three consecutive oracle seeds; --seed 1 gives the paper's 1,2,3."""
    base = seed % (2 ** 31)
    return [base, base + 1, base + 2]


# -- verify: `wresbd verify` for both families, JSON report ------------------


def verify_imports():
    import wresbd.cli
    return wresbd.cli


def verify_inputs(seed):
    return {"seeds": oracle_seeds(seed)}


def verify_op(cli, inputs, out_dir, tag):
    seeds = ",".join(str(s) for s in inputs["seeds"])
    out = {}
    for fam in FAMILIES:
        path = "%s/verify-%s-%s.json" % (out_dir, tag, fam)
        rc = cli.main(["verify", "--family", fam, "--seeds", seeds,
                       "--format", "json", "--out", path])
        out[fam] = {"rc": rc, "path": path}
    return out


def verify_output(cli, result):
    return result


# -- assemble: the exact engine for both families ----------------------------


def assemble_imports():
    import wresbd
    return wresbd


def assemble_inputs(seed):
    # the engine takes no inputs; the seed picks the oracle assignments the
    # totals are checked at
    return {"seeds": oracle_seeds(seed)}


def assemble_op(wresbd, inputs, out_dir, tag):
    return {fam: wresbd.assemble(fam) for fam in FAMILIES}


def assemble_output(wresbd, result):
    out = {}
    for fam, (results, total) in result.items():
        out[fam] = {
            "cases": {cid: res.value.render() for cid, res in results.items()},
            "blocks": {cid: {name: val.render()
                             for name, val in res.blocks.items()}
                       for cid, res in results.items()},
            "total": total.render(),
            "total_K": wresbd.substitute_K(total).render(),
        }
    return out


# -- algebra: words, spin and exterior traces --------------------------------


def algebra_imports():
    import wresbd
    import wresbd.clifford
    return wresbd


def _words(gens):
    return [w for n in range(MAX_WORD + 1)
            for w in itertools.product(gens, repeat=n)]


def algebra_inputs(seed):
    """Every word of length <= 4, in seeded order, each with a seeded
    nonzero integer coefficient."""
    rng = random.Random(seed)
    out = {}
    for rep, gens in (("spin", SPIN_GENS), ("ext", ALL_GENS)):
        words = _words(gens)
        rng.shuffle(words)
        out[rep] = [(w, rng.choice((-1, 1)) * rng.randint(1, 9))
                    for w in words]
    return out


def algebra_op(wresbd, inputs, out_dir, tag):
    cl = wresbd.clifford
    out = {}
    for rep, trace_name in (("spin", "trace_spin"), ("ext", "trace_ext")):
        traces = []
        for word, coeff in inputs[rep]:
            trace = getattr(cl, trace_name)
            t = trace(cl.CliffordElement.word(word, coeff))
            rot = word[1:] + word[:1]
            r = trace(cl.CliffordElement.word(rot, coeff))
            traces.append((t, r))
        out[rep] = traces
    return out


def algebra_output(wresbd, result):
    return {rep: [(t.render(), r.render()) for t, r in traces]
            for rep, traces in result.items()}


WORKLOADS = {
    "verify": (verify_imports, verify_inputs, verify_op, verify_output),
    "assemble": (assemble_imports, assemble_inputs, assemble_op,
                 assemble_output),
    "algebra": (algebra_imports, algebra_inputs, algebra_op, algebra_output),
}
