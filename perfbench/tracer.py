"""Spans and counts around the calls one wresbd layer makes into another.

The tracer edits nothing under ``src/``.  It replaces, at runtime, the names
that the layers import from each other (``wresbd.boundary.pi_plus``,
``wresbd.oracle.quad``, ...) with wrappers that time and count each call.
A hook whose target no longer exists is skipped, and every metric that
depends only on skipped hooks is reported as absent (``None``), so the
benchmark keeps working when internals move.
"""

import importlib
import time

_clock = time.perf_counter

# ring_microtimings: samples per metric and multiplies per sample
MICRO_BATCHES = 7
MICRO_REPS = 2000

# (hook name, module, dotted attribute path).  Several hooks may feed one
# metric; see METRICS.
HOOKS = (
    ("sphere_integrate", "wresbd.boundary", "sphere_integrate"),
    ("trace", "wresbd.catalog", "DIRAC.trace"),
    ("trace", "wresbd.catalog", "SIGNATURE.trace"),
    ("trace", "wresbd.clifford", "trace_spin"),
    ("trace", "wresbd.clifford", "trace_ext"),
    ("word", "wresbd.clifford", "CliffordElement.word"),
    ("trace_symbol", "wresbd.boundary", "_trace_symbol"),
    ("pair_value", "wresbd.boundary", "_pair_value"),
    ("pi_plus", "wresbd.boundary", "pi_plus"),
    ("derive_restrict", "wresbd.symbols", "RationalSymbol.derive"),
    ("derive_restrict", "wresbd.symbols", "RationalSymbol.restrict"),
    ("line_integral", "wresbd.boundary", "integrate_line"),
    ("sigma", "wresbd.boundary", "cubed_sigma"),
    ("sigma", "wresbd.boundary", "first_order_sigma"),
    ("factor_pairs", "wresbd.boundary", "case_factor_pairs"),
    ("factor_pairs", "wresbd.oracle", "case_factor_pairs"),
    ("evaluate_case", "wresbd.boundary", "evaluate_case"),
    ("evaluate_case", "wresbd.ledger", "evaluate_case"),
    ("assignment", "wresbd.ledger", "OracleAssignment"),
    ("integrand", "wresbd.oracle", "_pair_integrand_polys"),
    ("quad", "wresbd.oracle", "quad"),
    ("compare", "wresbd.ledger", "_entry"),
    ("render", "wresbd.cli", "render_json"),
    ("render", "wresbd.cli", "render_text"),
)

# metric -> (hook name, what to read): "incl" inclusive seconds, "self"
# seconds not spent in other wrapped calls, "calls", or a named counter.
METRICS = {
    "ring.sphere_integral_s": ("sphere_integrate", "incl"),
    "clifford.trace_s": ("trace", "incl"),
    "clifford.word_s": ("word", "incl"),
    "clifford.product_terms": ("trace_symbol", "product_terms"),
    "clifford.trace_kept_terms": ("trace_symbol", "kept_terms"),
    "symbols.pi_plus_s": ("pi_plus", "incl"),
    "symbols.derive_restrict_s": ("derive_restrict", "incl"),
    "symbols.product_s": ("pair_value", "self"),
    "symbols.line_integral_s": ("line_integral", "incl"),
    "catalog.sigma_s": ("sigma", "incl"),
    "catalog.sigma_calls": ("sigma", "calls"),
    "boundary.factor_pairs_s": ("factor_pairs", "incl"),
    "boundary.factor_pairs_calls": ("factor_pairs", "calls"),
    "boundary.evaluate_case_s": ("evaluate_case", "incl"),
    "oracle.assignment_s": ("assignment", "incl"),
    "oracle.integrand_s": ("integrand", "incl"),
    "oracle.quad_s": ("quad", "incl"),
    "oracle.quad_calls": ("quad", "calls"),
    "oracle.integrand_evals": ("quad", "integrand_evals"),
    "ledger.compare_s": ("compare", "incl"),
    "ledger.render_s": ("render", "incl"),
}

COUNT_METRICS = frozenset(m for m, (_, what) in METRICS.items()
                          if what not in ("incl", "self"))


def _resolve(module, path):
    """Return (owner, attribute name) for a dotted path, or None."""
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    if not hasattr(obj, parts[-1]):
        return None
    return obj, parts[-1]


def _count_product_terms(counts, args):
    # _trace_symbol(family, product): every (word, endo) term of the factor
    # product; only terms with an empty Clifford word have a nonzero trace
    # (the algebra workload checks this), so those are the kept ones.
    made = kept = 0
    for poly in args[1].terms.values():
        for ce in poly:
            for word, _endo in ce.terms:
                made += 1
                if not word:
                    kept += 1
    counts["product_terms"] = counts.get("product_terms", 0) + made
    counts["kept_terms"] = counts.get("kept_terms", 0) + kept


class Tracer:
    """Installs the hooks and aggregates the wrapped calls per hook."""

    def __init__(self):
        self.incl = {}
        self.self_ = {}
        self.calls = {}
        self.counts = {}
        self.installed = set()
        self.missing = []
        self._stack = []  # [hook name, start, child seconds]
        self._restore = []

    def install(self, hooks=HOOKS):
        for name, module, path in hooks:
            target = _resolve(module, path)
            if target is None:
                self.missing.append("%s.%s" % (module, path))
                continue
            owner, attr = target
            raw = (owner.__dict__[attr]
                   if isinstance(owner, type) and attr in owner.__dict__
                   else getattr(owner, attr))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, getattr(owner, attr))
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            self.installed.add(name)

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, name, fn):
        stack = self._stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            frame = [name, _clock(), 0.0]
            stack.append(frame)
            try:
                if name == "trace_symbol":
                    _count_product_terms(counts, args)
                elif name == "quad":
                    args = (_counted(counts, args[0]),) + args[1:]
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                self._close(frame, end)

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, end):
        name, start, child = frame
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_[name] = self.self_.get(name, 0.0) + dur - child
        if all(f[0] != name for f in self._stack):
            self.incl[name] = self.incl.get(name, 0.0) + dur

    def metrics(self):
        """Per-layer metric values of everything recorded so far."""
        out = {}
        for metric, (hook, what) in METRICS.items():
            if hook not in self.installed:
                out[metric] = None
            elif what == "incl":
                out[metric] = self.incl.get(hook, 0.0)
            elif what == "self":
                out[metric] = self.self_.get(hook, 0.0)
            elif what == "calls":
                out[metric] = self.calls.get(hook, 0)
            else:
                out[metric] = self.counts.get(what, 0)
        made = out["clifford.product_terms"]
        ratio = None
        if made is not None:
            ratio = out["clifford.trace_kept_terms"] / made if made else 0.0
        out["clifford.trace_kept_ratio"] = ratio
        return out


def _counted(counts, func):
    def integrand(*args):
        counts["integrand_evals"] = counts.get("integrand_evals", 0) + 1
        return func(*args)
    return integrand


def ring_microtimings():
    """Median microseconds of one GRat and one Scalar multiply.

    The operands have the sizes the pipeline works with: Gaussian rationals
    with small denominators, and Scalars of five XI-monomials times three
    symbol terms.
    """
    from fractions import Fraction

    from wresbd.ring import GRat, Scalar

    ga = GRat(Fraction(-15, 16), Fraction(3, 32))
    gb = GRat(Fraction(5, 4), Fraction(-7, 12))
    sa = Scalar.zero()
    for j in range(1, 6):
        sa = sa + Scalar.sym("XI%d" % j, 2, Fraction(j, 7))
    sb = (Scalar.sym("H1", 1, Fraction(-5, 4))
          + Scalar.sym("DIMF", 1, GRat(0, Fraction(3, 2)))
          + Scalar.sym("T:sigmaF:1"))

    def per_op_us(a, b):
        samples = []
        for _ in range(MICRO_BATCHES):
            t0 = _clock()
            for _ in range(MICRO_REPS):
                a * b
            samples.append((_clock() - t0) / MICRO_REPS * 1e6)
        samples.sort()
        return samples[len(samples) // 2]

    return {"ring.grat_mul_us": per_op_us(ga, gb),
            "ring.scalar_mul_us": per_op_us(sa, sb)}
