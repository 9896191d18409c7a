"""Benchmark of wresbd: one workload, one seed, one run.

    python3 perfbench/run.py --workload {verify,assemble,algebra} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the program is taken from its ``src/``.
Each op runs in a fresh interpreter (perfbench/worker.py), so it starts with
the program's caches empty, as every `wresbd` invocation does.  Ops repeat
until the next one would end after S seconds (at least two, or two of
each kind when traced; one of each with --smoke).  Every op's output is checked after the timed loop.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0 the
metrics are end to end: ``setup_s``, ``op_s``, ``op_cpu_s`` and
``peak_rss_mb``, each a median over the run.  With --trace 1, ops alternate
untraced and traced, and the metrics are the per-layer figures of the
traced ops (see README.md).  Files go to ``.perfbench/WORKLOAD/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 4      # set-up-only interpreters per run, besides the ops
DEADLINE_S = 170.0    # a run must end within 180 s
SETUP_PACKAGES = ("numpy", "scipy", "wresbd")


class Deadline(Exception):
    """The run would not end within DEADLINE_S."""


def _report(values, specs):
    """Each metric of `specs` (a BENCHMARK.json list) with its unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs}


class Run:
    def __init__(self, workload, seed, out_dir, started):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.started = started

    def spawn(self, mode, tag, trace=False):
        """Start one worker and wait for it; return its record or None."""
        cmd = [sys.executable]
        if trace:
            cmd += ["-X", "importtime"]
        cmd += [os.path.join(HERE, "worker.py"), mode, self.workload,
                str(self.seed), "1" if trace else "0", self.out_dir, tag]
        err_path = os.path.join(self.out_dir, tag + ".err")
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise Deadline()
        with open(err_path, "w") as err:
            t0 = time.monotonic()
            try:
                proc = subprocess.run(cmd, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=err,
                                      cwd=ROOT, timeout=remaining)
            except subprocess.TimeoutExpired:  # the worker is killed
                raise Deadline() from None
        if proc.returncode != 0:
            with open(err_path) as fh:
                sys.stderr.write("%s %s failed:\n%s" % (mode, tag, fh.read()))
            return None
        with open(os.path.join(self.out_dir, tag + ".json")) as fh:
            rec = json.load(fh)
        program = os.path.join(ROOT, "src", "wresbd", "__init__.py")
        if rec["program"] != program:
            raise RuntimeError("worker loaded %s, not %s"
                               % (rec["program"], program))
        rec["setup_s"] = rec["setup_done"] - t0
        rec["tag"] = tag
        if trace:
            with open(err_path) as fh:
                rec["layers"].update(import_times(fh.read()))
        return rec

    def output(self, rec):
        with open(os.path.join(self.out_dir, rec["tag"] + "-output.json")) as fh:
            return json.load(fh)


def import_times(text):
    """setup.<package>_s from `python -X importtime` output.

    Each module's own import time goes to the nearest enclosing module
    (itself included) of numpy, scipy or wresbd, so a standard-library
    module that numpy pulls in counts for numpy.
    """
    rows = []  # [self seconds, top package, parent index]
    pending = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        index = len(rows)
        rows.append([int(fields[0]) / 1e6, name.strip().split(".")[0], None])
        while pending and pending[-1][0] > depth:
            rows[pending.pop()[1]][2] = index
        pending.append((depth, index))
    out = {"setup.%s_s" % p: 0.0 for p in SETUP_PACKAGES}
    for seconds, package, parent in rows:
        while package not in SETUP_PACKAGES and parent is not None:
            _, package, parent = rows[parent]
        if package in SETUP_PACKAGES:
            out["setup.%s_s" % package] += seconds
    return out


def run_ops(run, seconds, smoke, trace):
    """Spawn ops until the next would end after `seconds`.

    Untraced runs start with set-up-only spawns; traced runs alternate
    untraced and traced ops.  Returns (records, set-up records, failed,
    late); when the run's deadline passes, the op under way counts as
    failed, the loop stops and `late` is True.
    """
    # untraced runs need two reports to compare; traced runs need two of
    # each kind of op for a median
    need = (2 if trace else 1) if smoke else (4 if trace else 2)
    ops, setups, failed = [], [], 0
    try:
        run.spawn("setup", "warmup")  # fills the page cache and bytecode
        if not trace:
            setups = [run.spawn("setup", "setup%d" % i)
                      for i in range(SETUP_SPAWNS)]
        start = time.monotonic()
        while True:
            traced = trace and len(ops) % 2 == 1
            t0 = time.monotonic()
            rec = run.spawn("op", "op%d" % len(ops), traced)
            last = time.monotonic() - t0
            if rec is None:
                failed += 1
                rec = {"failed": True}
            rec["traced"] = traced
            ops.append(rec)
            if len(ops) >= need and (smoke or time.monotonic() - start + last
                                     > seconds):
                break
    except Deadline:
        failed += 1
        ops.append({"failed": True, "traced": False})
        return ops, [s for s in setups if s is not None], failed, True
    return ops, [s for s in setups if s is not None], failed, False


def check_outputs(run, ops):
    """Problems found in the outputs of every op that finished."""
    import checks  # numpy: only after the timed loop

    done = [r for r in ops if not r.get("failed")]
    if not done:
        return ["no op finished"]
    outputs = [run.output(r) for r in done]
    errs = []
    if run.workload == "verify":
        seeds = workloads.verify_inputs(run.seed)["seeds"]
        for fam in workloads.FAMILIES:
            texts = []
            for out in outputs:
                with open(out[fam]["path"]) as fh:
                    texts.append(fh.read())
            errs += checks.check_verify_report(fam, seeds, outputs[0][fam]["rc"],
                                               texts[0])
            errs += ["%s: %s" % (fam, e) for e in checks.check_identical(texts)]
            errs += ["%s: exit status %s" % (fam, o[fam]["rc"])
                     for o in outputs if o[fam]["rc"] != outputs[0][fam]["rc"]]
        return errs
    # identical outputs share one verdict
    distinct = {json.dumps(o, sort_keys=True): o for o in outputs}
    if run.workload == "assemble":
        seeds = workloads.assemble_inputs(run.seed)["seeds"]
        sys.path.insert(0, os.path.join(ROOT, "src"))
        reference = checks.oracle_reference(seeds)
        for out in distinct.values():
            errs += checks.check_assemble(out, reference)
    else:
        inputs = workloads.algebra_inputs(run.seed)
        reference = checks.algebra_reference(inputs)
        for out in distinct.values():
            errs += checks.check_algebra(out, inputs, reference)
    return errs


def end_to_end(ops, setups):
    done = [r for r in ops if not r.get("failed")]
    return {
        "setup_s": statistics.median([r["setup_s"] for r in setups + done]),
        "op_s": statistics.median([r["op_s"] for r in done]),
        "op_cpu_s": statistics.median([r["op_cpu_s"] for r in done]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in done]),
    }


def per_layer(ops):
    """Medians of the traced ops' layer figures; counts must repeat."""
    traced = [r for r in ops if r["traced"] and not r.get("failed")]
    plain = [r for r in ops if not r["traced"] and not r.get("failed")]
    if not traced or not plain:
        return {}, ["no traced or no untraced op finished"]
    errs, values = [], {}
    for name in traced[0]["layers"]:
        samples = [r["layers"][name] for r in traced]
        if any(v is None for v in samples):
            values[name] = None
        elif name in tracer.COUNT_METRICS:
            if len(set(samples)) != 1:
                errs.append("count %s differs between ops: %s"
                            % (name, samples))
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    values["trace.overhead_s"] = (
        statistics.median([r["op_s"] for r in traced])
        - statistics.median([r["op_s"] for r in plain]))
    missing = sorted({m for r in traced for m in r["missing_hooks"]})
    if missing:
        sys.stderr.write("absent hooks: %s\n" % ", ".join(missing))
    return values, errs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one op (one untraced and one traced with "
                             "--trace 1), then the checks")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "wresbd", "__init__.py")):
        sys.stderr.write("no program at %s\n" % os.path.join(ROOT, "src"))
        return 2
    out_dir = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    run = Run(args.workload, args.seed, out_dir, started)
    ops, setups, failed, late = run_ops(run, args.seconds, args.smoke,
                                        args.trace == 1)
    errs = check_outputs(run, ops)
    if late:
        errs.append("the run did not end within %g s" % DEADLINE_S)
    metrics = {}
    if args.trace:
        values, more = per_layer(ops)
        errs += more
        if values:
            metrics = _report(values, spec["per_layer"])
    elif failed < len(ops):
        metrics = _report(end_to_end(ops, setups), spec["end_to_end"])
    for e in errs[:20]:
        sys.stderr.write("check failed: %s\n" % e)
    result = {"correct": not errs, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not errs else 1


if __name__ == "__main__":
    sys.exit(main())
