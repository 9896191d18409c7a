"""One op of one workload in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD SEED TRACE OUT_DIR TAG

Every op starts with the program's in-process caches empty, as each
`wresbd` invocation does.  The worker imports the workload's modules,
notes the monotonic time when they are loaded (the parent noted it just
before starting the interpreter), runs one op and writes
OUT_DIR/TAG.json with its timings, peak memory and, when TRACE is 1, the
per-layer figures.  The op's outputs go to OUT_DIR/TAG-output.json for
the parent's checks.  With MODE "setup" it stops after the imports.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    mode, name, seed, trace, out_dir, tag = argv
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, here)
    import workloads

    imports, make_inputs, op, output = workloads.WORKLOADS[name]
    api = imports()
    setup_done = time.monotonic()
    record = {"setup_done": setup_done,
              "program": os.path.abspath(sys.modules["wresbd"].__file__)}
    if mode == "op":
        inputs = make_inputs(int(seed))
        tracer = None
        if trace == "1":
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()
            tracer.install()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        result = op(api, inputs, out_dir, tag)
        record["op_s"] = time.perf_counter() - wall0
        record["op_cpu_s"] = time.process_time() - cpu0
        record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            tracer.uninstall()
            record["layers"] = tracer.metrics()
            record["layers"].update(tracer_mod.ring_microtimings())
            record["missing_hooks"] = tracer.missing
        with open(os.path.join(out_dir, tag + "-output.json"), "w") as fh:
            json.dump(output(api, result), fh)
    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
