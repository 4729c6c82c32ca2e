#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

1. Two simulations of one seed give identical outcome metrics and counters.
2. A different seed changes them.
3. run.py, with --trace 0 and with --trace 1, exits 0, reports a correct
   run, and prints exactly the metrics BENCHMARK.json declares for that
   mode, with the declared units and finite values.

Takes about two minutes; exits nonzero on the first failure.
"""

import argparse
import json
import math
import os
import subprocess
import sys

import run as bench


def fail(msg):
    sys.stderr.write("selftest FAILED: %s\n" % msg)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="lookup-steady", choices=bench.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    w, seed = args.workload, args.seed
    bench.build(os.getcwd())

    a = bench.simulate(w, seed, "time")
    b = bench.simulate(w, seed, "time")
    diff = bench.check_same(a, b, "same seed")
    if diff:
        fail("seed %d did not repeat: %s" % (seed, "; ".join(diff[:5])))
    print("ok: seed %d repeats its outcome and counters exactly" % seed)

    c = bench.simulate(w, seed + 1, "time")
    if not bench.check_same(a, c, "other seed"):
        fail("seeds %d and %d gave identical outcomes and counters" % (seed, seed + 1))
    print("ok: seed %d gives a different outcome from seed %d" % (seed + 1, seed))

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", w,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=300)
        if proc.returncode != 0:
            fail("run.py --trace %d exited %d" % (trace, proc.returncode))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
            fail("run.py --trace %d result: %r" % (trace, result))
        units = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != units:
            fail("--trace %d metrics/units differ from BENCHMARK.json %s: %s" % (
                trace, section, sorted(set(got.items()) ^ set(units.items()))))
        bad = [k for k, v in result["metrics"].items()
               if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
        if bad:
            fail("--trace %d non-numeric values: %s" % (trace, bad))
        print("ok: --trace %d prints exactly the %d declared %s metrics" % (
            trace, len(units), section))


if __name__ == "__main__":
    main()
