#!/usr/bin/env python3
"""Paired A/B run of the repository benchmark: a base commit against the
working tree.

Run from the root of a checkout (or through `make perfbench-ab`):

    python3 bench/perfbench_ab.py --base REV --workload NAME --seed N --pairs K

It exports REV with `git archive` into a temporary directory and refuses
to run unless perfbench/ and BENCHMARK.json are the same on both sides,
so both sides are measured by identical benchmark code. It then runs
`python3 perfbench/run.py --workload NAME --seed N --seconds 20 --trace 0`
K times on each side, alternating which side goes first, one run at a
time. Each side builds its own copy of lib/ under its own perfbench/_work.

It prints each side's median and quartiles for every end-to-end metric,
how many pairs the working tree won on node_s_per_s (higher is better,
ties count for neither side), and every deterministic outcome or
attempted/failed count that differs between the sides (the seed fixes
them, so any difference is a behaviour change). It then compares the
run manifests each side's last run wrote
(perfbench/_work/out/<workload>-seed<k>-time.run.json): their counters,
histograms and engine statistics must be equal, while the git label and
the wall-clock profile are ignored; it prints every path that differs.
The exit code is nonzero when a run cannot complete, the benchmark
differs between the sides, or a deterministic outcome, counter,
histogram or engine statistic differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# wall-clock and memory metrics, which vary run to run; every other
# end-to-end metric is a deterministic outcome of the seed
TIMED = ("node_s_per_s", "setup_s", "peak_heap_mb")
CLAIMED = "node_s_per_s"
# the run-manifest sections a seed fixes; "git" and "profile" are not
MANIFEST_SECTIONS = ("counters", "histograms", "engine")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout


def export(rev, dest):
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def same_benchmark(rev):
    """perfbench/ and BENCHMARK.json identical in REV and the working tree
    (tracked changes or untracked, non-ignored files both count)."""
    paths = ["perfbench", "BENCHMARK.json"]
    changed = subprocess.run(["git", "diff", "--quiet", rev, "--", *paths], cwd=ROOT).returncode
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *paths).strip()
    return changed == 0 and not untracked


def run_side(root, args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "20", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    meta = [l for l in lines if l.startswith("meta: ")]
    if proc.returncode not in (0, 1) or not lines or not meta:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("perfbench_ab: %s failed in %s" % (" ".join(cmd), root))
    r = json.loads(lines[-1])
    r["sim_seeds"] = json.loads(meta[-1][len("meta: "):])["sim_seeds"]
    return r


def manifest(root, workload, seed):
    path = os.path.join(root, "perfbench", "_work", "out",
                        "%s-seed%d-time.run.json" % (workload, seed))
    with open(path) as f:
        return json.load(f)


def differing_paths(base, work, path):
    """Dotted paths at which two JSON values differ, with both values."""
    if isinstance(base, dict) and isinstance(work, dict):
        out = []
        for k in sorted(set(base) | set(work)):
            sub = "%s.%s" % (path, k)
            if k not in base or k not in work:
                out.append("%s: only on the %s side" % (sub, "base" if k in base else "work"))
            else:
                out += differing_paths(base[k], work[k], sub)
        return out
    if base == work:
        return []
    return ["%s: base %s, work %s" % (path, json.dumps(base), json.dumps(work))]


def manifest_differences(roots, workload, seeds):
    out = []
    for seed in seeds:
        b, w = (manifest(roots[side], workload, seed) for side in ("base", "work"))
        for section in MANIFEST_SECTIONS:
            out += differing_paths(b.get(section), w.get(section),
                                   "seed%d.%s" % (seed, section))
    return out


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def outcome_values(runs, key):
    """The distinct values one side's runs gave for a top-level field or
    an end-to-end metric."""
    return sorted({json.dumps(r[key] if key in r else r["metrics"][key]["value"])
                   for r in runs})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    rev = git("rev-parse", "--verify", args.base + "^{commit}").strip()
    if not same_benchmark(rev):
        raise SystemExit("perfbench_ab: perfbench/ or BENCHMARK.json differ between %s and "
                         "the working tree; both sides must run the same benchmark" % args.base)
    results = {"base": [], "work": []}
    with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as tmp:
        export(rev, tmp)
        roots = {"base": tmp, "work": ROOT}
        for i in range(args.pairs):
            order = ("base", "work") if i % 2 == 0 else ("work", "base")
            for side in order:
                r = run_side(roots[side], args)
                results[side].append(r)
                print("pair %d %-4s %s %.6g%s" % (
                    i + 1, side, CLAIMED, r["metrics"][CLAIMED]["value"],
                    "" if r["correct"] else "  (correctness check failed)"), flush=True)
        manifests = manifest_differences(roots, args.workload,
                                         results["work"][-1]["sim_seeds"])
    base, work = results["base"], results["work"]
    print("\n%s vs working tree, %s seed %d, %d pairs (median [q1, q3])" % (
        args.base, args.workload, args.seed, args.pairs))
    for name in base[0]["metrics"]:
        unit = base[0]["metrics"][name]["unit"]
        cols = []
        for runs in (base, work):
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
            cols.append("%.6g [%.6g, %.6g]" % (med, q1, q3))
        print("  %-24s base %-34s work %-34s %s" % (name, cols[0], cols[1], unit))
    wins = sum(w["metrics"][CLAIMED]["value"] > b["metrics"][CLAIMED]["value"]
               for b, w in zip(base, work))
    losses = sum(w["metrics"][CLAIMED]["value"] < b["metrics"][CLAIMED]["value"]
                 for b, w in zip(base, work))
    print("%s: working tree won %d of %d pairs (lost %d)" % (CLAIMED, wins, args.pairs, losses))
    differ = []
    for key in ["correct", "attempted", "failed"] + [
            n for n in base[0]["metrics"] if n not in TIMED]:
        b, w = outcome_values(base, key), outcome_values(work, key)
        if b != w:
            differ.append("  %s: base %s, work %s" % (key, ", ".join(b), ", ".join(w)))
    if differ:
        print("deterministic outcomes that differ between the sides:")
        print("\n".join(differ))
    else:
        print("deterministic outcomes and attempted/failed counts identical on both sides")
    if manifests:
        print("run-manifest counters, histograms or engine statistics that differ:")
        print("\n".join("  " + d for d in manifests))
    else:
        print("run-manifest counters, histograms and engine statistics identical on both sides")
    return 1 if differ or manifests else 0


if __name__ == "__main__":
    sys.exit(main())
