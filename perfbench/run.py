#!/usr/bin/env python3
"""The repository's benchmark: three MSPastry workloads through Harness.Sim.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/_ml/perfbench.exe against the checkout's lib/ (in a
dune workspace of its own under perfbench/_work, so the repository's own
`dune build` never sees the benchmark), then drives it one simulation per
process. Each simulation is single-threaded and simulations never overlap.

--trace 0 runs one untraced simulation instance per 10 s of S, each in a
fresh process with its own simulation seed derived from N, and reports
the end-to-end metrics over them: simulator throughput, set-up time
(median over many set-ups), peak heap, and the simulated §5.2 outcome.
Wall-clock numbers are rescaled to a reference speed (see
perfbench/_ml/perfbench.ml). The outcome is deterministic per seed.

--trace 1 runs the workload three times on one seed: untraced, with the
profiler on and nothing else, and with the benchmark's taps on and
nothing timed. It checks that all three simulated the same thing, and
reports the per-layer metrics: each profiler phase's share of the traced
wall time, the layers' own counters, and replay kernels timed on state
captured from the tapped run.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}. One operation
is one lookup judged over [warmup, trace end]; it fails when it never
reached its true root. The exit code is nonzero when a correctness check
fails.
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
WORK = os.path.join(HERE, "_work")
WS = os.path.join(WORK, "ws")
OUT = os.path.join(WORK, "out")
EXE = os.path.join(WS, "_build", "default", "perfbench", "perfbench.exe")

WORKLOADS = ("churn-gnutella", "lookup-steady", "faults-lossy")

# all simulations of one invocation end within this many seconds of the
# build, or the invocation fails (a collapsing overlay can run for minutes)
SIM_BUDGET_S = 165

# traffic classes: metric-safe name -> the registry's net.sent.<class>
CLASSES = {
    "lookup": "lookup",
    "lookup_ack": "lookup-acks",
    "distance_probe": "distance-probes",
    "leafset": "leafset-hb/probes",
    "rt_probe": "rt-probes",
    "ack_retransmit": "acks+retransmits",
    "join": "join",
    "maintenance": "rt-maintenance",
}

# profiler phase -> per-layer metric: the phase's self time as a share of
# the traced run's wall time (a share, not seconds: it does not move with
# the host's speed, and a phase a workload never enters reads 0)
PHASES = {
    "engine.heap": "simkit.heap_share",
    "engine.dispatch": "simkit.dispatch_share",
    "netsim.send": "netsim.send_share",
    "netsim.deliver": "netsim.deliver_share",
    "netsim.queue": "netsim.queue_share",
    "netsim.fault_verdict": "faults.verdict_share",
    "node.lookup": "mspastry.lookup_share",
    "node.lookup-acks": "mspastry.lookup_ack_share",
    "node.leafset-hb/probes": "mspastry.leafset_share",
    "node.rt-probes": "mspastry.rt_probe_share",
    "node.distance-probes": "mspastry.dprobe_share",
    "node.join": "mspastry.join_share",
    "node.acks+retransmits": "mspastry.ack_share",
    "node.rt-maintenance": "mspastry.maint_share",
}

# replay kernel -> (metric, the profiler phase whose share it explains)
KERNELS = {
    "next_hop_ns": ("pastry.next_hop_ns", "node.lookup"),
    "leafset_add_remove_ns": ("pastry.leafset_add_remove_ns", "node.leafset-hb/probes"),
    "delay_cold_ns": ("topology.delay_cold_ns", "netsim.send"),
    "delay_warm_ns": ("topology.delay_warm_ns", "netsim.send"),
    "verdict_ns": ("faults.verdict_ns", "netsim.fault_verdict"),
    "schedule_pop_ns": ("simkit.schedule_pop_ns", "engine.heap"),
    "record_ns": ("metrics.record_ns", None),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# ---- build ----


def mirror(src, dst):
    """Make directory dst hold exactly src's files, rewriting only changed
    ones so dune's incremental build stays incremental."""
    os.makedirs(dst, exist_ok=True)
    want = set(os.listdir(src))
    for name in os.listdir(dst):
        if name not in want:
            path = os.path.join(dst, name)
            if os.path.isdir(path) and not os.path.islink(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    for name in want:
        s, d = os.path.join(src, name), os.path.join(dst, name)
        if os.path.isdir(s):
            if os.path.exists(d) and not os.path.isdir(d):
                os.remove(d)
            mirror(s, d)
        else:
            with open(s, "rb") as f:
                data = f.read()
            try:
                with open(d, "rb") as f:
                    same = f.read() == data
            except OSError:
                same = False
            if not same:
                if os.path.isdir(d):
                    shutil.rmtree(d)
                with open(d, "wb") as f:
                    f.write(data)


def build(root):
    lib = os.path.join(root, "lib")
    project = os.path.join(root, "dune-project")
    if not os.path.isdir(lib) or not os.path.isfile(project):
        raise BenchError("no lib/ and dune-project here: run from the root of a checkout")
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune not found on PATH")
    mirror(lib, os.path.join(WS, "lib"))
    mirror(os.path.join(HERE, "_ml"), os.path.join(WS, "perfbench"))
    shutil.copyfile(project, os.path.join(WS, "dune-project"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    t0 = time.monotonic()
    proc = subprocess.run(
        [dune, "build", "--root", WS, "--profile", "release", "./perfbench/perfbench.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=850,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("build failed")
    return time.monotonic() - t0


# ---- one simulation per process ----


def instances(seconds):
    """Simulation instances per --trace 0 run: one per 10 s of --seconds
    (an instance takes 10-18 s here). The count depends on --seconds
    alone, so a seed always simulates the same instances."""
    return max(1, int(seconds // 10))


def simulate(workload, seed, mode, deadline=None):
    os.makedirs(OUT, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--mode", mode, "--out", OUT]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---- correctness ----


# Incorrect deliveries (a non-root node delivered the lookup) should never
# happen without link loss, but the protocol has them on some seeds, next
# to a delivery at the root. Over churn-gnutella sim seeds 0-119, ten
# deliver some judged lookups at a wrong node as well, the worst three
# 1.4%, 1.6% and 2.0% of them; seed 209 delivers 2.4%. A zero bar would
# fail the code as it is on one instance in twelve, so the bar sits just
# above the worst share seen; the count is a per-layer metric.
INCORRECT_SHARE = 0.03


def check_outcome(workload, outcome):
    """The workload's correctness bar; returns the list of violations."""
    bad = []
    if outcome["lookup_success"] < 0.99:
        bad.append("lookup_success %.4f < 0.99" % outcome["lookup_success"])
    if workload != "faults-lossy":
        if outcome["incorrect_deliveries"] > INCORRECT_SHARE * outcome["lookups_judged"]:
            bad.append("%d incorrect deliveries" % outcome["incorrect_deliveries"])
        if outcome["ring_agreement"] < 1.0:
            bad.append("ring agreement %.4f < 1.0" % outcome["ring_agreement"])
    if outcome["delay_samples"] < 3000:
        bad.append("only %d lookup delay samples" % outcome["delay_samples"])
    return bad


def check_same(a, b, what):
    """Two simulations of one seed must agree on outcome and counters."""
    bad = []
    for section in ("outcome", "counters"):
        for key in sorted(set(a[section]) | set(b[section])):
            if a[section].get(key) != b[section].get(key):
                bad.append("%s: %s.%s %r != %r" % (what, section, key,
                                                   a[section].get(key), b[section].get(key)))
    return bad


# ---- metrics ----


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runs):
    """Pool the instances of one --trace 0 run: throughput and lookup
    counts over all of them, per-instance statistics averaged."""
    outs = [r["outcome"] for r in runs]

    def mean(key):
        return statistics.fmean(o[key] for o in outs)

    setups = [g + c for r in runs for g, c in zip(r["trace_gen_s"], r["live_create_s"])]
    control = sum(o["control_msgs"] for o in outs)
    control_node_s = sum(o["control_msgs"] / o["control_per_node_s"] for o in outs)
    return {
        "node_s_per_s": metric(sum(r["node_seconds"] for r in runs)
                               / sum(r["run_ref_s"] for r in runs), "node-s/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_heap_mb": metric(max(r["peak_heap_mb"] for r in runs), "MB"),
        "lookup_success": metric(sum(o["lookups_succeeded"] for o in outs)
                                 / sum(o["lookups_judged"] for o in outs), "fraction"),
        "lookup_delay_p50_ms": metric(mean("delay_p50_ms"), "ms"),
        "lookup_delay_p95_ms": metric(mean("delay_p95_ms"), "ms"),
        "rdp_mean": metric(mean("rdp_mean"), "ratio"),
        "control_msgs_per_node_s": metric(control / control_node_s, "msgs/node/s"),
        "ring_agreement": metric(min(o["ring_agreement"] for o in outs), "fraction"),
    }


def per_layer(untraced, traced, replay):
    c = untraced["counters"]
    o = untraced["outcome"]
    k = replay["kernels"]
    prof = traced["profile"]
    phases = prof["phases"]
    fired = c["engine.events_fired"]
    sent = c["net.sent"]
    m = {
        "churn.trace_gen_s": metric(statistics.median(untraced["trace_gen_s"]), "s"),
        "harness.live_create_s": metric(statistics.median(untraced["live_create_s"]), "s"),
        "simkit.events_fired": metric(fired, "count"),
        "simkit.events_per_s": metric(fired / untraced["run_ref_s"], "1/s"),
        "simkit.cancelled_per_scheduled": metric(
            c["engine.events_cancelled"] / c["engine.events_scheduled"], "ratio"),
        "simkit.heap_hwm": metric(c["engine.heap_hwm"], "count"),
        "topology.src_endpoints": metric(int(k["src_endpoints"]), "count"),
        "netsim.sent": metric(sent, "count"),
        "netsim.delivered_per_sent": metric(c["net.delivered"] / sent, "ratio"),
    }
    for cause in ("loss", "dead", "fault", "node", "congestion"):
        m["netsim.dropped_" + cause] = metric(c["net.dropped_" + cause], "count")
    for phase, name in PHASES.items():
        m[name] = metric(phases.get(phase, {}).get("self_s", 0.0) / prof["wall_s"], "fraction")
    for kernel, (name, _) in KERNELS.items():
        m[name] = metric(k[kernel], "ns")
    m["pastry.leafset_size_mean"] = metric(k["leafset_size_mean"], "count")
    m["pastry.table_entries_mean"] = metric(k["table_entries_mean"], "count")
    lookup = phases.get("node.lookup", {"self_s": 0.0, "calls": 0})
    m["mspastry.us_per_lookup_call"] = metric(
        1e6 * lookup["self_s"] / max(1, lookup["calls"]), "us")
    for key, cls in CLASSES.items():
        m["mspastry.sent." + key] = metric(c["net.sent." + cls], "count")
    m["mspastry.control_per_lookup"] = metric(
        o["control_msgs"] / max(1, o["lookups_succeeded"]), "msgs")
    m["mspastry.hops_mean"] = metric(o["hops_mean"], "hops")
    m["mspastry.suspicions"] = metric(o["suspicions"], "count")
    m["mspastry.false_suspicions"] = metric(o["false_suspicions"], "count")
    m["mspastry.incorrect_deliveries"] = metric(o["incorrect_deliveries"], "count")
    m["metrics.lookup_delay_p99_ms"] = metric(o["delay_p99_ms"], "ms")
    m["metrics.summary_s"] = metric(traced["summary_s"], "s")
    m["obs.profile_overhead"] = metric(traced["run_ref_s"] / untraced["run_ref_s"], "ratio")
    m["obs.attributed_share"] = metric(1.0 - prof["unattributed_s"] / prof["wall_s"], "fraction")
    g = untraced["gc"]
    m["gc.minor_words_per_event"] = metric(g["minor_words_per_event"], "words")
    m["gc.major_words"] = metric(g["major_words"], "words")
    m["gc.major_collections"] = metric(g["major_collections"], "count")
    return m


# ---- reporting ----


def declared(trace):
    """Metric names BENCHMARK.json declares for this mode, or None when it
    is not there to check against."""
    path = "BENCHMARK.json"
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def report_e2e(runs):
    log("sim-seed  run_until s (at ref speed)  judged  succeeded  incorrect  delay-samples"
        "  p50 ms  p95 ms  p99 ms  ring")
    for r in runs:
        o = r["outcome"]
        log("%8d  %11.2f (%7.2f)  %7d  %9d  %9d  %13d  %6.1f  %6.1f  %6.1f  %.4f" % (
            r["seed"], r["run_wall_s"], r["run_ref_s"], o["lookups_judged"],
            o["lookups_succeeded"], o["incorrect_deliveries"], o["delay_samples"],
            o["delay_p50_ms"], o["delay_p95_ms"], o["delay_p99_ms"], o["ring_agreement"]))
    log("(p95 has 5%% of each instance's delay samples beyond it: at least %d)" % (
        min(r["outcome"]["delay_samples"] for r in runs) // 20))
    report_traffic([r["counters"] for r in runs])


def report_layers(untraced, traced, replay):
    c = untraced["counters"]
    prof = traced["profile"]
    wall = prof["wall_s"]
    log("run_until at reference speed: traced %.2f s, untraced %.2f s; unattributed %.1f%%" % (
        traced["run_ref_s"], untraced["run_ref_s"], 100.0 * prof["unattributed_s"] / wall))
    log("phase shares of the traced run:")
    for name, p in sorted(prof["phases"].items(), key=lambda kv: -kv[1]["self_s"]):
        log("  %-26s %6.1f%%  %9d calls" % (name, 100.0 * p["self_s"] / wall, p["calls"]))
    log("replay kernels, next to the share of the phase they explain:")
    for kernel, (name, phase) in KERNELS.items():
        share = ("%5.1f%% %s" % (100.0 * prof["phases"].get(phase, {}).get("self_s", 0.0) / wall,
                                 phase) if phase else "(collector feed, no phase of its own)")
        log("  %-30s %10.1f ns   %s" % (name, replay["kernels"][kernel], share))
    report_traffic([c])


def report_traffic(counters):
    """Sends per traffic class and drops per cause, summed over runs, so a
    shift in control traffic names its mechanism."""
    def total(key):
        return sum(c[key] for c in counters)

    log("messages sent by class (net.sent.<class>):")
    for cls in CLASSES.values():
        log("  %-20s %9d" % (cls, total("net.sent." + cls)))
    log("drops by cause: " + ", ".join(
        "%s %d" % (cause, total("net.dropped_" + cause))
        for cause in ("loss", "dead", "fault", "node", "congestion")))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        build_s = build(os.getcwd())
        deadline = time.monotonic() + SIM_BUDGET_S
        problems = []
        k = instances(args.seconds)
        if args.trace == 0:
            runs = [simulate(args.workload, k * args.seed + i, "time", deadline)
                    for i in range(k)]
            report_e2e(runs)
            metrics = end_to_end(runs)
        else:
            untraced = simulate(args.workload, k * args.seed, "time", deadline)
            traced = simulate(args.workload, k * args.seed, "trace", deadline)
            replay = simulate(args.workload, k * args.seed, "replay", deadline)
            problems += check_same(untraced, traced, "untraced vs traced")
            problems += check_same(untraced, replay, "untraced vs tapped")
            report_layers(untraced, traced, replay)
            metrics = per_layer(untraced, traced, replay)
            runs = [untraced]
        log("meta: " + json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "sim_seeds": [r["seed"] for r in runs], "nproc": os.cpu_count(),
            "ocaml": runs[0]["ocaml"], "build_s": round(build_s, 3),
            "manifests": os.path.relpath(OUT)}))
        for r in runs:
            problems += ["sim seed %d: %s" % (r["seed"], p)
                         for p in check_outcome(args.workload, r["outcome"])]
        names = declared(args.trace)
        if names is not None and names != set(metrics):
            problems.append("metrics %s differ from BENCHMARK.json's %s" % (
                sorted(set(metrics) ^ names), "per_layer" if args.trace else "end_to_end"))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2
    for name, mv in metrics.items():
        log("%-34s %16.6g %s" % (name, mv["value"], mv["unit"]))
    for p in problems:
        log("CHECK FAILED: " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["outcome"]["lookups_judged"] for r in runs),
        "failed": sum(r["outcome"]["lookups_judged"] - r["outcome"]["lookups_succeeded"]
                      for r in runs),
        "metrics": metrics,
    }), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
