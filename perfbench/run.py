#!/usr/bin/env python3
"""Whole-flow benchmark for OpenVM1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library, the window-solve worker and the benchmark program
(perfbench/flowbench.cpp) from the checkout's sources into
.bench_build/perfbench, runs the reference flow on the named workload, checks
its outputs, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run's work is fixed: one untraced pass over the workload's batch of
designs, set-up sampled SETUP_REPS more times, and (--trace 0) a repeat of
vm1opt on the first design; --trace 1 adds one traced pass instead of the
repeat. Its length follows from that work; --seconds is accepted for the
benchmark interface and does not change it, so that every run of every
commit measures the same work. --trace 0 reports the end-to-end metrics;
--trace 1 reports the per-layer metrics, including each layer's self time
taken from the trace. See perfbench/README.md.
"""

import argparse
import bisect
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
FLOWBENCH = os.path.join(BUILD, "flowbench")

SETUP_REPS = 60  # set-up-only repetitions in the pass, besides its own
MAX_NODES = 60  # VM1OptOptions::default_mip().max_nodes
FLOWBENCH_TIMEOUT_S = 170

# Workload -> execution backend. Every workload flows 6 `tiny` OpenM1 designs
# with 2-way parallelism (flowbench's constants) at the paper's operating
# point: U = {(20, 0, 4, 1)}, alpha = 1200 nm, theta = 1%, utilization 0.75.
WORKLOADS = {
    "tiny_open_batch": "threads",
    "tiny_open_fleet": "processes",
}

# (name, unit, better). The same lists are in BENCHMARK.json; a test keeps
# them in step.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("flow_s", "s", "lower"),
    ("vm1opt_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("dm1_per_100_nets", "count", "higher"),
    ("objective_ratio", "ratio", "lower"),
    ("hpwl_ratio", "ratio", "lower"),
    ("rwl_ratio", "ratio", "lower"),
    ("via12_ratio", "ratio", "lower"),
    ("power_ratio", "ratio", "lower"),
    ("window_ok_share", "ratio", "higher"),
    ("net_routed_share", "ratio", "higher"),
]

OUTCOMES = ["solved", "fallback_rounding", "fallback_greedy", "rejected_audit",
            "kept", "faulted", "skipped", "cached_remote"]
FAILED_OUTCOMES = ["fallback_rounding", "fallback_greedy", "rejected_audit",
                   "kept", "faulted"]

# Trace span name prefix -> layer (module) whose self time it counts to.
SPAN_LAYERS = [
    ("bench.design.", "design"),
    ("bench.place.", "place"),
    ("bench.route.", "route"),
    ("route.", "route"),
    ("bench.timing.", "timing"),
    ("bench.vm1opt", "vm1opt"),
    ("vm1opt.", "vm1opt"),
    ("dist_opt.", "vm1opt"),
    ("milp.", "milp"),
    ("lp.", "lp"),
    ("bench.dist.", "dist"),
    ("dist.", "dist"),
    ("bench.", "bench"),
]
LAYERS = ["bench", "design", "place", "route", "timing", "vm1opt", "milp",
          "lp", "dist"]

# Which end-to-end metric each layer's metrics should move, on which
# workload. Printed with every traced report.
LAYER_MAP = [
    ("design/place", "design.*, place.*",
     "setup_s on every workload (a small share of the run today)"),
    ("route", "route.*",
     "flow_s on both workloads by under 10% (routing is under a tenth of the "
     "flow on tiny); convergence changes also move rwl_ratio and via12_ratio"),
    ("timing", "timing.*", "flow_s, by a negligible amount, on every workload"),
    ("vm1opt (core)", "vm1opt.*, dist_opt.*",
     "vm1opt_s on tiny_open_batch first, tiny_open_fleet second"),
    ("milp/lp", "milp.*, lp.*",
     "vm1opt_s on tiny_open_batch; objective_ratio must not rise; lp.* runs "
     "in the workers on tiny_open_fleet and reads 0 in this process there"),
    ("dist", "dist.*",
     "vm1opt_s and setup_s on tiny_open_fleet only; zero change predicted on "
     "the threads-backend workloads"),
]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [
        ("design.generate_s", "s", "lower"),
        ("place.global_s", "s", "lower"),
        ("place.legalize_s", "s", "lower"),
        ("place.detailed_s", "s", "lower"),
        ("route.init_s", "s", "lower"),
        ("route.final_s", "s", "lower"),
        ("route.maze_searches", "count", "lower"),
        ("route.maze_expansions", "count", "lower"),
        ("route.expansions_per_s", "1/s", "higher"),
        ("route.ripup_rounds", "count", "lower"),
        ("route.ripup_victims", "count", "lower"),
        ("route.victim_share", "ratio", "lower"),
        ("route.drv_init", "count", "lower"),
        ("route.drv_final", "count", "lower"),
        ("timing.sta_s", "s", "lower"),
        ("timing.power_s", "s", "lower"),
        ("vm1opt.windows", "count", "lower"),
        ("vm1opt.outer_iterations", "count", "lower"),
    ]
    spec += [("vm1opt.outcome." + o, "count",
              "lower" if o in FAILED_OUTCOMES else "higher") for o in OUTCOMES]
    spec += [
        ("vm1opt.skip_rate", "ratio", "higher"),
        ("dist_opt.pass_s", "s", "lower"),
        ("dist_opt.window_solve_p50_ms", "ms", "lower"),
        ("dist_opt.window_solve_tail_ms", "ms", "lower"),
        ("dist_opt.window_solve_tail_pct", "pct", "higher"),
        ("dist_opt.window_solve_samples", "count", "higher"),
        ("dist_opt.busy_share", "ratio", "higher"),
        ("milp.solves", "count", "lower"),
        ("milp.nodes", "count", "lower"),
        ("milp.nodes_per_solve", "count", "lower"),
        ("milp.incumbents", "count", "higher"),
        ("milp.warm_solves", "count", "higher"),
        ("milp.cold_restarts", "count", "lower"),
        ("milp.node_capped_windows", "count", "lower"),
        ("milp.truncated_under_node_cap", "count", "lower"),
        ("lp.solves", "count", "lower"),
        ("lp.pivots", "count", "lower"),
        ("lp.dual_pivots", "count", "lower"),
        ("lp.refactorizations", "count", "lower"),
        ("lp.ftran", "count", "lower"),
        ("lp.btran", "count", "lower"),
        ("lp.pivots_per_s", "1/s", "higher"),
        ("dist.connect_s", "s", "lower"),
        ("dist.requests", "count", "lower"),
        ("dist.replies", "count", "lower"),
        ("dist.frames_per_window", "ratio", "lower"),
        ("dist.bytes_sent", "bytes", "lower"),
        ("dist.bytes_received", "bytes", "lower"),
        ("dist.rpc_p50_ms", "ms", "lower"),
        ("dist.serialize_s", "s", "lower"),
        ("dist.deserialize_s", "s", "lower"),
        ("dist.retries", "count", "lower"),
        ("dist.timeouts", "count", "lower"),
        ("dist.local_fallbacks", "count", "lower"),
        ("dist.worker.cache_query_hits", "count", "higher"),
    ]
    spec += [("selftime." + layer + "_s", "s", "lower") for layer in LAYERS]
    spec += [
        ("trace.overhead_pct", "pct", "lower"),
        ("trace.dropped_events", "count", "lower"),
    ]
    return spec


PER_LAYER = per_layer_spec()


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- building

def build():
    """Configures once, then builds incrementally. Raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("OpenVM1 sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_digest():
    """Digest of every source the benchmarked program is built from."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "apps", "vm1_worker.cpp"),
             os.path.join(HERE, "flowbench.cpp"),
             os.path.join(HERE, "run.py"),
             os.path.join(HERE, "CMakeLists.txt")]
    for top, _, names in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(top, n) for n in names]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- running

def flowbench_args(workload, seed, out_path, trace_path=None):
    args = [FLOWBENCH, "--seed=%d" % seed, "--backend=" + WORKLOADS[workload],
            "--out=" + out_path]
    if trace_path:
        # The traced pass repeats the untraced one, so it is also the run's
        # repeat check.
        args += ["--setup-reps=0", "--recheck=0", "--trace=" + trace_path]
    else:
        args += ["--setup-reps=%d" % SETUP_REPS, "--recheck=1"]
    return args


def run_flowbench(args, out_path):
    proc = subprocess.run(args, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=FLOWBENCH_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise RuntimeError("flowbench exited with code %d" % proc.returncode)
    with open(out_path) as f:
        return json.load(f)


# ---------------------------------------------------------------- checks

def fingerprint(d, in_process_lp):
    """One design's flow as (outputs, work): the quality it reached, and the
    deterministic work counters that got it there. Both must repeat exactly
    for the same seed and sources."""
    outputs = {
        "seed": d["seed"],
        "hpwl_final": d["final"]["hpwl"],
        "alignments_final": d["alignments_final"],
    }
    work = {
        "maze_expansions": sum(d["calls"].get(c, {}).get(
            "route.maze_expansions", 0) for c in ("route.init", "route.final")),
        "milp_nodes": d["milp_nodes"],
    }
    if in_process_lp:
        work["lp_pivots"] = d["calls"].get("vm1opt", {}).get("lp.pivots", 0)
    return outputs, work


def compare(label, got, want, problems, findings):
    """Checks one repeat of a flow. Differing outputs fail the run; differing
    work with equal outputs is a finding (the wall-clock caps of the MIP and
    LP solvers make work load-dependent). Either way the flow counts as
    failed. Returns True when both repeat."""
    if got[0] != want[0]:
        problems.append("%s: outputs differ: %s vs %s" % (label, got[0], want[0]))
    elif got[1] != want[1]:
        findings.append("%s: work differs, outputs equal: %s vs %s"
                        % (label, got[1], want[1]))
    return got == want


def check_run(raw, workload, seed, fingerprint_dir):
    """Returns (attempted, failed, problems, findings). Every design flow,
    and the vm1opt repeat, counts as one attempt; it fails on any check
    below. Problems make the run incorrect; findings do not."""
    in_process_lp = raw["workers"] == 0
    problems, findings = [], []
    attempted = failed = 0
    reference = None
    for pi, p in enumerate(raw["passes"]):
        if p["live_workers"] != raw["workers"]:
            problems.append("pass %d: %d of %d workers connected"
                            % (pi, p["live_workers"], raw["workers"]))
        fps = []
        for di, d in enumerate(p["designs"]):
            attempted += 1
            bad = []
            if d["baseline_violations"]:
                bad.append("%d legality violations after baseline placement"
                           % d["baseline_violations"])
            if d["final_violations"]:
                bad.append("%d legality violations after vm1opt"
                           % d["final_violations"])
            buckets = sum(d["outcomes"][o] for o in OUTCOMES)
            if buckets != d["windows"]:
                bad.append("outcome buckets sum to %d, windows %d"
                           % (buckets, d["windows"]))
            if d["objective_final"] > d["objective_init"] + 1e-9:
                bad.append("vm1opt worsened the objective (%.3f -> %.3f)"
                           % (d["objective_init"], d["objective_final"]))
            problems += ["pass %d seed %d: %s" % (pi, d["seed"], b) for b in bad]
            fp = fingerprint(d, in_process_lp)
            same = reference is None or compare(
                "pass %d seed %d vs pass 0" % (pi, d["seed"]), fp,
                reference[di], problems, findings)
            failed += bool(bad) or not same
            fps.append(fp)
        if reference is None:
            reference = fps
    if "recheck" in raw:
        # vm1opt alone, repeated on the first design: no routing work.
        attempted += 1
        got = fingerprint(raw["recheck"], in_process_lp)
        want = fingerprint(raw["passes"][0]["designs"][0], in_process_lp)
        for fp in (got, want):
            del fp[1]["maze_expansions"]
        same = compare("vm1opt repeat seed %d" % seed, got, want, problems,
                       findings)
        if raw["recheck"]["final_violations"]:
            problems.append("vm1opt repeat: legality violations")
        failed += not same or bool(raw["recheck"]["final_violations"])
    # Across runs: the same workload, seed and sources must give the same
    # fingerprints every time.
    os.makedirs(fingerprint_dir, exist_ok=True)
    path = os.path.join(fingerprint_dir, "%s-%d.json" % (workload, seed))
    current = [list(fp) for fp in reference]
    if os.path.isfile(path):
        with open(path) as f:
            stored = json.load(f)
        for i, (got, want) in enumerate(zip(current, stored)):
            failed += not compare("seed %d vs an earlier run" % (seed + i),
                                  got, want, problems, findings)
    else:
        with open(path, "w") as f:
            json.dump(current, f)
    return attempted, min(failed, attempted), problems, findings


# ---------------------------------------------------------------- metrics

def ratio(num, den):
    return num / den if den else 0.0


def design_sum(designs, fn):
    return sum(fn(d) for d in designs)


def end_to_end(raw):
    untraced = raw["passes"][0]
    first = untraced["designs"]
    windows = design_sum(first, lambda d: d["windows"])
    failed_windows = design_sum(
        first, lambda d: sum(d["outcomes"][o] for o in FAILED_OUTCOMES))
    nets = design_sum(first, lambda d: sum(
        d["calls"].get(c, {}).get("route.nets", 0)
        for c in ("route.init", "route.final")))
    unrouted = design_sum(first, lambda d: d["init"]["unrouted"] +
                          d["final"]["unrouted"])

    def final_over_init(key):
        return ratio(design_sum(first, lambda d: d["final"][key]),
                     design_sum(first, lambda d: d["init"][key]))

    return {
        "setup_s": statistics.median(
            raw["setup_samples"] + [untraced["setup_s"]]),
        "flow_s": untraced["flow_s"],
        "vm1opt_s": design_sum(first, lambda d: d["seconds"]["vm1opt_s"]),
        "peak_rss_mb": (untraced["self_hwm_kb"] +
                        untraced["fleet_hwm_kb"]) / 1024.0,
        "dm1_per_100_nets": 100.0 * ratio(
            design_sum(first, lambda d: d["final"]["dm1"]),
            design_sum(first, lambda d: d["calls"]["route.final"]["route.nets"])),
        "objective_ratio": ratio(
            design_sum(first, lambda d: d["objective_final"]),
            design_sum(first, lambda d: d["objective_init"])),
        "hpwl_ratio": final_over_init("hpwl"),
        "rwl_ratio": final_over_init("rwl"),
        "via12_ratio": final_over_init("via12"),
        "power_ratio": final_over_init("power_mw"),
        "window_ok_share": 1.0 - ratio(failed_windows, windows),
        "net_routed_share": 1.0 - ratio(unrouted, nets),
    }


def self_times(trace_path):
    """Per-layer self time (seconds) of a Chrome trace, the counts of
    truncated milp.solve spans that reached the node cap and that stopped
    short of it, and the dropped-event count.

    A span's children are the spans nested in it on its own thread, plus,
    for the benchmark's thread, the outermost spans of other threads that
    start inside it (pool work it dispatched). Its self time is its duration
    minus the part of it its children cover. Parallel children are counted
    on their own threads, so self times sum to more than wall time by the
    parallel work."""
    with open(trace_path) as f:
        trace = json.load(f)
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    spans.sort(key=lambda e: (e["ts"], -e["dur"]))
    main_tid = next((e["tid"] for e in spans if e["name"] == "bench.pass"),
                    None)
    parent = {}  # id(span) -> enclosing span on the same thread
    open_by_tid = {}
    for e in spans:
        stack = open_by_tid.setdefault(e["tid"], [])
        while stack and e["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
            stack.pop()
        parent[id(e)] = stack[-1] if stack else None
        stack.append(e)
    main = [e for e in spans if e["tid"] == main_tid]
    main_starts = [e["ts"] for e in main]
    children = {}
    for e in spans:
        p = parent[id(e)]
        if p is None and e["tid"] != main_tid and main:
            # Adopt: the innermost benchmark-thread span holding its start.
            i = bisect.bisect_right(main_starts, e["ts"]) - 1
            p = main[i] if i >= 0 else None
            while p is not None and e["ts"] >= p["ts"] + p["dur"]:
                p = parent[id(p)]
        if p is not None:
            children.setdefault(id(p), []).append(e)
    self_us = {layer: 0.0 for layer in LAYERS}
    for e in spans:
        end = e["ts"] + e["dur"]
        covered, reach = 0.0, e["ts"]
        for c in sorted(children.get(id(e), []), key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], reach), min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        self_us[span_layer(e["name"])] += e["dur"] - covered
    # A solve is truncated when it ends with an incumbent it could not prove
    # optimal (feasible) or with none (no-solution). Short of the node cap,
    # the stop was a wall-clock cap, an LP iteration limit or a numerically
    # failed relaxation; the span does not say which.
    truncated = [e for e in spans if e["name"] == "milp.solve" and
                 e.get("args", {}).get("status") in ("feasible", "no-solution")]
    node_capped = sum(1 for e in truncated
                      if e["args"].get("nodes", 0) >= MAX_NODES)
    return ({layer: us / 1e6 for layer, us in self_us.items()},
            node_capped, len(truncated) - node_capped,
            trace.get("otherData", {}).get("dropped_events", 0))


def span_layer(name):
    for prefix, layer in SPAN_LAYERS:
        if name.startswith(prefix):
            return layer
    return "bench"


def tail_quantile(h):
    """The highest of p99/p95/p50 with at least ten samples beyond it."""
    n = h["count"]
    for q, key in ((99, "p99"), (95, "p95"), (50, "p50")):
        if n * (100 - q) / 100.0 >= 10:
            return q, h[key]
    return 50, h["p50"]


def per_layer(raw, trace_path):
    untraced, traced = raw["passes"]
    fleet = raw["workers"] > 0
    designs = untraced["designs"]

    def secs(key):
        return design_sum(designs, lambda d: d["seconds"].get(key, 0.0))

    def count(call, name):
        return design_sum(designs, lambda d: d["calls"].get(call, {}).get(name, 0))

    def routed(name):
        return count("route.init", name) + count("route.final", name)

    hist = untraced["histograms"]
    empty = {"count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    # On the processes backend the window solve runs in the workers; the
    # coordinator's per-window time is the request round trip.
    solve_h = hist.get("dist.rpc_sec" if fleet else "dist_opt.window_solve_sec",
                       empty)
    tail_q, tail_v = tail_quantile(solve_h)
    route_s = secs("route.init_s") + secs("route.final_s")
    vm1opt_s = secs("vm1opt_s")
    windows = design_sum(designs, lambda d: d["windows"])
    nets = routed("route.nets")
    rounds = routed("route.ripup_rounds")
    parallel = raw["workers"] if fleet else raw["threads"]
    selfs, node_capped, under_cap, dropped = self_times(trace_path)

    m = {}
    for key in ("design.generate_s", "place.global_s", "place.legalize_s",
                "place.detailed_s", "dist.connect_s"):
        m[key] = untraced["setup"].get(key, 0.0)
    m.update({
        "route.init_s": secs("route.init_s"),
        "route.final_s": secs("route.final_s"),
        "route.maze_searches": routed("route.maze_searches"),
        "route.maze_expansions": routed("route.maze_expansions"),
        "route.expansions_per_s": ratio(routed("route.maze_expansions"), route_s),
        "route.ripup_rounds": rounds,
        "route.ripup_victims": routed("route.ripup_victims"),
        # victims / (nets x rounds), each routing's nets times its rounds
        "route.victim_share": ratio(routed("route.ripup_victims"), design_sum(
            designs, lambda d: sum(
                d["calls"].get(c, {}).get("route.nets", 0) *
                d["calls"].get(c, {}).get("route.ripup_rounds", 0)
                for c in ("route.init", "route.final")))),
        "route.drv_init": design_sum(designs, lambda d: d["init"]["drv"]),
        "route.drv_final": design_sum(designs, lambda d: d["final"]["drv"]),
        "timing.sta_s": secs("timing.sta_s"),
        "timing.power_s": secs("timing.power_s"),
        "vm1opt.windows": windows,
        "vm1opt.outer_iterations": design_sum(
            designs, lambda d: d["outer_iterations"]),
    })
    for o in OUTCOMES:
        m["vm1opt.outcome." + o] = design_sum(designs, lambda d: d["outcomes"][o])
    pass_h = hist.get("dist_opt.pass_sec", empty)
    rpc_h = hist.get("dist.rpc_sec", empty)
    m.update({
        "vm1opt.skip_rate": ratio(m["vm1opt.outcome.skipped"], windows),
        "dist_opt.pass_s": ratio(pass_h["sum"], pass_h["count"]),  # mean
        "dist_opt.window_solve_p50_ms": solve_h["p50"] * 1e3,
        "dist_opt.window_solve_tail_ms": tail_v * 1e3,
        "dist_opt.window_solve_tail_pct": tail_q,
        "dist_opt.window_solve_samples": solve_h["count"],
        "dist_opt.busy_share": ratio(solve_h["sum"], parallel * vm1opt_s),
    })
    for key in ("solves", "incumbents", "warm_solves", "cold_restarts"):
        m["milp." + key] = count("vm1opt", "milp." + key)
    # From VM1OptStats, which the workers' replies fill on the fleet too.
    m["milp.nodes"] = design_sum(designs, lambda d: d["milp_nodes"])
    m["milp.nodes_per_solve"] = ratio(m["milp.nodes"], m["milp.solves"] or windows)
    m["milp.node_capped_windows"] = node_capped
    m["milp.truncated_under_node_cap"] = under_cap
    for key in ("solves", "pivots", "dual_pivots", "refactorizations", "ftran",
                "btran"):
        m["lp." + key] = count("vm1opt", "lp." + key)
    m["lp.pivots_per_s"] = ratio(m["lp.pivots"], vm1opt_s)
    remote = lambda k: design_sum(designs, lambda d: d["remote"][k])
    m.update({
        "dist.requests": remote("requests"),
        "dist.replies": remote("replies"),
        "dist.frames_per_window": ratio(remote("frames_sent"), windows),
        "dist.bytes_sent": remote("bytes_sent"),
        "dist.bytes_received": remote("bytes_received"),
        "dist.rpc_p50_ms": rpc_h["p50"] * 1e3,
        "dist.serialize_s": hist.get("dist.serialize_sec", empty)["sum"],
        "dist.deserialize_s": hist.get("dist.deserialize_sec", empty)["sum"],
        "dist.retries": remote("retries"),
        "dist.timeouts": remote("timeouts"),
        "dist.local_fallbacks": remote("local_fallbacks"),
        "dist.worker.cache_query_hits": remote("cache_query_hits"),
    })
    for layer in LAYERS:
        m["selftime." + layer + "_s"] = selfs[layer]
    m["trace.overhead_pct"] = 100.0 * ratio(
        traced["flow_s"] - untraced["flow_s"], untraced["flow_s"])
    m["trace.dropped_events"] = dropped
    return m


# ---------------------------------------------------------------- report

def report(workload, seed, metrics, spec, problems, findings, fleet):
    print("perfbench %s seed=%d (tiny OpenM1 designs, %s backend)"
          % (workload, seed, WORKLOADS[workload]))
    for name, unit, better in spec:
        note = ""
        if fleet and name.startswith(("lp.", "milp.")) and name not in (
                "milp.nodes", "milp.nodes_per_solve"):
            note = "  (absent: runs in the workers)"
        print("  %-32s %16.6g %-6s %s is better%s"
              % (name, metrics[name], unit, better, note))
    if spec is PER_LAYER:
        print("  expected moves, per layer:")
        for layer, metric_names, moves in LAYER_MAP:
            print("    %-14s %-22s -> %s" % (layer, metric_names, moves))
    for p in problems:
        print("  CHECK FAILED: " + p)
    for f in findings:
        print("  FINDING: " + f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    fleet = WORKLOADS[a.workload] == "processes"
    with tempfile.TemporaryDirectory(dir=BUILD, prefix="run-") as tmp:
        out_path = os.path.join(tmp, "raw.json")
        trace_path = os.path.join(tmp, "trace.json") if a.trace else None
        try:
            raw = run_flowbench(flowbench_args(a.workload, a.seed, out_path,
                                               trace_path), out_path)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError,
                OSError) as e:
            log("perfbench: %s" % e)
            return 3
        # The raw measurements stay beside the build, for diagnosis.
        runs = os.path.join(BUILD, "runs")
        os.makedirs(runs, exist_ok=True)
        with open(os.path.join(runs, "%s-%d-trace%d.json"
                               % (a.workload, a.seed, a.trace)), "w") as f:
            json.dump(raw, f)
        attempted, failed, problems, findings = check_run(
            raw, a.workload, a.seed,
            os.path.join(BUILD, "fingerprints", source_digest()))
        if a.trace:
            metrics, spec = per_layer(raw, trace_path), PER_LAYER
        else:
            metrics, spec = end_to_end(raw), END_TO_END

    report(a.workload, a.seed, metrics, spec, problems, findings, fleet)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
