#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <sched-large|plan-zoo|serve-trace>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the library sources plus the hios_perfbench
binary) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
The binary runs the workload in its own process; this script turns its raw
samples into metrics, prints a table, and prints as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones,
and the spans are written as Chrome trace JSON next to the raw samples.
Exits non-zero when a correctness check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("sched-large", "plan-zoo", "serve-trace")
BINARY_TIMEOUT_S = 170
# Median time of the binary's reference operation on the machine the bounds
# were set on (4-vCPU x86-64 VM). Wall-clock figures are reported as
# measured x REFERENCE_MS / this run's reference median: in that machine's
# time, whatever speed the host runs at during the run.
REFERENCE_MS = 4.4

# name -> (unit, what it is). Every workload reports all of them. The
# wall-clock ones are scaled by the reference operation (REFERENCE_MS).
END_TO_END = {
    "sched_ms_p50": ("ms", "wall clock per HIOS-LP schedule() call, median"),
    "sched_ms_p90": ("ms", "wall clock per HIOS-LP schedule() call, p90"),
    "prewarm_ms_p50": ("ms", "wall clock per zoo pass (25 cold plan builds), median"),
    "prewarm_ms_p90": ("ms", "wall clock per zoo pass (25 cold plan builds), p90"),
    "warm_get_us": ("us", "mean warm ScheduleCache::get, median over passes"),
    "serve_us_per_req": ("us", "run_trace wall clock / requests, median over runs"),
    "req_ms_p50": ("ms", "virtual latency of completed requests, median"),
    "req_ms_p99": ("ms", "virtual latency of completed requests, p99"),
    "max_rps_at_p99": ("req/s", "highest ladder rate whose p99 meets the deadline, "
                       "no backlog; interpolated to the next rung"),
    "failed_share": ("ratio", "requests not completed / submitted"),
    "plan_latency_ms": ("ms", "geometric mean of the modelled plan latency"),
    "setup_s": ("s", "set-up time, median of the run's set-ups"),
    "peak_rss_mb": ("MB", "peak resident memory of the workload process"),
}

# name -> (unit, end-to-end metric it should move). Reported from --trace 1.
PER_LAYER = {
    "util.pool.lanes": ("count", "none (pinned)"),
    "graph.compile_ms": ("ms", "sched_ms_* on sched-large"),
    "graph.compile.calls": ("count", "sched_ms_* on sched-large"),
    "graph.longest_path_ms": ("ms", "sched_ms_* on sched-large"),
    "graph.longest_path.calls": ("count", "sched_ms_* on sched-large"),
    "sched.list_trial_us": ("us", "sched_ms_* on sched-large; prewarm_ms_* on plan-zoo"),
    "sched.list_trials": ("count", "sched_ms_* on sched-large; prewarm_ms_* on plan-zoo"),
    "sched.alg1_ms": ("ms", "sched_ms_* on sched-large; prewarm_ms_* on plan-zoo"),
    "sched.alg2_ms": ("ms", "sched_ms_* on sched-large; prewarm_ms_* on plan-zoo"),
    "sched.alg2.candidates_tried": ("count", "sched_ms_* on sched-large"),
    "sched.alg2.merges_accepted": ("count", "sched_ms_* on sched-large"),
    "sched.alg2.accept_ratio": ("ratio", "sched_ms_* on sched-large"),
    "sched.alg2.us_per_candidate": ("us", "sched_ms_* on sched-large"),
    "cost.stage_cache.hits": ("count", "sched_ms_* on sched-large"),
    "cost.stage_cache.misses": ("count", "sched_ms_* on sched-large"),
    "cost.stage_cache.hit_ratio": ("ratio", "sched_ms_* on sched-large"),
    "cost.profile_ms": ("ms", "prewarm_ms_* on plan-zoo; setup_s on serve-trace"),
    "ops.fingerprint_us": ("us", "warm_get_us on plan-zoo"),
    "serve.cache.warm_get_us": ("us", "warm_get_us on plan-zoo"),
    "serve.cache.cold_get_ms": ("ms", "prewarm_ms_* on plan-zoo; setup_s on serve-trace"),
    "serve.cache.hits": ("count", "prewarm_ms_* on plan-zoo"),
    "serve.cache.misses": ("count", "prewarm_ms_* on plan-zoo"),
    "serve.cache.coalesced": ("count", "prewarm_ms_* on plan-zoo"),
    "serve.pool.prewarm_ms": ("ms", "prewarm_ms_* on plan-zoo; setup_s on serve-trace"),
    "serve.pool.prewarm_builds": ("count", "prewarm_ms_* on plan-zoo"),
    "serve.pool.prewarm_1lane_ms": ("ms", "none (base of the 2-lane ratio)"),
    "serve.pool.prewarm_2lane_ms": ("ms", "none (base of the 2-lane ratio)"),
    "serve.pool.prewarm_2lane_ratio": ("ratio", "none (2-lane / 1-lane zoo pass)"),
    "serve.run_trace_ms": ("ms", "serve_us_per_req on serve-trace"),
    "serve.admitted": ("count", "failed_share on serve-trace"),
    "serve.rejected": ("count", "failed_share on serve-trace"),
    "serve.breaker_rejected": ("count", "failed_share on serve-trace"),
    "serve.dropped": ("count", "failed_share on serve-trace"),
    "serve.failed": ("count", "failed_share on serve-trace"),
    "serve.retried": ("count", "req_ms_p99, failed_share on serve-trace"),
    "serve.hedged": ("count", "req_ms_p99 on serve-trace"),
    "serve.hedge_won": ("count", "req_ms_p99 on serve-trace"),
    "serve.retry_ratio": ("ratio", "req_ms_p99, failed_share on serve-trace"),
    "serve.hedge_win_ratio": ("ratio", "req_ms_p99 on serve-trace"),
    "serve.queue_wait_ms_p50": ("ms", "req_ms_p50, max_rps_at_p99 on serve-trace"),
    "serve.queue_wait_ms_p99": ("ms", "req_ms_p99, max_rps_at_p99 on serve-trace"),
    "serve.pool.hits": ("count", "serve_us_per_req on serve-trace"),
    "serve.pool.misses": ("count", "serve_us_per_req on serve-trace"),
    "serve.pool.builds_in_trace": ("count", "serve_us_per_req on serve-trace (expected 0)"),
    "health.transitions": ("count", "serve_us_per_req, failed_share on serve-trace"),
    "health.probes": ("count", "serve_us_per_req on serve-trace"),
    "bench.self_pct": ("%", "none (benchmark's own time in its root spans)"),
    "graph.self_pct": ("%", "sched_ms_* on sched-large"),
    "sched.self_pct": ("%", "sched_ms_* on sched-large"),
    "ops.self_pct": ("%", "warm_get_us on plan-zoo"),
    "serve.self_pct": ("%", "prewarm_ms_*, serve_us_per_req"),
    "trace.spans": ("count", "none"),
    "trace.overhead_pct": ("%", "none (traced vs untraced main-stage time)"),
}


class BenchError(Exception):
    pass


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build(bdir):
    """Configures (once) and builds the binary; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "hios_perfbench")


def run_binary(binary, args, raw_path, spans_path):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--spans", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("hios_perfbench timed out")
    # 0: all checks passed; 3: it ran but a correctness check failed.
    if proc.returncode not in (0, 3):
        raise BenchError("hios_perfbench exited with %d" % proc.returncode)
    with open(raw_path) as f:
        return json.load(f)


def need(value, what):
    if value is None:
        raise BenchError("too few samples for " + what)
    return value


WALL_CLOCK = ("sched_ms_p50", "sched_ms_p90", "prewarm_ms_p50", "prewarm_ms_p90",
              "warm_get_us", "serve_us_per_req", "setup_s")


def end_to_end(raw):
    """The end-to-end metrics as measured, before host scaling."""
    sched, zoo, serve = raw["sched"], raw["zoo"], raw["serve"]
    main_plans = {"sched-large": sched, "plan-zoo": zoo, "serve-trace": serve}
    lat = serve["completed_latency_ms"]
    max_rps = stats.max_rps_at_p99(serve["ladder"], serve["ladder_limit_ms"])
    return {
        "sched_ms_p50": statistics.median(sched["ms"]),
        "sched_ms_p90": need(stats.tail_quantile(sched["ms"], 0.90), "sched_ms_p90"),
        "prewarm_ms_p50": statistics.median(zoo["prewarm_ms"]),
        "prewarm_ms_p90": need(stats.tail_quantile(zoo["prewarm_ms"], 0.90), "prewarm_ms_p90"),
        "warm_get_us": statistics.median(zoo["warm_get_us"]),
        "serve_us_per_req": statistics.median(serve["us_per_req"]),
        "req_ms_p50": statistics.median(lat),
        "req_ms_p99": need(stats.tail_quantile(lat, 0.99), "req_ms_p99"),
        "max_rps_at_p99": need(max_rps, "max_rps_at_p99 (no ladder rate met the limit)"),
        "failed_share": 1.0 - len(lat) / serve["submitted"],
        "plan_latency_ms": stats.geomean(main_plans[raw["workload"]]["plan_latency_ms"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    wall = []
    for e in events:
        if e.get("ph") == "X" and e["pid"] == 1:
            wall.append({"name": e["name"], "ts": e["ts"], "dur": e["dur"],
                         "id": e["args"]["id"], "parent": e["args"]["parent"]})
    return wall


def per_layer(raw, spans):
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["dur"] / 1000.0)  # ms

    def mean_ms(name):
        xs = by_name.get(name, [])
        return sum(xs) / len(xs) if xs else 0.0

    def calls(name):
        return len(by_name.get(name, []))

    def ratio(a, b):
        return a / b if b else 0.0

    st, zt = raw["sched"]["traced"], raw["zoo"]["traced"]
    serve = raw["serve"]
    m = serve["metrics"]  # Metrics::to_json of the main trace's reference run
    c = m["counters"]
    n_calls = st["calls"]
    first_pass = zt["passes"][0]
    lane1 = statistics.median(zt["prewarm_1lane_ms"])
    lane2 = statistics.median(zt["prewarm_2lane_ms"])

    # Tracing overhead on the workload's main stage: the same work timed
    # with spans on against the untraced loop of the same run.
    if raw["workload"] == "sched-large":
        untraced = sum(raw["sched"]["ms"]) / len(raw["sched"]["ms"])
        traced = mean_ms("bench.sched_call")
    elif raw["workload"] == "plan-zoo":
        untraced = sum(raw["zoo"]["prewarm_ms"]) / len(raw["zoo"]["prewarm_ms"])
        traced = (sum(by_name["serve.cache.cold_get"]) + sum(by_name["serve.pool.prewarm"])) \
            / calls("bench.zoo_pass")
    else:
        untraced = (sum(serve["us_per_req"]) / len(serve["us_per_req"])
                    * serve["submitted"] / 1000.0)
        traced = mean_ms("serve.run_trace")

    shares = stats.layer_self_share(spans)
    return {
        "util.pool.lanes": raw["lanes"],
        "graph.compile_ms": mean_ms("graph.compile"),
        "graph.compile.calls": calls("graph.compile"),
        "graph.longest_path_ms": mean_ms("graph.longest_path"),
        "graph.longest_path.calls": calls("graph.longest_path"),
        "sched.list_trial_us": mean_ms("sched.list_trial") * 1000.0,
        "sched.list_trials": calls("sched.list_trial"),
        "sched.alg1_ms": mean_ms("sched.alg1"),
        "sched.alg2_ms": mean_ms("sched.alg2"),
        "sched.alg2.candidates_tried": ratio(st["candidates_tried"], n_calls),
        "sched.alg2.merges_accepted": ratio(st["merges_accepted"], n_calls),
        "sched.alg2.accept_ratio": ratio(st["merges_accepted"], st["candidates_tried"]),
        "sched.alg2.us_per_candidate": ratio(sum(by_name.get("sched.alg2", [])) * 1000.0,
                                             st["candidates_tried"]),
        "cost.stage_cache.hits": ratio(st["stage_cache_hits"], n_calls),
        "cost.stage_cache.misses": ratio(st["stage_cache_misses"], n_calls),
        "cost.stage_cache.hit_ratio": ratio(
            st["stage_cache_hits"], st["stage_cache_hits"] + st["stage_cache_misses"]),
        "cost.profile_ms": statistics.median([p["profile_ms"] for p in zt["passes"]]),
        "ops.fingerprint_us": mean_ms("ops.fingerprint") * 1000.0 / zt["fingerprints_per_model"],
        "serve.cache.warm_get_us":
            mean_ms("serve.cache.warm_get") * 1000.0 / zt["warm_gets_per_model"],
        "serve.cache.cold_get_ms": mean_ms("serve.cache.cold_get"),
        "serve.cache.hits": first_pass["hits"],
        "serve.cache.misses": first_pass["misses"],
        "serve.cache.coalesced": first_pass["coalesced"],
        "serve.pool.prewarm_ms": mean_ms("serve.pool.prewarm"),
        "serve.pool.prewarm_builds": first_pass["prewarm_builds"],
        "serve.pool.prewarm_1lane_ms": lane1,
        "serve.pool.prewarm_2lane_ms": lane2,
        "serve.pool.prewarm_2lane_ratio": ratio(lane2, lane1),
        "serve.run_trace_ms": mean_ms("serve.run_trace"),
        "serve.admitted": c["admitted"],
        "serve.rejected": c["rejected"],
        "serve.breaker_rejected": c["breaker_rejected"],
        "serve.dropped": c["dropped"],
        "serve.failed": c["failed"],
        "serve.retried": c["retried"],
        "serve.hedged": c["hedged"],
        "serve.hedge_won": c["hedge_won"],
        "serve.retry_ratio": ratio(c["retried"], c["admitted"]),
        "serve.hedge_win_ratio": ratio(c["hedge_won"], c["hedged"]),
        "serve.queue_wait_ms_p50": m["queue_wait_ms"]["p50"],
        "serve.queue_wait_ms_p99": m["queue_wait_ms"]["p99"],
        "serve.pool.hits": m["plan_pool"]["hits"],
        "serve.pool.misses": m["plan_pool"]["misses"],
        "serve.pool.builds_in_trace": serve["builds_in_trace"],
        "health.transitions": m["health"]["transitions"],
        "health.probes": m["health"]["probes_sent"],
        "bench.self_pct": shares.get("bench", 0.0),
        "graph.self_pct": shares.get("graph", 0.0),
        "sched.self_pct": shares.get("sched", 0.0),
        "ops.self_pct": shares.get("ops", 0.0),
        "serve.self_pct": shares.get("serve", 0.0),
        "trace.spans": raw["spans"],
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
    }


def print_table(title, values, table, extra_header, measured=None):
    """One line per metric; `measured` adds the unscaled wall-clock value."""
    print(title)
    print("  %-32s %14s %14s  %-6s  %s" % ("metric", "value", "measured" if measured else "",
                                          "unit", extra_header))
    for name, (unit, note) in table.items():
        raw = "%14.6g" % measured[name] if measured and name in WALL_CLOCK else " " * 14
        print("  %-32s %14.6g %s  %-6s  %s" % (name, values[name], raw, unit, note))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bdir = build_dir()
        binary = build(bdir)
        out_dir = os.path.join(bdir, "runs")
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
        spans_path = stem + ".perfetto.json"
        raw = run_binary(binary, args, stem + ".raw.json", spans_path)
        measured, scale = None, None
        if args.trace:
            values, table, header = per_layer(raw, load_spans(spans_path)), PER_LAYER, "moves"
        else:
            measured, table, header = end_to_end(raw), END_TO_END, "definition"
            scale = stats.host_scale(raw["reference_ms"], REFERENCE_MS)
            values = {k: v * scale if k in WALL_CLOCK else v for k, v in measured.items()}
    except (BenchError, OSError, KeyError, ValueError, ZeroDivisionError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    print("workload %s, seed %d, %g s, %d pool lane(s), checks %d/%d passed"
          % (args.workload, args.seed, args.seconds, raw["lanes"],
             raw["attempted"] - raw["failed"], raw["attempted"]))
    for failure in raw["failures"]:
        print("  CHECK FAILED: " + failure)
    if scale is not None:
        print("reference operation: median %.4f ms; wall-clock values scaled by %.4f"
              % (statistics.median(raw["reference_ms"]), scale))
    print_table("per-layer (traced run)" if args.trace else "end to end", values, table, header,
                measured)
    if args.trace:
        print("spans: " + spans_path)
    correct = raw["failed"] == 0
    metrics = {name: {"value": values[name], "unit": table[name][0]} for name in table}
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
