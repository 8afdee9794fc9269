"""The benchmark's own math: tail percentiles, host scaling, the rate ladder
and span self time.

Pure functions over plain lists and dicts, so perfbench/test_stats.py can
pin them without building anything.
"""

import math
import statistics

MIN_BEYOND = 10  # samples a reported tail percentile must have beyond it


def tail_quantile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile of `samples`, or None when fewer than
    `min_beyond` samples lie beyond it (e.g. a p90 needs >= 100 samples)."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def host_scale(reference_ms, nominal_ms):
    """Factor that puts a run's wall-clock figures in the time of the machine
    on which the reference operation's median took `nominal_ms`: nominal
    over this run's median. A host running 20% slow gives 1/1.2."""
    return nominal_ms / statistics.median(reference_ms)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def backlog_grows(queue_ms, limit_ms):
    """True when queueing keeps growing through a trace: the mean queue wait
    of completed requests in the last quarter (by arrival) exceeds the
    second quarter's by more than half the latency limit. Entries < 0 are
    requests that did not complete and carry no wait."""
    n = len(queue_ms)
    quarter = n // 4
    if quarter == 0:
        return False

    def mean_wait(part):
        done = [w for w in part if w >= 0]
        return sum(done) / len(done) if done else float("inf")

    second = mean_wait(queue_ms[quarter:2 * quarter])
    last = mean_wait(queue_ms[n - quarter:])
    return last > second + 0.5 * limit_ms


def rung_p99(latency_ms):
    """p99 over every request sent; one that failed or was refused (< 0)
    counts as missing any limit."""
    return tail_quantile([x if x >= 0 else math.inf for x in latency_ms], 0.99)


def max_rps_at_p99(rungs, limit_ms):
    """Highest ladder rate whose p99 (failures as misses) is within
    `limit_ms` with no growing backlog; None when no rate qualifies. When
    the next rung up misses on its p99 alone (finite, no backlog), the rate
    is interpolated linearly in p99 toward it, so a change in capacity
    smaller than one rung still shows. Each rung is
    {"rps", "latency_ms": [...], "queue_ms": [...]}."""
    rungs = sorted(rungs, key=lambda r: r["rps"])
    p99s = []
    for rung in rungs:
        p99 = rung_p99(rung["latency_ms"])
        if p99 is None:
            raise ValueError("ladder rung of %d requests cannot support a p99"
                             % len(rung["latency_ms"]))
        p99s.append(p99)
    ok = [p99 <= limit_ms and not backlog_grows(r["queue_ms"], limit_ms)
          for r, p99 in zip(rungs, p99s)]
    if not any(ok):
        return None
    k = max(i for i, good in enumerate(ok) if good)
    best = rungs[k]["rps"]
    if k + 1 < len(rungs) and math.isfinite(p99s[k + 1]) and \
            not backlog_grows(rungs[k + 1]["queue_ms"], limit_ms) and p99s[k + 1] > p99s[k]:
        share = (limit_ms - p99s[k]) / (p99s[k + 1] - p99s[k])
        best += share * (rungs[k + 1]["rps"] - best)
    return best


def self_times(spans):
    """Self time per span: its duration minus the part of its interval its
    children cover. `spans` are {"id", "parent", "ts", "dur"} dicts of one
    clock. Returns {id: self_time}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["ts"], s["ts"] + s["dur"]
        covered, reach = 0.0, start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["ts"]):
            lo = max(c["ts"], reach)
            hi = min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["dur"] - covered
    return out


def layer_self_share(spans):
    """Percent of all root-span time that each layer spent in itself. The
    layer is the span name up to its first dot."""
    selfs = self_times(spans)
    total = sum(s["dur"] for s in spans if s["parent"] < 0)
    shares = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + selfs[s["id"]]
    return {k: 100.0 * v / total for k, v in shares.items()} if total > 0 else {}
