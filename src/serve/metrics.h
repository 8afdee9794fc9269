// Serving metrics: counters, tail-latency reservoirs, queue gauges.
//
// Every request ends in exactly one of five verdicts, recorded once by
// on_finished, giving the conservation invariants the stress suite pins:
//   submitted = admitted + rejected + breaker_rejected
//   admitted  = completed + dropped + failed
// Resilience events (retries, hedges, circuit-breaker sheds — DESIGN.md
// §6f) are counted alongside, with hedge_won <= hedged as an additional
// invariant. The health counts (transitions, probes) are the
// HealthTracker's own, copied by record_health.
// Latency/queue-wait reservoirs hold *virtual-time* samples only, so a
// metrics snapshot is a pure function of the request trace and the cost
// model — identical across reruns and thread interleavings (the
// deterministic-replay contract, DESIGN.md §6e); no wall-clock quantity
// is recorded.
//
// Metrics is the serving layer's only counter source for plan lookups:
// the server reports each lookup's CacheOutcome once, to the cache counters
// for a full-topology plan and to the pool counters for a survivor plan.
// PlanPool keeps no counters of its own.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/health.h"
#include "serve/request.h"
#include "serve/schedule_cache.h"
#include "util/json.h"
#include "util/stats.h"

namespace hios::serve {

/// Thread-safe metrics sink of Server::run_trace. Every mutator locks, so a
/// snapshot may be taken from any thread; aggregates are order-independent
/// except reservoir insertion order, which run_trace fixes by recording
/// samples in request-id order.
class Metrics {
 public:
  // --- admission ------------------------------------------------------
  void on_submitted();
  void on_admitted(std::size_t queue_depth_after);

  /// The one terminal record of a request: counts its verdict (a
  /// completion also feeds the latency and queue-wait reservoirs), its
  /// attempts - 1 re-dispatches as `retried`, and its hedge bits.
  void on_finished(const Response& response);

  // --- degraded-mode resilience (DESIGN.md §6f) -----------------------
  /// A survivor-topology plan lookup: a miss paid a cold build on the
  /// serving path; a hit or a coalesced lookup did not, and counts as a hit.
  void on_pool_result(CacheOutcome outcome);
  void on_pool_prewarm(std::size_t cold_builds);
  /// Copies the tracker's transition and probe counts (cumulative over the
  /// server's life, so repeated traces never recount).
  void record_health(const HealthTracker& health);

  // --- execution-path detail ------------------------------------------
  /// A full-topology plan lookup: every lookup lands in exactly one of
  /// hit / miss / coalesced, pinned by Snapshot::conserved().
  void on_cache_result(CacheOutcome outcome);
  void set_queue_capacity(std::size_t capacity);
  void record_queue_depth(std::size_t depth);
  /// Virtual makespan of the run (for sustained-throughput reporting).
  void set_makespan(double makespan_ms);

  /// Point-in-time copy of every aggregate.
  struct Snapshot {
    int64_t submitted = 0, admitted = 0, rejected = 0;
    int64_t completed = 0, dropped = 0, failed = 0;
    int64_t breaker_rejected = 0;
    int64_t retried = 0, hedged = 0, hedge_won = 0;
    int64_t pool_hits = 0, pool_misses = 0, pool_prewarm_builds = 0;
    int64_t health_transitions = 0;
    int64_t probes_sent = 0, probes_succeeded = 0;
    int64_t cache_lookups = 0;
    int64_t cache_hits = 0, cache_misses = 0, cache_coalesced = 0;
    std::size_t queue_capacity = 0, queue_high_watermark = 0;
    double makespan_ms = 0.0;
    QuantileSummary latency;    ///< completed requests: arrival -> finish
    QuantileSummary queue_wait; ///< completed requests: arrival -> dispatch

    /// Completed requests per virtual second (0 when makespan unset).
    double throughput_rps() const;
    /// submitted = admitted + rejected + breaker_rejected, admitted =
    /// completed + dropped + failed, hedge_won <= hedged, and every cache
    /// lookup has exactly one outcome (lookups = hits + misses +
    /// coalesced) — false only on a live server mid-flight, a lost
    /// request, or an unreported cache resolution.
    bool conserved() const;
  };

  Snapshot snapshot() const;

  /// Deterministic JSON dump (virtual-time quantities only).
  Json to_json() const;

 private:
  mutable std::mutex mu_;
  Snapshot s_;
  std::vector<double> latency_samples_;
  std::vector<double> queue_wait_samples_;
};

}  // namespace hios::serve
