// serve::Server — multi-tenant request serving over the virtual-GPU engine.
//
// The paper (and everything below sched/) optimises the latency of ONE
// inference; a serving system multiplexes many. The server adds the
// request level on top of the per-request machinery:
//
//   * Admission: a virtual-time queue bound with per-request deadlines. A
//     full queue rejects (overload shedding); an admitted request whose
//     deadline cannot be met at dispatch time is dropped without executing;
//     under a degraded topology a circuit breaker sheds requests whose
//     deadline no survivor plan can meet (kBreakerRejected).
//   * Stream slots: `slots_per_gpu` lanes, each spanning the whole vGPU
//     set, execute up to K requests concurrently — the modelled analogue of
//     running K CUDA streams per GPU (§III-A's L). Overlapping requests
//     contend for the modelled GPUs through the same malleable-task
//     contention formula the cost model uses for intra-stage concurrency
//     (cost::contention_stage_time, the Fig. 1 experiment): a request
//     dispatched while k-1 others are in flight runs
//     stream_contention_scale(k, demand, kappa) times slower.
//   * Schedule cache + plan pool: (model fingerprint, nGPU, algorithm,
//     window, survivor mask) -> plan, so repeat requests skip profiling +
//     scheduling entirely — including requests planned around a dead GPU,
//     whose survivor plans the PlanPool prewarms each time the health
//     generation moves.
//   * Health (DESIGN.md §6f): GPU outages happen in server virtual time
//     (ServerOptions::outages), and a HealthTracker owns that fault state
//     *across* requests — the first victim marks the GPU down for everyone,
//     later requests are planned on the survivors, deterministic probes
//     bring the GPU back. Failed requests retry with exponential backoff
//     onto the survivor plan (bounded, deadline-aware); slow requests may
//     hedge a second dispatch on a p99-based trigger. The circuit breaker
//     and survivor prewarm always run; neither is an option.
//   * Metrics: serve::Metrics counters + tail-latency reservoirs, threaded
//     through the resilience layer (retried / hedged / hedge_won /
//     breaker_rejected); the health counts are the tracker's own.
//
// run_trace(trace) is the server's one serving loop: deterministic serving
// of a virtual-time request trace. Admission, dispatch, contention, health
// transitions, probes, retries, and every metric are computed in virtual
// time (bit-identical across reruns and thread counts); engine execution
// of the admitted requests then fans out over num_lanes() threads
// (util::ThreadPool), proving the tensors.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cost/gpu_spec.h"
#include "serve/health.h"
#include "serve/metrics.h"
#include "serve/plan_pool.h"
#include "serve/request.h"
#include "serve/schedule_cache.h"
#include "sim/timeline.h"

namespace hios::serve {

/// Serving configuration.
struct ServerOptions {
  /// Machine model; num_gpus here is the serving GPU count.
  cost::Platform platform = cost::make_a40_server(2);
  /// Stream slots per GPU: K requests execute concurrently on the vGPU set.
  int slots_per_gpu = 2;
  /// Admission queue bound; a full queue rejects new requests.
  std::size_t queue_capacity = 64;
  /// Scheduling algorithm + tunables for cached plans.
  std::string algorithm = "hios-lp";
  sched::SchedulerConfig config;  ///< num_gpus is overridden from platform
  /// GPU fraction one in-flight request saturates (feeds the contention
  /// formula). 0.2 means 5 concurrent requests fill the machine exactly.
  double request_demand = 0.2;
  /// Execute real tensors through the engine (true) or account virtual
  /// time only (false; throughput benchmarks).
  bool use_engine = true;

  // --- degraded-mode serving (DESIGN.md §6f) ----------------------------
  /// Server-virtual-time GPU outage windows, the server's only fault
  /// model (run_trace): one request's failure is everyone's failure — the
  /// HealthTracker marks the GPU down and later requests plan around it.
  /// Each health transition prewarms the survivor plans; while a GPU is
  /// down, a circuit breaker sheds at admission any request whose deadline
  /// no survivor plan can meet.
  std::vector<GpuOutage> outages;
  HealthOptions health;
  /// Re-dispatch attempts after a failed one (0 disables retries).
  int max_retries = 2;
  /// First retry backoff; each further retry multiplies it.
  double retry_backoff_ms = 1.0;
  double retry_backoff_multiplier = 2.0;
  /// Hedge trigger: issue a backup dispatch when a request's projected
  /// execution time exceeds hedge_multiplier * p99 of prior dispatches
  /// (<= 0 disables hedging; needs >= hedge_min_samples history).
  double hedge_multiplier = 0.0;
  int hedge_min_samples = 16;

  /// Throws hios::Error naming the offending field on invalid values
  /// (negative counts, out-of-range outages, no survivor GPU, ...).
  void validate() const;
};

/// Everything a deterministic trace run produced.
struct ServeReport {
  std::vector<Response> responses;  ///< sorted by request id
  double makespan_ms = 0.0;         ///< last virtual completion
  double throughput_rps = 0.0;      ///< completed requests per virtual second
  /// Per-request engine timelines shifted to their virtual dispatch times
  /// and merged (engine mode only).
  sim::Timeline timeline;
  Json metrics;                     ///< Metrics::to_json() after the run
  Json health;                      ///< HealthTracker::to_json() after the run
};

/// Slowdown of one request when `concurrency` requests share the vGPU set,
/// each saturating fraction `demand` of every GPU: `concurrency` identical
/// unit-time streams through cost::contention_stage_time (zero stream
/// overhead), i.e. max(1, k*r) with the kappa penalty beyond saturation.
double stream_contention_scale(int concurrency, double demand, double kappa);

class Server {
 public:
  explicit Server(ServerOptions options);

  /// Registers `model` under `name`; requests reference it by name.
  /// Re-registering a name replaces the model (the schedule cache keys on
  /// structure, so stale plans are simply never hit again).
  void register_model(const std::string& name, ops::Model model);
  const ops::Model& model(const std::string& name) const;

  /// Deterministic virtual-time serving of a trace (see file comment).
  ServeReport run_trace(const Trace& trace);

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  ScheduleCache& cache() { return cache_; }
  PlanPool& plan_pool() { return pool_; }
  const HealthTracker& health() const { return health_; }
  const ServerOptions& options() const { return options_; }
  /// Concurrent request lanes (= slots_per_gpu).
  int num_lanes() const { return options_.slots_per_gpu; }

 private:
  struct EngineOutcome {
    bool ok = false;
    std::string error;
    std::map<int, ops::Tensor> outputs;
    sim::Timeline timeline;
  };

  static ServerOptions validated(ServerOptions options);
  static sched::SchedulerConfig effective_config(const ServerOptions& options);

  /// One cache lookup of `model_name`'s plan on the survivor set `mask`.
  /// A lookup that resolves to the full-topology entry records the cache
  /// counters; a survivor lookup records the pool counters.
  std::shared_ptr<const CachedPlan> lookup_plan(const std::string& model_name,
                                                uint32_t mask = kFullMask);
  EngineOutcome execute_plan(const ops::Model& model, const CachedPlan& plan);

  ServerOptions options_;
  sched::SchedulerConfig config_;  ///< options_.config with num_gpus applied
  ScheduleCache cache_;
  Metrics metrics_;
  HealthTracker health_;
  PlanPool pool_;
  uint64_t warmed_ = 0;  ///< health generation last prewarmed (run_trace)
  std::map<std::string, ops::Model> models_;
  mutable std::mutex models_mu_;
};

}  // namespace hios::serve
