// Schedule cache: repeat requests skip the scheduling pass entirely.
//
// Scheduling a model is the expensive part of serving it cold: profiling
// plus a HIOS-LP pass costs ~14 ms on a 512-op DAG (DESIGN.md §6d) — far
// more than admitting a request. Schedules depend only on (model structure,
// algorithm, SchedulerConfig) under a fixed platform *topology*, so the
// cache keys on exactly that tuple (model structure via
// ops::Model::fingerprint, every SchedulerConfig field) plus a
// TopologyVersion. A Model keeps its fingerprint as it is built, so a warm
// request costs one hash probe and no walk over the model. The key also
// carries ops::Model::fingerprint_check, an independent second hash of the
// same structure: two models whose fingerprints collide miss instead of
// sharing a plan. Entries are immutable shared_ptrs: a cached plan can be
// executed concurrently by every stream slot while new models are being
// profiled.
//
// Topology versioning (DESIGN.md §6f): without it the cache has a latent
// staleness bug the moment health state exists — a plan scheduled across 4
// GPUs before a failure would keep being served after GPU 3 died. The key
// therefore carries the survivor *mask*, which names exactly which platform
// GPUs the plan may place work on. GPU membership is keyed by the mask
// itself, so plans prewarmed for a single-GPU-down mask still hit warm
// after that GPU actually fails. The key also carries a `generation` that
// the server always passes as 0; it stays only because the benchmark
// harness calls PlanPool with an explicit generation argument.
//
// Invalidation (DESIGN.md §6e): a cache instance is bound to one Platform
// at construction; registering a different platform means a different
// cache. Models are value-copied at build time and never mutate, so
// entries live for the cache's lifetime.
//
// Single-flight misses (DESIGN.md §6g): a cold build runs *outside* the
// cache lock — holding it would serialize every cold model behind one
// build and block warm hits meanwhile. Concurrent requests for the same
// key still schedule exactly once: the first caller installs an in-flight
// future and builds; latecomers block on that future (a *coalesced*
// lookup, counted separately from hits and misses). A failed build erases
// the in-flight entry so the key can be retried.
//
// One lookup: get() returns the plan together with how the lookup was
// satisfied (hit / miss / coalesced). The cache's own totals are
// hits()/misses()/coalesced(); serving counters are serve::Metrics' job.
#pragma once

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cost/analytical_model.h"
#include "cost/gpu_spec.h"
#include "ops/model.h"
#include "sched/scheduler.h"
#include "serve/request.h"

namespace hios::serve {

/// Which slice of the platform a plan is allowed to target.
struct TopologyVersion {
  /// Bit g set iff platform GPU g may carry work. kFullMask = all up.
  uint32_t mask = kFullMask;
  /// Extra key component; plans are never shared across generations. The
  /// server always uses 0; kept for the benchmark harness's PlanPool calls.
  uint64_t generation = 0;
};

/// One immutable cached scheduling result.
struct CachedPlan {
  cost::ProfiledModel profiled;   ///< graph with weights + matching cost model
  sched::Schedule schedule;
  double latency_ms = 0.0;        ///< evaluated single-request latency
  double scheduling_ms = 0.0;     ///< wall clock of the cold scheduler pass
  double build_ms = 0.0;          ///< wall clock of profile + schedule (cold)
  std::string algorithm;
  /// Platform GPU ids the schedule's devices 0..n-1 map onto, ascending.
  /// For a full-topology plan this is the identity [0, num_gpus).
  std::vector<int> gpus;
  uint32_t topo_mask = kFullMask;  ///< mask the plan was built for (normalised)
};

/// How a ScheduleCache lookup was satisfied.
enum class CacheOutcome {
  kHit,        ///< plan was ready in the cache
  kMiss,       ///< this call ran the cold build
  kCoalesced,  ///< waited on a concurrent call's in-flight build
};

/// What one ScheduleCache lookup returned, and how it was satisfied.
struct CacheLookup {
  std::shared_ptr<const CachedPlan> plan;
  CacheOutcome outcome = CacheOutcome::kHit;
};

/// Thread-safe (model, algorithm, SchedulerConfig, topology) -> plan cache.
class ScheduleCache {
 public:
  explicit ScheduleCache(cost::Platform platform) : platform_(std::move(platform)) {}

  /// The plan for (model.fingerprint(), model.fingerprint_check(),
  /// algorithm, config) on the survivor subset of the platform named by
  /// `topo.mask` (restricted GPU count and interconnect), keyed
  /// additionally on `topo.generation`. The default TopologyVersion is the
  /// full platform; a mask naming every GPU keys as that same entry.
  /// config.num_gpus names the *full* platform width and must be in
  /// [1, 32]; the mask picks survivors out of it. Misses build outside the
  /// lock with single-flight coalescing (see the file comment).
  CacheLookup get(const ops::Model& model, const std::string& algorithm,
                  const sched::SchedulerConfig& config, TopologyVersion topo = {});

  std::size_t hits() const;
  std::size_t misses() const;
  /// Lookups that waited on another call's in-flight build.
  std::size_t coalesced() const;
  std::size_t size() const;

  const cost::Platform& platform() const { return platform_; }

 private:
  struct Key {
    uint64_t model_fp = 0;
    uint64_t model_check = 0;       ///< second hash: an FNV-1a collision misses
    sched::SchedulerConfig config;  ///< every field: each one can change a plan
    uint32_t topo_mask = kFullMask;
    uint64_t topo_generation = 0;
    std::string algorithm;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // A new SchedulerConfig field must be mixed in below (equality picks
      // it up through the defaulted operator==); update the size when done.
      static_assert(sizeof(sched::SchedulerConfig) == 6 * sizeof(int),
                    "SchedulerConfig changed: hash the new field in KeyHash");
      const sched::SchedulerConfig& c = k.config;
      std::size_t h = k.model_fp;
      auto mix = [&h](std::size_t v) { h = h * 1099511628211ULL ^ v; };
      mix(c.num_gpus);
      mix(c.window);
      mix(c.max_streams);
      mix(c.ios_max_stage_ops);
      mix(c.ios_frontier_cap);
      mix(c.ios_beam_width);
      mix(k.topo_mask);
      mix(k.topo_generation);
      return h * 1099511628211ULL ^ std::hash<std::string>{}(k.algorithm);
    }
  };

  /// A ready plan, or the future of one being built by another call.
  struct Slot {
    std::shared_ptr<const CachedPlan> plan;
    std::shared_future<std::shared_ptr<const CachedPlan>> pending;
  };

  /// Runs the cold build (profile + schedule) for `key`'s survivor slice.
  /// Called without mu_ held.
  std::shared_ptr<const CachedPlan> build_plan(const ops::Model& model,
                                               const std::string& algorithm,
                                               const sched::SchedulerConfig& config,
                                               uint32_t mask, uint32_t width_mask);

  cost::Platform platform_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Slot, KeyHash> map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t coalesced_ = 0;
};

}  // namespace hios::serve
