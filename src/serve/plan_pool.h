// Survivor-topology plan pool (DESIGN.md §6f).
//
// The ScheduleCache answers "plan for this (model, topology) key"; the
// PlanPool layers serving policy on top of it: which topology should be
// planned for *now*, and which should be planned for *next*. Its two jobs:
//
//   * plan_for(model, mask, generation): the plan for the current survivor
//     set — a warm hash lookup whenever the pool (or an earlier request)
//     already built it.
//   * prewarm(model, mask, generation): build the plan for the current
//     survivor set plus every likely next-degraded set — each
//     single-GPU-down subset of the survivors — so when a GPU actually
//     fails, the survivor plan is already warm and no request pays a cold
//     residual reschedule.
//
// Invalidation follows the cache-key rules: GPU membership is named by the
// mask itself. A health transition that removes a GPU therefore does not
// discard the prewarmed plans — the new current mask *is* one of the
// prewarmed keys. The `generation` argument is one more cache-key
// component; the server always passes 0, and it stays only because the
// benchmark harness calls plan_for / prewarm with it.
//
// Stateless: the pool holds no lock and no counters. Plan builds and their
// hit / miss / coalesced counts live in the (locking) ScheduleCache, and the
// server records serving counters in serve::Metrics, the one counter source.
#pragma once

#include <cstdint>
#include <string>

#include "ops/model.h"
#include "sched/scheduler.h"
#include "serve/schedule_cache.h"

namespace hios::serve {

/// Plan-pool policy over a ScheduleCache (see file comment).
class PlanPool {
 public:
  /// Throws hios::Error unless config.num_gpus is in [1, 32].
  PlanPool(ScheduleCache& cache, std::string algorithm, sched::SchedulerConfig config);

  /// The plan for the survivor set `mask` under cache-key generation
  /// `generation`; builds cold iff nothing warmed it first.
  std::shared_ptr<const CachedPlan> plan_for(const ops::Model& model, uint32_t mask,
                                             uint64_t generation);

  /// Ensures warm plans for `mask` and every single-GPU-down subset of it
  /// (skipping subsets with no survivor). The masks are distinct cache
  /// keys, so the cold builds run concurrently on util::global_pool()'s
  /// lanes, one serial scheduler pass per mask. Returns how many cold
  /// builds this call performed (0 = everything was already warm; a build
  /// coalesced with another caller's in-flight build does not count).
  std::size_t prewarm(const ops::Model& model, uint32_t mask, uint64_t generation);

 private:
  ScheduleCache& cache_;
  std::string algorithm_;
  sched::SchedulerConfig config_;
  uint32_t width_mask_;  ///< every GPU of the config.num_gpus-wide platform
};

}  // namespace hios::serve
