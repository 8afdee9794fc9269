#include "serve/plan_pool.h"

#include <atomic>
#include <vector>

#include "util/thread_pool.h"

namespace hios::serve {

PlanPool::PlanPool(ScheduleCache& cache, std::string algorithm,
                   sched::SchedulerConfig config)
    : cache_(cache),
      algorithm_(std::move(algorithm)),
      config_(std::move(config)),
      width_mask_(gpu_width_mask(config_.num_gpus, "PlanPool: config.num_gpus")) {}

std::shared_ptr<const CachedPlan> PlanPool::plan_for(const ops::Model& model,
                                                     uint32_t mask,
                                                     uint64_t generation) {
  return cache_.get(model, algorithm_, config_, TopologyVersion{mask, generation}).plan;
}

std::size_t PlanPool::prewarm(const ops::Model& model, uint32_t mask,
                              uint64_t generation) {
  const uint32_t current = mask & width_mask_;

  std::vector<uint32_t> masks;
  auto enqueue = [&](uint32_t m) {
    if (m == 0) return;  // no survivor: nothing to plan
    masks.push_back(m);
  };
  enqueue(current);
  for (int g = 0; g < config_.num_gpus; ++g) {
    if (current & (1u << g)) enqueue(current & ~(1u << g));
  }

  // The masks are distinct cache keys, so their cold builds are
  // independent; fan them out. Repeat masks across concurrent prewarms
  // coalesce inside the cache (single-flight), so no schedule is computed
  // twice.
  std::atomic<std::size_t> builds{0};
  util::global_pool().parallel_for(masks.size(), [&](std::size_t i) {
    const TopologyVersion topo{masks[i], generation};
    if (cache_.get(model, algorithm_, config_, topo).outcome == CacheOutcome::kMiss) ++builds;
  });
  return builds;
}

}  // namespace hios::serve
