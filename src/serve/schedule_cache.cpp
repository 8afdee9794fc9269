#include "serve/schedule_cache.h"

#include <chrono>

#include "util/error.h"

namespace hios::serve {

namespace {
double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Platform GPU ids named by `mask` within [0, num_gpus), ascending.
std::vector<int> survivor_gpus(uint32_t mask, int num_gpus) {
  std::vector<int> out;
  for (int g = 0; g < num_gpus; ++g) {
    if (mask & (1u << g)) out.push_back(g);
  }
  return out;
}
}  // namespace

CacheLookup ScheduleCache::get(const ops::Model& model, const std::string& algorithm,
                               const sched::SchedulerConfig& config, TopologyVersion topo) {
  const uint32_t width_mask =
      gpu_width_mask(config.num_gpus, "ScheduleCache::get: config.num_gpus");
  uint32_t mask = topo.mask & width_mask;
  HIOS_CHECK(mask != 0, "ScheduleCache::get: topology mask leaves no survivor GPU");
  // Normalise: the full survivor set always keys as kFullMask, so the
  // default TopologyVersion and an explicit all-up mask share one entry.
  if (mask == width_mask) mask = kFullMask;

  const Key key{model.fingerprint(), model.fingerprint_check(), config, mask,
                topo.generation, algorithm};

  std::unique_lock<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    if (it->second.plan != nullptr) {
      ++hits_;
      return {it->second.plan, CacheOutcome::kHit};
    }
    // Another call is building this key right now: wait on its future
    // instead of scheduling the same model twice.
    ++coalesced_;
    auto pending = it->second.pending;
    lock.unlock();
    return {pending.get(), CacheOutcome::kCoalesced};  // rethrows a failed build
  }
  ++misses_;
  // Only a miss makes the promise that latecomers wait on: a warm hit
  // allocates nothing.
  std::promise<std::shared_ptr<const CachedPlan>> promise;
  map_.emplace(key, Slot{nullptr, promise.get_future().share()});
  lock.unlock();

  // Cold build outside the lock: warm hits and other keys proceed meanwhile.
  std::shared_ptr<const CachedPlan> plan;
  try {
    plan = build_plan(model, algorithm, config, mask, width_mask);
  } catch (...) {
    {
      std::lock_guard<std::mutex> guard(mu_);
      map_.erase(key);  // allow a later call to retry the key
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> guard(mu_);
    Slot& slot = map_[key];
    slot.plan = plan;
    slot.pending = {};
  }
  promise.set_value(plan);
  return {plan, CacheOutcome::kMiss};
}

std::shared_ptr<const CachedPlan> ScheduleCache::build_plan(
    const ops::Model& model, const std::string& algorithm,
    const sched::SchedulerConfig& config, uint32_t mask, uint32_t width_mask) {
  const double t0 = now_ms();
  const std::vector<int> gpus =
      mask == kFullMask ? survivor_gpus(width_mask, config.num_gpus)
                        : survivor_gpus(mask, config.num_gpus);
  const int n = static_cast<int>(gpus.size());

  // Schedule on the survivor slice of the platform: n GPUs, and — when the
  // platform carries a non-uniform interconnect — the survivor-restricted
  // link table, so schedule device i means platform GPU gpus[i].
  cost::Platform platform = platform_;
  platform.num_gpus = n;
  if (!platform_.topology.empty()) {
    cost::Topology restricted = cost::Topology::uniform(n);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        restricted.set(i, j, platform_.topology.between(gpus[i], gpus[j]));
      }
    }
    platform.topology = std::move(restricted);
  }
  sched::SchedulerConfig survivor_config = config;
  survivor_config.num_gpus = n;

  auto plan = std::make_shared<CachedPlan>();
  plan->profiled = cost::profile_model(model, platform);
  const sched::ScheduleResult result =
      sched::make_scheduler(algorithm)->schedule(plan->profiled.graph,
                                                 *plan->profiled.cost, survivor_config);
  plan->schedule = result.schedule;
  plan->latency_ms = result.latency_ms;
  plan->scheduling_ms = result.scheduling_ms;
  plan->build_ms = now_ms() - t0;
  plan->algorithm = algorithm;
  plan->gpus = gpus;
  plan->topo_mask = mask;
  return plan;
}

std::size_t ScheduleCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t ScheduleCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t ScheduleCache::coalesced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coalesced_;
}

std::size_t ScheduleCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t ready = 0;
  for (const auto& [key, slot] : map_) {
    if (slot.plan != nullptr) ++ready;
  }
  return ready;
}

}  // namespace hios::serve
