#include "cost/stage_cache.h"

#include <cmath>
#include <limits>

namespace hios::cost {

StageTimeCache::StageTimeCache(const CostModel& inner) : inner_(inner) {
  set_topology(inner.topology());
  set_speed_factors(inner.speed_factors());
}

double StageTimeCache::stage_time(const graph::Graph& g,
                                  std::span<const graph::NodeId> stage) const {
  if (stage.size() == 1) {
    const auto v = static_cast<std::size_t>(stage[0]);
    if (singleton_.size() < g.num_nodes())
      singleton_.resize(g.num_nodes(), std::numeric_limits<double>::quiet_NaN());
    if (std::isnan(singleton_[v])) {
      singleton_[v] = inner_.stage_time(g, stage);
      ++misses_;
    } else {
      ++hits_;
    }
    return singleton_[v];
  }

  const auto it = memo_.find(stage);  // transparent: no key allocation
  if (it != memo_.end()) {
    ++hits_;
    return it->second;
  }
  const double t = inner_.stage_time(g, stage);
  memo_.emplace(std::vector<graph::NodeId>(stage.begin(), stage.end()), t);
  ++misses_;
  return t;
}

}  // namespace hios::cost
