// Experiment helpers shared by the figure-reproduction benchmarks.
//
// Includes the profiling-cost accounting behind Fig. 14: the paper's
// "time cost of scheduling optimization" counts the on-device measurement
// of every operator, every candidate concurrent group, and every possible
// transfer (36 runs each, §VI-A) plus the algorithm's own runtime. We
// reproduce it by wrapping the cost model in a decorator that records each
// *distinct* stage a scheduler asks about — exactly the set a profile-based
// scheduler would have to measure.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "cost/cost_model.h"
#include "sched/scheduler.h"

namespace hios::core {

/// Decorator counting the distinct (stage -> time) measurements a
/// profile-based scheduler would perform against this cost model. The
/// inner model's topology and speed factors are copied at construction, so
/// transfer_time / node_time / stage_time_on match the inner model's.
class CountingCostModel final : public cost::CostModel {
 public:
  explicit CountingCostModel(const cost::CostModel& inner) : inner_(inner) {
    set_topology(inner.topology());
    set_speed_factors(inner.speed_factors());
  }

  double stage_time(const graph::Graph& g,
                    std::span<const graph::NodeId> stage) const override;
  double demand(const graph::Graph& g, graph::NodeId v) const override;

  /// Number of distinct stages queried and the sum of their times (ms).
  std::size_t distinct_stages() const { return seen_.size(); }
  double measured_ms() const { return measured_ms_; }

 private:
  const cost::CostModel& inner_;
  mutable std::unordered_set<std::size_t> seen_;
  mutable double measured_ms_ = 0.0;
};

/// Simulated wall-clock cost (minutes) of producing a schedule the way the
/// paper's schedulers do: measure every distinct queried stage plus every
/// operator and transfer `runs` times, then add the algorithm runtime.
double scheduling_cost_minutes(const graph::Graph& g, const CountingCostModel& counter,
                               double algorithm_ms, int runs = 36);

/// Runs the named algorithms on one graph; returns name -> result.
std::map<std::string, sched::ScheduleResult> run_algorithms(
    const graph::Graph& g, const cost::CostModel& cost, const sched::SchedulerConfig& config,
    const std::vector<std::string>& names);

}  // namespace hios::core
