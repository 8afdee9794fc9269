// HIOS-LP — Alg. 1: longest-path-based inter-GPU operator scheduling,
// optionally followed by Alg. 2 (intra-GPU parallelization).
//
// Iteratively extracts the longest valid path from the unscheduled part of
// the graph, tries mapping the whole path onto each GPU, scores each try
// with the priority-order list scheduler over all mapped operators, and
// commits the best GPU, all GPUs in one ListScheduleState::place_path walk.
// See graph/longest_path.h for path semantics.
#pragma once

#include "graph/compiled_graph.h"
#include "sched/scheduler.h"

namespace hios::sched {

/// Outcome of Alg. 1 (the inter-GPU mapping) with its deterministic work
/// counters.
struct LongestPathMapping {
  Schedule schedule;  ///< list schedule of the final mapping (singleton stages)
  /// The last path's winning trial latency: the list-schedule latency of
  /// exactly the final mapping, bit-equal to evaluating `schedule` (0 when
  /// there is no path).
  double latency_ms = 0.0;
  std::size_t paths = 0;
  /// ValidPathFinder::positions_visited(); a from-scratch extraction per
  /// path would walk every unscheduled position.
  std::size_t positions_visited = 0;
  /// ListScheduleState::walks(): one per path, none for the commit.
  std::size_t walks = 0;
  /// ListScheduleState::ranks_walked() over all walks.
  std::size_t ranks_walked = 0;
};

/// Alg. 1 on a pre-compiled graph: extracts longest valid paths, tries each
/// on every GPU, and keeps the GPU whose list schedule over all mapped
/// operators has the lowest latency (lowest GPU on ties).
LongestPathMapping longest_path_mapping(const graph::CompiledGraph& cg, int num_gpus,
                                        const cost::CostModel& cost);

class HiosLpScheduler final : public Scheduler {
 public:
  /// `apply_intra=false` yields the "inter-GPU w/ LP" ablation.
  explicit HiosLpScheduler(bool apply_intra = true) : apply_intra_(apply_intra) {}

  std::string name() const override { return apply_intra_ ? "hios-lp" : "inter-lp"; }
  ScheduleResult schedule(const graph::Graph& g, const cost::CostModel& cost,
                          const SchedulerConfig& config) const override;

 private:
  bool apply_intra_;
};

}  // namespace hios::sched
