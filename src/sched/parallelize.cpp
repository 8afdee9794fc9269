#include "sched/parallelize.h"

#include <algorithm>

#include "sched/core/schedule_state.h"

namespace hios::sched {

ParallelizeResult parallelize(const graph::CompiledGraph& cg, Schedule schedule,
                              const cost::CostModel& cost, int window) {
  const graph::Graph& g = cg.graph();
  ParallelizeResult result;

  ScheduleState state(cg, cost);
  state.load(schedule);
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes()); ++v) {
    HIOS_CHECK(state.stage_of(v) >= 0, "node " << v << " ('" << g.node_name(v)
                                               << "') missing from schedule");
  }
  auto base = state.evaluate_latency();
  HIOS_CHECK(base.has_value(), "parallelize: input schedule deadlocks");
  double latency = *base;

  if (window >= 2 && g.num_nodes() >= 2) {
    const std::vector<graph::NodeId>& order = cg.priority_order();
    for (std::size_t oi = 0; oi + 1 < order.size(); ++oi) {
      const graph::NodeId v = order[oi];
      const int sid = state.stage_of(v);
      HIOS_ASSERT(sid >= 0, "node " << v << " not found in schedule");
      if (state.stage_ops(sid).size() > 1) continue;  // already grouped
      const int gpu = state.gpu_of_stage(sid);
      const int pos = state.position_of(sid);

      double best_latency = latency;
      int best_extent = 0;  // how many succeeding stages to merge in
      // Window sizes 2..w ops; extend one succeeding stage at a time.
      std::size_t total_ops = state.stage_ops(sid).size();
      for (int extent = 1; pos + extent < state.stage_count(gpu); ++extent) {
        total_ops += state.stage_ops(state.stage_at(gpu, pos + extent)).size();
        if (total_ops > static_cast<std::size_t>(window)) break;
        // All stages in the window must be pairwise independent; the pairs
        // without the new stage passed at the smaller extents.
        const int added = state.stage_at(gpu, pos + extent);
        bool ok = true;
        for (int a = pos; a < pos + extent && ok; ++a)
          ok = state.stages_independent(state.stage_at(gpu, a), added);
        if (!ok) break;  // dependency blocks this and any larger window
        ++result.candidates_tried;

        state.apply_merge(gpu, pos, extent);
        const auto cand = state.improves_on(best_latency);  // nullopt: worse or deadlock
        state.undo_merge();
        if (cand.has_value()) {
          best_latency = *cand;
          best_extent = extent;
        }
      }

      if (best_extent > 0) {
        state.apply_merge(gpu, pos, best_extent);
        state.commit_merge();
        latency = best_latency;
        ++result.merges_accepted;
      }
    }
  }

  result.schedule = state.extract();
  result.latency_ms = latency;
  result.stages_retimed = state.stages_retimed();
  result.stages_searched = state.stages_searched();
  return result;
}

ParallelizeResult parallelize(const graph::Graph& g, Schedule schedule,
                              const cost::CostModel& cost, int window) {
  return parallelize(graph::CompiledGraph(g), std::move(schedule), cost, window);
}

}  // namespace hios::sched
