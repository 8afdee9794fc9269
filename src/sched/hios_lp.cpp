#include "sched/hios_lp.h"

#include <algorithm>
#include <chrono>

#include "graph/compiled_graph.h"
#include "graph/longest_path.h"
#include "sched/core/list_state.h"
#include "sched/parallelize.h"

namespace hios::sched {

LongestPathMapping longest_path_mapping(const graph::CompiledGraph& cg, int num_gpus,
                                        const cost::CostModel& cost) {
  // Incremental path extraction and objective: each path only touches its
  // neighbourhood, so the path DP recomputes only the positions the path
  // changed, and one walk from the path's earliest priority
  // rank tries the path on every GPU and commits the one minimising the
  // latency of the list schedule over all mapped operators (Alg. 1 lines
  // 5-16; lowest GPU on ties).
  graph::ValidPathFinder finder(cg.graph(), cg.topo_order(), DynBitset(cg.num_nodes()));
  ListScheduleState state(cg, num_gpus, cost);
  LongestPathMapping out;
  while (auto path = finder.next()) {
    ++out.paths;
    out.latency_ms = state.place_path(path->nodes).latency;
  }
  out.schedule = state.schedule();
  out.positions_visited = finder.positions_visited();
  out.walks = state.walks();
  out.ranks_walked = state.ranks_walked();
  return out;
}

ScheduleResult HiosLpScheduler::schedule(const graph::Graph& g, const cost::CostModel& cost,
                                         const SchedulerConfig& config) const {
  HIOS_CHECK(config.num_gpus >= 1, "HIOS-LP needs >= 1 GPU");
  const auto t0 = std::chrono::steady_clock::now();

  // Compiled once for the whole run: CSR adjacency plus the priority
  // indicators / order on the original graph G (Alg. 1 line 1).
  const graph::CompiledGraph cg(g);
  LongestPathMapping placed = longest_path_mapping(cg, config.num_gpus, cost);

  ScheduleResult result;
  result.algorithm = name();
  if (apply_intra_) {
    ParallelizeResult intra = parallelize(cg, std::move(placed.schedule), cost,
                                          std::min(config.window, config.max_streams));
    result.schedule = std::move(intra.schedule);
    result.latency_ms = intra.latency_ms;
  } else {
    result.schedule = std::move(placed.schedule);
    result.latency_ms = placed.latency_ms;
  }
  result.scheduling_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace hios::sched
