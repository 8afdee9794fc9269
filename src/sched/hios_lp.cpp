#include "sched/hios_lp.h"

#include <algorithm>
#include <chrono>

#include "cost/stage_cache.h"
#include "graph/compiled_graph.h"
#include "graph/longest_path.h"
#include "sched/core/list_state.h"
#include "sched/parallelize.h"

namespace hios::sched {

LongestPathMapping longest_path_mapping(const graph::CompiledGraph& cg, int num_gpus,
                                        const cost::CostModel& cost) {
  const std::size_t n = cg.num_nodes();
  // Incremental path extraction and objective: each path only touches its
  // neighbourhood, so the path DP reruns from the earliest touched
  // topological position and each path-on-GPU trial re-times the mapped
  // operators from the path's earliest priority rank (Alg. 1 lines 5-16).
  graph::ValidPathFinder finder(cg.graph(), cg.topo_order(), DynBitset(n));
  ListScheduleState trial(cg, num_gpus, cost);
  LongestPathMapping out;
  std::size_t committed_rank = n;  // first rank of the last committed path
  while (auto path = finder.next()) {
    ++out.paths;
    std::size_t first_rank = n;
    for (graph::NodeId v : path->nodes)
      first_rank = std::min(first_rank, static_cast<std::size_t>(cg.rank(v)));
    // A walk over every suffix rank starts the first trial at the last
    // commit's first rank when that is earlier.
    out.suffix_ranks += (n - std::min(first_rank, committed_rank)) +
                        static_cast<std::size_t>(num_gpus - 1) * (n - first_rank);
    committed_rank = first_rank;
    // Try the path on every GPU; keep the one minimising the latency of the
    // list schedule over all mapped operators (strict `<`: lowest GPU wins
    // ties).
    int best_gpu = 0;
    double best_latency = 0.0;
    for (int gpu = 0; gpu < num_gpus; ++gpu) {
      for (graph::NodeId v : path->nodes) trial.set_gpu(v, gpu);
      const double latency = trial.latency();
      if (gpu == 0 || latency < best_latency) {
        best_latency = latency;
        best_gpu = gpu;
      }
    }
    for (graph::NodeId v : path->nodes) trial.set_gpu(v, best_gpu);
    out.latency_ms = best_latency;
  }
  out.schedule = trial.schedule();
  out.positions_visited = finder.positions_visited();
  out.ranks_walked = trial.ranks_walked();
  return out;
}

ScheduleResult HiosLpScheduler::schedule(const graph::Graph& g, const cost::CostModel& cost,
                                         const SchedulerConfig& config) const {
  HIOS_CHECK(config.num_gpus >= 1, "HIOS-LP needs >= 1 GPU");
  const auto t0 = std::chrono::steady_clock::now();

  // Compiled once for the whole run: CSR adjacency plus the priority
  // indicators / order on the original graph G (Alg. 1 line 1).
  const graph::CompiledGraph cg(g);
  const cost::StageTimeCache cached(cost);
  LongestPathMapping placed = longest_path_mapping(cg, config.num_gpus, cached);

  ScheduleResult result;
  result.algorithm = name();
  if (apply_intra_ && config.apply_intra) {
    ParallelizeResult intra = parallelize(cg, std::move(placed.schedule), cached,
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
