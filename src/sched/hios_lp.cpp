#include "sched/hios_lp.h"

#include <algorithm>
#include <chrono>

#include "cost/stage_cache.h"
#include "graph/compiled_graph.h"
#include "graph/longest_path.h"
#include "sched/core/list_state.h"
#include "sched/evaluate.h"
#include "sched/list_schedule.h"
#include "sched/parallelize.h"
#include "util/bitset.h"

namespace hios::sched {

ScheduleResult HiosLpScheduler::schedule(const graph::Graph& g, const cost::CostModel& cost,
                                         const SchedulerConfig& config) const {
  HIOS_CHECK(config.num_gpus >= 1, "HIOS-LP needs >= 1 GPU");
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = g.num_nodes();
  const int m = config.num_gpus;

  // Compiled once for the whole run: CSR adjacency plus the priority
  // indicators / order on the original graph G (Alg. 1 line 1).
  const graph::CompiledGraph cg(g);
  const std::vector<graph::NodeId>& order = cg.priority_order();
  const cost::StageTimeCache cached(cost);

  // Incremental objective: each path-on-GPU trial only touches the path's
  // nodes, so the list schedule is recomputed from the earliest changed
  // priority rank instead of from scratch (Alg. 1 lines 7-16).
  ListScheduleState trial(cg, m, cached);

  DynBitset scheduled(n);
  while (scheduled.count() < n) {
    auto path = graph::longest_valid_path(g, scheduled, cg.topo_order());
    HIOS_ASSERT(path.has_value(), "unscheduled vertices remain but no path found");
    for (graph::NodeId v : path->nodes) {
      HIOS_ASSERT(!scheduled.test(static_cast<std::size_t>(v)), "path revisits node " << v);
      scheduled.set(static_cast<std::size_t>(v));
    }
    // Try the path on every GPU; keep the one minimising the latency of the
    // list schedule over all mapped operators (strict `<`: lowest GPU wins
    // ties).
    int best_gpu = 0;
    double best_latency = 0.0;
    for (int gpu = 0; gpu < m; ++gpu) {
      for (graph::NodeId v : path->nodes) trial.set_gpu(v, gpu);
      const double latency = trial.latency();
      if (gpu == 0 || latency < best_latency) {
        best_latency = latency;
        best_gpu = gpu;
      }
    }
    for (graph::NodeId v : path->nodes) trial.set_gpu(v, best_gpu);
  }

  ListScheduleResult placed = list_schedule(g, trial.mapping(), order, m, cached);
  ScheduleResult result;
  result.algorithm = name();
  if (apply_intra_ && config.apply_intra) {
    ParallelizeResult intra = parallelize(cg, std::move(placed.schedule), cached,
                                          std::min(config.window, config.max_streams));
    result.schedule = std::move(intra.schedule);
    result.latency_ms = intra.latency_ms;
  } else {
    auto eval = evaluate_schedule(g, placed.schedule, cached);
    HIOS_ASSERT(eval.has_value(), "list schedule cannot deadlock");
    result.schedule = std::move(placed.schedule);
    result.latency_ms = eval->latency_ms;
  }
  result.scheduling_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace hios::sched
