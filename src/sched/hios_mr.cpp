#include "sched/hios_mr.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "graph/compiled_graph.h"
#include "sched/core/schedule_state.h"
#include "sched/parallelize.h"

namespace hios::sched {

ScheduleResult HiosMrScheduler::schedule(const graph::Graph& g, const cost::CostModel& cost,
                                         const SchedulerConfig& config) const {
  HIOS_CHECK(config.num_gpus >= 1, "HIOS-MR needs >= 1 GPU");
  const auto t0 = std::chrono::steady_clock::now();
  const int n = static_cast<int>(g.num_nodes());
  const int m = config.num_gpus;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  ScheduleResult result;
  result.algorithm = name();

  if (n == 0) {
    result.schedule = Schedule(m);
    return result;
  }

  // Compiled once per run: CSR adjacency + priority metadata.
  const graph::CompiledGraph cg(g);
  // Line 1: v_1..v_n in descending priority (a topological order).
  const std::vector<graph::NodeId>& order = cg.priority_order();

  // Lines 2-5: the n x M table of (t_{i,j}, g_{i,j}).
  std::vector<std::vector<double>> t(static_cast<std::size_t>(n),
                                     std::vector<double>(static_cast<std::size_t>(m), kInf));
  std::vector<std::vector<int>> back(static_cast<std::size_t>(n),
                                     std::vector<int>(static_cast<std::size_t>(m), -1));
  t[0][0] = cost.node_time(g, order[0], 0);
  back[0][0] = 0;

  // Scratch for the backtracked partial schedule (finish time + GPU per rank).
  std::vector<double> fin(static_cast<std::size_t>(n));
  std::vector<int> gpu_of(static_cast<std::size_t>(n));

  for (int i = 1; i < n; ++i) {
    const graph::NodeId vi = order[static_cast<std::size_t>(i)];
    const int j_max = std::min(m, i + 1);  // GPUs 0..min(M,i+1)-1
    const int k_max = std::min(m, i);
    for (int j = 0; j < j_max; ++j) {
      for (int k = 0; k < k_max; ++k) {
        if (t[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(k)] == kInf) continue;
        // Lines 9-12: reconstruct the recorded schedule of v_1..v_{i-1}
        // that ends with v_{i-1} on GPU k.
        int cur = k;
        for (int l = i - 1; l >= 0; --l) {
          fin[static_cast<std::size_t>(l)] = t[static_cast<std::size_t>(l)][static_cast<std::size_t>(cur)];
          gpu_of[static_cast<std::size_t>(l)] = cur;
          cur = back[static_cast<std::size_t>(l)][static_cast<std::size_t>(cur)];
        }
        // Lines 13-19: earliest start of v_i on GPU j under that schedule.
        double start = 0.0;
        for (int l = 0; l < i; ++l) {
          if (gpu_of[static_cast<std::size_t>(l)] == j)
            start = std::max(start, fin[static_cast<std::size_t>(l)]);
        }
        bool feasible = true;
        for (graph::EdgeId e : cg.in_edges(vi)) {
          const graph::Edge& edge = g.edge(e);
          const int l = cg.rank(edge.src);
          HIOS_ASSERT(l < i, "priority order not topological");
          if (fin[static_cast<std::size_t>(l)] == kInf) {
            feasible = false;
            break;
          }
          const double arrival =
              fin[static_cast<std::size_t>(l)] +
              cost.transfer_time(g, e, gpu_of[static_cast<std::size_t>(l)], j);
          start = std::max(start, arrival);
        }
        if (!feasible) continue;
        const double finish = start + cost.node_time(g, vi, j);
        if (finish < t[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
          t[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = finish;
          back[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = k;
        }
      }
    }
  }

  // Lines 22-26: pick argmin_j t_{n,j} and backtrack the full chain.
  int best_j = 0;
  for (int j = 1; j < m; ++j) {
    if (t[static_cast<std::size_t>(n - 1)][static_cast<std::size_t>(j)] <
        t[static_cast<std::size_t>(n - 1)][static_cast<std::size_t>(best_j)])
      best_j = j;
  }
  HIOS_ASSERT(t[static_cast<std::size_t>(n - 1)][static_cast<std::size_t>(best_j)] < kInf,
              "HIOS-MR table incomplete");
  std::vector<int> final_gpu(static_cast<std::size_t>(n));
  int cur = best_j;
  for (int i = n - 1; i >= 0; --i) {
    final_gpu[static_cast<std::size_t>(i)] = cur;
    cur = back[static_cast<std::size_t>(i)][static_cast<std::size_t>(cur)];
  }
  Schedule schedule(m);
  for (int i = 0; i < n; ++i) {
    schedule.push_op(final_gpu[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(i)]);
  }

  if (apply_intra_) {
    ParallelizeResult intra = parallelize(cg, std::move(schedule), cost,
                                          std::min(config.window, config.max_streams));
    result.schedule = std::move(intra.schedule);
    result.latency_ms = intra.latency_ms;
  } else {
    ScheduleState state(cg, cost);
    state.load(schedule);
    const auto latency = state.evaluate_latency();
    HIOS_ASSERT(latency.has_value(), "MR chain schedule cannot deadlock");
    result.schedule = std::move(schedule);
    result.latency_ms = *latency;
  }
  result.scheduling_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace hios::sched
