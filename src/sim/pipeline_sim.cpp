#include "sim/pipeline_sim.h"

#include <algorithm>

#include "graph/compiled_graph.h"
#include "sched/core/schedule_state.h"
#include "util/error.h"

namespace hios::sim {

std::optional<PipelineStats> simulate_pipeline(const graph::Graph& g,
                                               const sched::Schedule& schedule,
                                               const cost::CostModel& cost,
                                               int num_requests) {
  HIOS_CHECK(num_requests >= 1, "need >= 1 request");
  const graph::CompiledGraph cg(g);
  sched::ScheduleState state(cg, cost);
  state.load(schedule);
  state.require_complete();
  // One request's stage DAG deadlocks iff the single-shot schedule does.
  if (!state.evaluate_latency().has_value()) return std::nullopt;
  const std::span<const int> order = state.stage_order();
  const std::size_t num_stages = order.size();

  // Stage durations and edge transfers are the same for every request.
  std::vector<double> duration(num_stages);
  for (std::size_t s = 0; s < num_stages; ++s) {
    const int sid = static_cast<int>(s);
    duration[s] = cost.stage_time_on(g, state.stage_ops(sid), state.gpu_of_stage(sid));
  }
  std::vector<double> transfer(g.num_edges());
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.num_edges()); ++e) {
    const graph::Edge& edge = g.edge(e);
    transfer[static_cast<std::size_t>(e)] =
        cost.transfer_time(g, e, state.gpu_of_stage(state.stage_of(edge.src)),
                           state.gpu_of_stage(state.stage_of(edge.dst)));
  }

  // Request-major execution: each GPU runs request r's stages in order,
  // then request r+1's, so a stage also waits for its GPU to finish the
  // previous request's last stage there.
  std::vector<double> prev_finish(num_stages, 0.0), finish(num_stages, 0.0);
  PipelineStats stats;
  stats.num_requests = num_requests;
  double prev_completion = 0.0;
  double sum_intervals = 0.0;
  int interval_count = 0;

  for (int r = 0; r < num_requests; ++r) {
    double completion = 0.0;
    for (int sid : order) {
      const int gpu = state.gpu_of_stage(sid);
      const int pos = state.position_of(sid);
      double start = 0.0;
      if (r > 0) {
        const int last = state.stage_at(gpu, state.stage_count(gpu) - 1);
        start = std::max(start, prev_finish[static_cast<std::size_t>(last)]);
      }
      if (pos > 0)
        start = std::max(start, finish[static_cast<std::size_t>(state.stage_at(gpu, pos - 1))]);
      for (graph::NodeId v : state.stage_ops(sid)) {
        for (graph::EdgeId e : cg.in_edges(v)) {
          const int src = state.stage_of(g.edge(e).src);
          if (src != sid)
            start = std::max(start, finish[static_cast<std::size_t>(src)] +
                                        transfer[static_cast<std::size_t>(e)]);
        }
      }
      finish[static_cast<std::size_t>(sid)] = start + duration[static_cast<std::size_t>(sid)];
      completion = std::max(completion, finish[static_cast<std::size_t>(sid)]);
    }

    // All requests are available at t = 0 (saturated server), so a
    // request's latency is simply its completion time.
    if (r == 0) stats.first_latency_ms = completion;
    if (r == num_requests - 1) {
      stats.steady_latency_ms = completion;
      stats.makespan_ms = completion;
    }
    if (r > 0) {
      sum_intervals += completion - prev_completion;
      ++interval_count;
    }
    prev_completion = completion;
    std::swap(prev_finish, finish);
  }
  stats.steady_interval_ms =
      interval_count > 0 ? sum_intervals / interval_count : stats.first_latency_ms;
  return stats;
}

}  // namespace hios::sim
