// simulate_pipeline with its own stage flattening and per-request Kahn pass:
// the test oracle for sim::simulate_pipeline over sched::ScheduleState.
#include <algorithm>

#include "oracles/oracles.h"
#include "util/error.h"

namespace hios::oracle {

std::optional<sim::PipelineStats> simulate_pipeline(const graph::Graph& g,
                                                    const sched::Schedule& schedule,
                                                    const cost::CostModel& cost,
                                                    int num_requests) {
  HIOS_CHECK(num_requests >= 1, "need >= 1 request");

  // Flatten stages once; replicate timing per request.
  struct FlatStage {
    int gpu;
    const sched::Stage* stage;
    double duration;
  };
  std::vector<FlatStage> flat;
  std::vector<int> stage_of(g.num_nodes(), -1);
  for (int i = 0; i < schedule.num_gpus; ++i) {
    for (const sched::Stage& stage : schedule.gpus[static_cast<std::size_t>(i)]) {
      const int id = static_cast<int>(flat.size());
      flat.push_back(FlatStage{
          i, &stage, cost.stage_time_on(g, std::span<const graph::NodeId>(stage.ops), i)});
      for (graph::NodeId v : stage.ops) {
        HIOS_CHECK(stage_of[static_cast<std::size_t>(v)] == -1, "node scheduled twice");
        stage_of[static_cast<std::size_t>(v)] = id;
      }
    }
  }
  for (std::size_t v = 0; v < g.num_nodes(); ++v)
    HIOS_CHECK(stage_of[v] >= 0, "node " << v << " missing from schedule");
  const std::size_t num_stages = flat.size();

  // Data dependencies between stages (deduplicated, worst transfer kept).
  struct Dep {
    int src;
    double transfer;
  };
  std::vector<std::vector<Dep>> deps_in(num_stages);
  for (graph::EdgeId eid = 0; eid < static_cast<graph::EdgeId>(g.num_edges()); ++eid) {
    const graph::Edge& e = g.edge(eid);
    const int a = stage_of[static_cast<std::size_t>(e.src)];
    const int b = stage_of[static_cast<std::size_t>(e.dst)];
    if (a == b) continue;
    const double transfer = cost.transfer_time(g, eid, flat[static_cast<std::size_t>(a)].gpu,
                                               flat[static_cast<std::size_t>(b)].gpu);
    bool merged = false;
    for (Dep& d : deps_in[static_cast<std::size_t>(b)]) {
      if (d.src == a) {
        d.transfer = std::max(d.transfer, transfer);
        merged = true;
        break;
      }
    }
    if (!merged) deps_in[static_cast<std::size_t>(b)].push_back(Dep{a, transfer});
  }

  // Per-GPU stage index lists (execution order within a request).
  std::vector<std::vector<int>> gpu_stages(static_cast<std::size_t>(schedule.num_gpus));
  for (std::size_t s = 0; s < num_stages; ++s)
    gpu_stages[static_cast<std::size_t>(flat[s].gpu)].push_back(static_cast<int>(s));

  // Request-major execution: each GPU runs request r's stages in order,
  // then request r+1's. finish[r][s] computed iteratively; a cycle shows
  // up as a stage whose dependencies never resolve, detected per request
  // with a Kahn count over the same-request stage DAG + GPU chains.
  std::vector<double> prev_finish(num_stages, 0.0);  // previous request
  sim::PipelineStats stats;
  stats.num_requests = num_requests;
  double prev_completion = 0.0;
  double sum_intervals = 0.0;
  int interval_count = 0;

  for (int r = 0; r < num_requests; ++r) {
    std::vector<double> finish(num_stages, -1.0);
    // In-degree over same-request deps + GPU chain.
    std::vector<int> in_deg(num_stages, 0);
    std::vector<std::vector<int>> succ(num_stages);
    for (std::size_t s = 0; s < num_stages; ++s) {
      for (const Dep& d : deps_in[s]) {
        succ[static_cast<std::size_t>(d.src)].push_back(static_cast<int>(s));
        ++in_deg[s];
      }
    }
    for (const auto& chain : gpu_stages) {
      for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
        succ[static_cast<std::size_t>(chain[k])].push_back(chain[k + 1]);
        ++in_deg[static_cast<std::size_t>(chain[k + 1])];
      }
    }
    std::vector<int> ready;
    for (std::size_t s = 0; s < num_stages; ++s)
      if (in_deg[s] == 0) ready.push_back(static_cast<int>(s));
    std::size_t processed = 0;
    std::vector<int> chain_pos(static_cast<std::size_t>(schedule.num_gpus), 0);
    for (std::size_t head = 0; head < ready.size(); ++head) {
      const int s = ready[head];
      ++processed;
      // GPU available after this request's previous stage on the GPU
      // (chain dep, handled via ready ordering) and after the *previous
      // request* fully vacated this stage slot (request-major FIFO:
      // the GPU must have finished ALL of request r-1's stages).
      double start = 0.0;
      const int gpu = flat[static_cast<std::size_t>(s)].gpu;
      if (r > 0) {
        const auto& chain = gpu_stages[static_cast<std::size_t>(gpu)];
        start = std::max(start, prev_finish[static_cast<std::size_t>(chain.back())]);
      }
      // Same-GPU chain: previous stage of this request.
      const auto& chain = gpu_stages[static_cast<std::size_t>(gpu)];
      for (std::size_t k = 0; k < chain.size(); ++k) {
        if (chain[k] == s && k > 0)
          start = std::max(start, finish[static_cast<std::size_t>(chain[k - 1])]);
      }
      for (const Dep& d : deps_in[static_cast<std::size_t>(s)])
        start = std::max(start, finish[static_cast<std::size_t>(d.src)] + d.transfer);
      finish[static_cast<std::size_t>(s)] = start + flat[static_cast<std::size_t>(s)].duration;
      for (int nxt : succ[static_cast<std::size_t>(s)]) {
        if (--in_deg[static_cast<std::size_t>(nxt)] == 0) ready.push_back(nxt);
      }
    }
    if (processed != num_stages) return std::nullopt;  // deadlock

    // All requests are available at t = 0 (saturated server), so a
    // request's latency is simply its completion time.
    const double completion = *std::max_element(finish.begin(), finish.end());
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
    prev_finish = std::move(finish);
  }
  stats.steady_interval_ms =
      interval_count > 0 ? sum_intervals / interval_count : stats.first_latency_ms;
  return stats;
}

}  // namespace hios::oracle
