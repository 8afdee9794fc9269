// One-pass list scheduler: the test oracle for sched::ListScheduleState.
#include <algorithm>

#include "oracles/oracles.h"

namespace hios::oracle {

ListScheduleResult list_schedule(const graph::Graph& g, const std::vector<int>& mapping,
                                 const std::vector<graph::NodeId>& order, int num_gpus,
                                 const cost::CostModel& cost) {
  const std::size_t n = g.num_nodes();
  HIOS_CHECK(mapping.size() == n, "mapping size mismatch");
  HIOS_CHECK(order.size() == n, "order must cover all nodes");
  HIOS_CHECK(num_gpus > 0, "need at least one GPU");

  ListScheduleResult result;
  result.schedule = sched::Schedule(num_gpus);
  result.start.assign(n, -1.0);
  result.finish.assign(n, -1.0);
  std::vector<double> tail(static_cast<std::size_t>(num_gpus), 0.0);

  for (graph::NodeId v : order) {
    const int gpu = mapping[static_cast<std::size_t>(v)];
    if (gpu < 0) continue;  // not yet mapped (partial schedule)
    HIOS_CHECK(gpu < num_gpus, "mapping[" << v << "] = " << gpu << " out of range");
    double start = tail[static_cast<std::size_t>(gpu)];
    for (graph::EdgeId e : g.in_edges(v)) {
      const graph::Edge& edge = g.edge(e);
      const int pred_gpu = mapping[static_cast<std::size_t>(edge.src)];
      if (pred_gpu < 0) continue;
      HIOS_ASSERT(result.finish[static_cast<std::size_t>(edge.src)] >= 0.0,
                  "order not topological: pred " << edge.src << " of " << v << " unplaced");
      const double arrival = result.finish[static_cast<std::size_t>(edge.src)] +
                             cost.transfer_time(g, e, pred_gpu, gpu);
      start = std::max(start, arrival);
    }
    const double finish = start + cost.node_time(g, v, gpu);
    result.start[static_cast<std::size_t>(v)] = start;
    result.finish[static_cast<std::size_t>(v)] = finish;
    tail[static_cast<std::size_t>(gpu)] = finish;
    result.schedule.push_op(gpu, v);
    result.latency_ms = std::max(result.latency_ms, finish);
  }
  return result;
}

}  // namespace hios::oracle
