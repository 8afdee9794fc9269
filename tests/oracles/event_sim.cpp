// simulate_ops with its own stage flattening and Kahn pass: the test oracle
// for sim::simulate_ops over sched::ScheduleState's stage order.
#include <algorithm>

#include "oracles/oracles.h"

namespace hios::oracle {

namespace {

/// Stage bookkeeping: flattened stages and each node's stage.
struct FlatStages {
  struct Entry {
    int gpu;
    int index;
    const sched::Stage* stage;
  };
  std::vector<Entry> flat;
  std::vector<int> stage_of;  // node -> flat stage id

  static std::optional<FlatStages> build(const graph::Graph& g,
                                         const sched::Schedule& schedule) {
    FlatStages fs;
    fs.stage_of.assign(g.num_nodes(), -1);
    for (int i = 0; i < schedule.num_gpus; ++i) {
      const auto& stages = schedule.gpus[static_cast<std::size_t>(i)];
      for (std::size_t s = 0; s < stages.size(); ++s) {
        const int id = static_cast<int>(fs.flat.size());
        fs.flat.push_back(Entry{i, static_cast<int>(s), &stages[s]});
        for (graph::NodeId v : stages[s].ops) {
          HIOS_CHECK(static_cast<std::size_t>(v) < g.num_nodes(), "bad node in schedule");
          HIOS_CHECK(fs.stage_of[static_cast<std::size_t>(v)] == -1, "node scheduled twice");
          fs.stage_of[static_cast<std::size_t>(v)] = id;
        }
      }
    }
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      if (fs.stage_of[v] < 0) return std::nullopt;
    }
    return fs;
  }

  /// Kahn order over the stage DAG (chains + data deps); empty on cycle.
  std::vector<int> kahn_order(const graph::Graph& g) const {
    const std::size_t num_stages = flat.size();
    std::vector<std::vector<int>> succ(num_stages);
    std::vector<int> in_deg(num_stages, 0);
    auto add = [&](int a, int b) {
      auto& list = succ[static_cast<std::size_t>(a)];
      if (std::find(list.begin(), list.end(), b) == list.end()) {
        list.push_back(b);
        ++in_deg[static_cast<std::size_t>(b)];
      }
    };
    for (std::size_t s = 0; s + 1 < num_stages; ++s)
      if (flat[s].gpu == flat[s + 1].gpu) add(static_cast<int>(s), static_cast<int>(s + 1));
    for (const graph::Edge& e : g.edges()) {
      const int a = stage_of[static_cast<std::size_t>(e.src)];
      const int b = stage_of[static_cast<std::size_t>(e.dst)];
      if (a != b) add(a, b);
    }
    std::vector<int> order;
    for (std::size_t s = 0; s < num_stages; ++s)
      if (in_deg[s] == 0) order.push_back(static_cast<int>(s));
    for (std::size_t head = 0; head < order.size(); ++head) {
      for (int nxt : succ[static_cast<std::size_t>(order[head])])
        if (--in_deg[static_cast<std::size_t>(nxt)] == 0) order.push_back(nxt);
    }
    if (order.size() != num_stages) return {};
    return order;
  }
};

}  // namespace

std::optional<sim::Timeline> simulate_ops(const graph::Graph& g,
                                          const sched::Schedule& schedule,
                                          const cost::CostModel& cost) {
  auto fs_opt = FlatStages::build(g, schedule);
  HIOS_CHECK(fs_opt.has_value(), "simulate_ops: schedule does not cover the graph");
  const FlatStages& fs = *fs_opt;
  const std::vector<int> order = fs.kahn_order(g);
  if (order.empty() && !fs.flat.empty()) return std::nullopt;  // cycle

  const std::vector<int> gpu_of = schedule.gpu_assignment(g.num_nodes());
  const std::size_t n = g.num_nodes();
  std::vector<double> op_start(n, 0.0), op_finish(n, 0.0);
  std::vector<double> stage_finish(fs.flat.size(), 0.0);

  sim::Timeline tl;
  tl.num_gpus = schedule.num_gpus;

  for (int sid : order) {
    const auto& entry = fs.flat[static_cast<std::size_t>(sid)];
    // Stage opens when the previous stage on this GPU has fully finished.
    double open = 0.0;
    if (sid > 0 && fs.flat[static_cast<std::size_t>(sid - 1)].gpu == entry.gpu)
      open = stage_finish[static_cast<std::size_t>(sid - 1)];

    // Contention factor: schedule-model stage time over the longest solo op.
    const auto& ops = entry.stage->ops;
    const double t_stage =
        cost.stage_time_on(g, std::span<const graph::NodeId>(ops), entry.gpu);
    double max_solo = 0.0;
    for (graph::NodeId v : ops)
      max_solo = std::max(max_solo, cost.node_time(g, v, entry.gpu));
    const double slowdown = max_solo > 0.0 ? t_stage / max_solo : 1.0;

    double finish_all = open;
    for (graph::NodeId v : ops) {
      double ready = open;
      for (graph::EdgeId e : g.in_edges(v)) {
        const graph::Edge& edge = g.edge(e);
        ready = std::max(ready,
                         op_finish[static_cast<std::size_t>(edge.src)] +
                             cost.transfer_time(g, e, gpu_of[static_cast<std::size_t>(edge.src)],
                                                entry.gpu));
      }
      op_start[static_cast<std::size_t>(v)] = ready;
      op_finish[static_cast<std::size_t>(v)] =
          ready + cost.node_time(g, v, entry.gpu) * slowdown;
      finish_all = std::max(finish_all, op_finish[static_cast<std::size_t>(v)]);
      tl.events.push_back(sim::TimelineEvent{sim::TimelineEvent::Kind::kCompute, g.node_name(v),
                                        entry.gpu, -1, entry.index, ready,
                                        op_finish[static_cast<std::size_t>(v)]});
    }
    stage_finish[static_cast<std::size_t>(sid)] = finish_all;
    tl.latency_ms = std::max(tl.latency_ms, finish_all);
  }

  for (graph::EdgeId eid = 0; eid < static_cast<graph::EdgeId>(g.num_edges()); ++eid) {
    const graph::Edge& e = g.edge(eid);
    const int gu = gpu_of[static_cast<std::size_t>(e.src)];
    const int gv = gpu_of[static_cast<std::size_t>(e.dst)];
    if (gu == gv) continue;
    tl.events.push_back(sim::TimelineEvent{sim::TimelineEvent::Kind::kTransfer,
                                      g.node_name(e.src) + "->" + g.node_name(e.dst), gu, gv,
                                      -1, op_finish[static_cast<std::size_t>(e.src)],
                                      op_finish[static_cast<std::size_t>(e.src)] +
                                          cost.transfer_time(g, eid, gu, gv)});
  }
  return tl;
}

}  // namespace hios::oracle
