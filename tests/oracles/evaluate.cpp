// From-scratch stage-DAG evaluator: the test oracle for sched::ScheduleState.
#include <algorithm>

#include "oracles/oracles.h"

namespace hios::oracle {

namespace {

std::optional<sched::Evaluation> evaluate_impl(const graph::Graph& g,
                                               const sched::Schedule& schedule,
                                               const cost::CostModel& cost, bool allow_partial) {
  const std::size_t n = g.num_nodes();

  // Flatten stages; record each node's flattened stage id.
  struct FlatStage {
    int gpu;
    int index;
    const sched::Stage* stage;
  };
  std::vector<FlatStage> flat;
  std::vector<int> stage_of(n, -1);
  for (int i = 0; i < schedule.num_gpus; ++i) {
    const auto& stages = schedule.gpus[static_cast<std::size_t>(i)];
    for (std::size_t s = 0; s < stages.size(); ++s) {
      HIOS_CHECK(!stages[s].ops.empty(), "empty stage " << s << " on GPU " << i);
      const int flat_id = static_cast<int>(flat.size());
      flat.push_back(FlatStage{i, static_cast<int>(s), &stages[s]});
      for (graph::NodeId v : stages[s].ops) {
        HIOS_CHECK(static_cast<std::size_t>(v) < n, "schedule references node " << v);
        HIOS_CHECK(stage_of[static_cast<std::size_t>(v)] == -1,
                   "node " << v << " appears in two stages");
        stage_of[static_cast<std::size_t>(v)] = flat_id;
      }
    }
  }
  if (!allow_partial) {
    for (std::size_t v = 0; v < n; ++v) {
      HIOS_CHECK(stage_of[v] >= 0, "node " << v << " ('" << g.node_name(static_cast<graph::NodeId>(v))
                                           << "') missing from schedule");
    }
  }

  const std::size_t num_stages = flat.size();
  // Stage-DAG edges: per-GPU chains + cross-stage data dependencies.
  // For each dependency we retain the worst-case transfer time into the
  // consuming stage (max over edges between the same stage pair).
  struct Dep {
    int dst;
    double transfer;
  };
  std::vector<std::vector<Dep>> deps(num_stages);
  std::vector<int> in_deg(num_stages, 0);

  auto add_dep = [&](int src, int dst, double transfer) {
    for (Dep& d : deps[static_cast<std::size_t>(src)]) {
      if (d.dst == dst) {
        d.transfer = std::max(d.transfer, transfer);
        return;
      }
    }
    deps[static_cast<std::size_t>(src)].push_back(Dep{dst, transfer});
    ++in_deg[static_cast<std::size_t>(dst)];
  };

  for (std::size_t sid = 0; sid + 1 < num_stages; ++sid) {
    if (flat[sid].gpu == flat[sid + 1].gpu) {
      add_dep(static_cast<int>(sid), static_cast<int>(sid + 1), 0.0);
    }
  }
  for (graph::EdgeId eid = 0; eid < static_cast<graph::EdgeId>(g.num_edges()); ++eid) {
    const graph::Edge& e = g.edge(eid);
    const int su = stage_of[static_cast<std::size_t>(e.src)];
    const int sv = stage_of[static_cast<std::size_t>(e.dst)];
    if (su < 0 || sv < 0) {
      if (!allow_partial) {
        // unreachable: completeness checked above
        throw Error("evaluate_schedule: unscheduled endpoint");
      }
      continue;
    }
    if (su == sv) continue;  // grouped ops must be independent; validator checks
    add_dep(su, sv,
            cost.transfer_time(g, eid, flat[static_cast<std::size_t>(su)].gpu,
                               flat[static_cast<std::size_t>(sv)].gpu));
  }

  // Kahn traversal computes start/finish; leftovers indicate a cycle.
  std::vector<double> ready(num_stages, 0.0);   // earliest start from deps
  std::vector<double> start(num_stages, 0.0), finish(num_stages, 0.0);
  std::vector<int> frontier;
  for (std::size_t s = 0; s < num_stages; ++s)
    if (in_deg[s] == 0) frontier.push_back(static_cast<int>(s));

  std::size_t processed = 0;
  double latency = 0.0;
  std::size_t head = 0;
  while (head < frontier.size()) {
    const int s = frontier[head++];
    ++processed;
    start[static_cast<std::size_t>(s)] = ready[static_cast<std::size_t>(s)];
    const double t_stage = cost.stage_time_on(
        g, std::span<const graph::NodeId>(flat[static_cast<std::size_t>(s)].stage->ops),
        flat[static_cast<std::size_t>(s)].gpu);
    finish[static_cast<std::size_t>(s)] = start[static_cast<std::size_t>(s)] + t_stage;
    latency = std::max(latency, finish[static_cast<std::size_t>(s)]);
    for (const Dep& d : deps[static_cast<std::size_t>(s)]) {
      ready[static_cast<std::size_t>(d.dst)] =
          std::max(ready[static_cast<std::size_t>(d.dst)],
                   finish[static_cast<std::size_t>(s)] + d.transfer);
      if (--in_deg[static_cast<std::size_t>(d.dst)] == 0) frontier.push_back(d.dst);
    }
  }
  if (processed != num_stages) return std::nullopt;  // deadlock

  sched::Evaluation eval;
  eval.latency_ms = latency;
  eval.stage_of = std::move(stage_of);
  eval.stages.reserve(num_stages);
  for (std::size_t s = 0; s < num_stages; ++s) {
    eval.stages.push_back(sched::StageTiming{flat[s].gpu, flat[s].index, start[s], finish[s]});
  }
  return eval;
}

}  // namespace

std::optional<sched::Evaluation> evaluate_schedule(const graph::Graph& g,
                                                   const sched::Schedule& schedule,
                                                   const cost::CostModel& cost) {
  return evaluate_impl(g, schedule, cost, /*allow_partial=*/false);
}

std::optional<sched::Evaluation> evaluate_partial_schedule(const graph::Graph& g,
                                                           const sched::Schedule& schedule,
                                                           const cost::CostModel& cost) {
  return evaluate_impl(g, schedule, cost, /*allow_partial=*/true);
}

}  // namespace hios::oracle
