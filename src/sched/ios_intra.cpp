#include "sched/ios_intra.h"

#include <chrono>
#include <memory>

#include "cost/remap_model.h"
#include "graph/compiled_graph.h"
#include "sched/core/schedule_state.h"
#include "sched/hios_lp.h"
#include "sched/ios.h"

namespace hios::sched {

ScheduleResult ios_intra_pass(const graph::Graph& g, const Schedule& schedule,
                              const cost::CostModel& cost, const SchedulerConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  // One compiled graph and state across the base evaluation and every
  // per-GPU candidate re-evaluation below.
  const graph::CompiledGraph cg(g);
  ScheduleState state(cg, cost);
  state.load(schedule);
  state.require_complete();
  const auto base_latency = state.evaluate_latency();
  HIOS_CHECK(base_latency.has_value(), "ios_intra_pass: input schedule deadlocks");

  Schedule best = schedule;
  double best_latency = *base_latency;
  const std::vector<int> gpu_of = schedule.gpu_assignment(g.num_nodes());

  IosScheduler ios;
  for (int gpu = 0; gpu < schedule.num_gpus; ++gpu) {
    // Collect this GPU's ops (stage order) and build the induced subgraph.
    std::vector<graph::NodeId> to_global;
    for (const Stage& stage : best.gpus[static_cast<std::size_t>(gpu)])
      for (graph::NodeId v : stage.ops) to_global.push_back(v);
    if (to_global.size() < 2) continue;

    std::vector<graph::NodeId> to_local(g.num_nodes(), graph::kInvalidNode);
    graph::Graph local("gpu" + std::to_string(gpu));
    for (std::size_t i = 0; i < to_global.size(); ++i) {
      const graph::NodeId v = to_global[i];
      to_local[static_cast<std::size_t>(v)] = local.add_node(g.node_name(v), g.node_weight(v));
    }
    for (const graph::Edge& e : g.edges()) {
      const graph::NodeId lu = to_local[static_cast<std::size_t>(e.src)];
      const graph::NodeId lv = to_local[static_cast<std::size_t>(e.dst)];
      if (lu != graph::kInvalidNode && lv != graph::kInvalidNode) local.add_edge(lu, lv, 0.0);
    }

    // IOS sees only the local dependencies — exactly the paper's critique.
    // The caller owns `cost` and outlives this call: alias it, own nothing.
    const cost::RemappedCostModel local_cost(
        std::shared_ptr<const cost::CostModel>(std::shared_ptr<const cost::CostModel>(), &cost),
        g, to_global);
    const ScheduleResult local_result = ios.schedule(local, local_cost, config);

    Schedule candidate = best;
    auto& stages = candidate.gpus[static_cast<std::size_t>(gpu)];
    stages.clear();
    for (const Stage& stage : local_result.schedule.gpus[0]) {
      Stage remapped;
      for (graph::NodeId lv : stage.ops)
        remapped.ops.push_back(to_global[static_cast<std::size_t>(lv)]);
      stages.push_back(std::move(remapped));
    }
    // The local DP may have reordered ops in a way that deadlocks against
    // cross-GPU dependencies, or may simply be worse globally: keep only
    // strict improvements.
    state.load(candidate);
    if (const auto latency = state.evaluate_latency(); latency && *latency < best_latency) {
      best = std::move(candidate);
      best_latency = *latency;
    }
  }

  ScheduleResult result;
  result.schedule = std::move(best);
  result.latency_ms = best_latency;
  result.algorithm = "ios-intra";
  result.scheduling_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

ScheduleResult HiosLpIosIntraScheduler::schedule(const graph::Graph& g,
                                                 const cost::CostModel& cost,
                                                 const SchedulerConfig& config) const {
  const auto t0 = std::chrono::steady_clock::now();
  const ScheduleResult inter = HiosLpScheduler(false).schedule(g, cost, config);
  ScheduleResult result = ios_intra_pass(g, inter.schedule, cost, config);
  result.algorithm = name();
  result.scheduling_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace hios::sched
