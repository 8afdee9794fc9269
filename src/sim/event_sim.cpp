#include "sim/event_sim.h"

#include <algorithm>

#include "graph/compiled_graph.h"
#include "sched/core/schedule_state.h"
#include "sched/evaluate.h"

namespace hios::sim {

std::optional<Timeline> simulate_stages(const graph::Graph& g, const sched::Schedule& schedule,
                                        const cost::CostModel& cost) {
  auto eval = sched::evaluate_schedule(g, schedule, cost);
  if (!eval.has_value()) return std::nullopt;

  Timeline tl;
  tl.num_gpus = schedule.num_gpus;
  tl.latency_ms = eval->latency_ms;
  // Compute events: one per op (stage-wide start/finish).
  for (std::size_t s = 0; s < eval->stages.size(); ++s) {
    const sched::StageTiming& st = eval->stages[s];
    const sched::Stage& stage =
        schedule.gpus[static_cast<std::size_t>(st.gpu)][static_cast<std::size_t>(st.index)];
    for (graph::NodeId v : stage.ops) {
      tl.events.push_back(TimelineEvent{TimelineEvent::Kind::kCompute, g.node_name(v), st.gpu,
                                        -1, st.index, st.start, st.finish});
    }
  }
  // Transfer events for cross-GPU edges.
  const std::vector<int> gpu_of = schedule.gpu_assignment(g.num_nodes());
  for (graph::EdgeId eid = 0; eid < static_cast<graph::EdgeId>(g.num_edges()); ++eid) {
    const graph::Edge& e = g.edge(eid);
    const int gu = gpu_of[static_cast<std::size_t>(e.src)];
    const int gv = gpu_of[static_cast<std::size_t>(e.dst)];
    if (gu == gv) continue;
    const sched::StageTiming& src_stage =
        eval->stages[static_cast<std::size_t>(eval->stage_of[static_cast<std::size_t>(e.src)])];
    tl.events.push_back(TimelineEvent{
        TimelineEvent::Kind::kTransfer,
        g.node_name(e.src) + "->" + g.node_name(e.dst), gu, gv, -1, src_stage.finish,
        src_stage.finish + cost.transfer_time(g, eid, gu, gv)});
  }
  return tl;
}

std::optional<Timeline> simulate_ops(const graph::Graph& g, const sched::Schedule& schedule,
                                     const cost::CostModel& cost) {
  const graph::CompiledGraph cg(g);
  sched::ScheduleState state(cg, cost);
  state.load(schedule);
  state.require_complete();
  if (!state.evaluate_latency().has_value()) return std::nullopt;  // deadlock

  const std::vector<int> gpu_of = schedule.gpu_assignment(g.num_nodes());
  std::vector<double> op_finish(g.num_nodes(), 0.0);
  std::vector<double> stage_finish(state.stage_order().size(), 0.0);

  Timeline tl;
  tl.num_gpus = schedule.num_gpus;

  for (int sid : state.stage_order()) {
    const int gpu = state.gpu_of_stage(sid);
    const int pos = state.position_of(sid);
    // Stage opens when the previous stage on this GPU has fully finished.
    const double open =
        pos > 0 ? stage_finish[static_cast<std::size_t>(state.stage_at(gpu, pos - 1))] : 0.0;

    // Contention factor: schedule-model stage time over the longest solo op.
    const std::span<const graph::NodeId> ops = state.stage_ops(sid);
    const double t_stage = cost.stage_time_on(g, ops, gpu);
    double max_solo = 0.0;
    for (graph::NodeId v : ops) max_solo = std::max(max_solo, cost.node_time(g, v, gpu));
    const double slowdown = max_solo > 0.0 ? t_stage / max_solo : 1.0;

    double finish_all = open;
    for (graph::NodeId v : ops) {
      double ready = open;
      for (graph::EdgeId e : cg.in_edges(v)) {
        const graph::NodeId u = g.edge(e).src;
        ready = std::max(ready, op_finish[static_cast<std::size_t>(u)] +
                                    cost.transfer_time(g, e, gpu_of[static_cast<std::size_t>(u)],
                                                       gpu));
      }
      const double finish = ready + cost.node_time(g, v, gpu) * slowdown;
      op_finish[static_cast<std::size_t>(v)] = finish;
      finish_all = std::max(finish_all, finish);
      tl.events.push_back(TimelineEvent{TimelineEvent::Kind::kCompute, g.node_name(v), gpu, -1,
                                        pos, ready, finish});
    }
    stage_finish[static_cast<std::size_t>(sid)] = finish_all;
    tl.latency_ms = std::max(tl.latency_ms, finish_all);
  }

  for (graph::EdgeId eid = 0; eid < static_cast<graph::EdgeId>(g.num_edges()); ++eid) {
    const graph::Edge& e = g.edge(eid);
    const int gu = gpu_of[static_cast<std::size_t>(e.src)];
    const int gv = gpu_of[static_cast<std::size_t>(e.dst)];
    if (gu == gv) continue;
    tl.events.push_back(TimelineEvent{TimelineEvent::Kind::kTransfer,
                                      g.node_name(e.src) + "->" + g.node_name(e.dst), gu, gv,
                                      -1, op_finish[static_cast<std::size_t>(e.src)],
                                      op_finish[static_cast<std::size_t>(e.src)] +
                                          cost.transfer_time(g, eid, gu, gv)});
  }
  return tl;
}

}  // namespace hios::sim
