#include "sched/sequential.h"

#include <chrono>

#include "graph/compiled_graph.h"
#include "sched/core/schedule_state.h"

namespace hios::sched {

ScheduleResult sequential_core(const graph::Graph& g, const cost::CostModel& cost) {
  const graph::CompiledGraph cg(g);
  Schedule schedule(1);
  for (graph::NodeId v : cg.priority_order()) schedule.push_op(0, v);
  ScheduleState state(cg, cost);
  state.load(schedule);
  const auto latency = state.evaluate_latency();
  HIOS_ASSERT(latency.has_value(), "sequential schedule cannot deadlock");
  ScheduleResult result;
  result.schedule = std::move(schedule);
  result.latency_ms = *latency;
  result.algorithm = "sequential";
  return result;
}

ScheduleResult SequentialScheduler::schedule(const graph::Graph& g,
                                             const cost::CostModel& cost,
                                             const SchedulerConfig& config) const {
  (void)config;
  const auto t0 = std::chrono::steady_clock::now();
  ScheduleResult result = sequential_core(g, cost);
  result.scheduling_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace hios::sched
