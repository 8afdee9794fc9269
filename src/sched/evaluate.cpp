#include "sched/evaluate.h"

#include "graph/compiled_graph.h"
#include "sched/core/schedule_state.h"

namespace hios::sched {

std::optional<Evaluation> evaluate_schedule(const graph::Graph& g, const Schedule& schedule,
                                            const cost::CostModel& cost) {
  const graph::CompiledGraph cg(g);
  ScheduleState state(cg, cost);
  state.load(schedule);
  state.require_complete();
  return state.evaluate();
}

}  // namespace hios::sched
