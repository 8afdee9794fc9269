#include "sched/validate.h"

#include <sstream>

#include "cost/table_model.h"
#include "graph/compiled_graph.h"
#include "sched/core/schedule_state.h"

namespace hios::sched {

namespace {

/// Every check of validate_schedule; on a valid schedule `order` (when
/// given) receives the timing core's topological stage order.
std::vector<std::string> validate(const graph::Graph& g, const Schedule& schedule,
                                  std::vector<StageRef>* order) {
  std::vector<std::string> violations;
  const std::size_t n = g.num_nodes();
  auto complain = [&](const std::string& what) { violations.push_back(what); };

  if (schedule.num_gpus <= 0) complain("num_gpus must be positive");
  if (schedule.gpus.size() != static_cast<std::size_t>(schedule.num_gpus))
    complain("gpus vector size != num_gpus");

  // 1. exactly-once coverage + 4. bounds.
  std::vector<int> seen(n, 0);
  for (std::size_t i = 0; i < schedule.gpus.size(); ++i) {
    for (std::size_t s = 0; s < schedule.gpus[i].size(); ++s) {
      const Stage& stage = schedule.gpus[i][s];
      if (stage.ops.empty()) {
        std::ostringstream os;
        os << "empty stage " << s << " on GPU " << i;
        complain(os.str());
      }
      for (graph::NodeId v : stage.ops) {
        if (v < 0 || static_cast<std::size_t>(v) >= n) {
          std::ostringstream os;
          os << "stage " << s << " on GPU " << i << " references unknown node " << v;
          complain(os.str());
          continue;
        }
        if (++seen[static_cast<std::size_t>(v)] > 1) {
          std::ostringstream os;
          os << "node " << v << " ('" << g.node_name(v) << "') scheduled more than once";
          complain(os.str());
        }
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (seen[v] == 0) {
      std::ostringstream os;
      os << "node " << v << " ('" << g.node_name(static_cast<graph::NodeId>(v))
         << "') missing from schedule";
      complain(os.str());
    }
  }
  if (!violations.empty()) return violations;  // later checks need coverage

  // 2 + 3 on one load of the timing core (see validate.h). Any cost model
  // orders the stages; the table model stands in for the real one.
  const graph::CompiledGraph cg(g);
  const cost::TableCostModel probe;
  ScheduleState state(cg, probe);
  state.load(schedule);
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.num_edges()); ++e) {
    const graph::Edge& edge = g.edge(e);
    const int sid = state.stage_of(edge.src);
    if (sid != state.stage_of(edge.dst)) continue;
    std::ostringstream os;
    os << "stage " << state.position_of(sid) << " on GPU " << state.gpu_of_stage(sid)
       << " groups dependent ops " << g.node_name(edge.src) << " and "
       << g.node_name(edge.dst);
    complain(os.str());
  }
  if (!state.evaluate_latency().has_value()) {
    complain("stage graph has a cycle (schedule deadlocks)");
  }
  if (violations.empty() && order != nullptr) {
    order->reserve(state.stage_order().size());
    for (const int sid : state.stage_order())
      order->push_back(StageRef{state.gpu_of_stage(sid), state.position_of(sid)});
  }
  return violations;
}

}  // namespace

std::vector<std::string> validate_schedule(const graph::Graph& g, const Schedule& schedule) {
  return validate(g, schedule, nullptr);
}

std::vector<StageRef> check_schedule(const graph::Graph& g, const Schedule& schedule) {
  std::vector<StageRef> order;
  const auto violations = validate(g, schedule, &order);
  if (violations.empty()) return order;
  std::ostringstream os;
  os << "invalid schedule for graph '" << g.name() << "':";
  for (const auto& v : violations) os << "\n  - " << v;
  throw Error(os.str());
}

}  // namespace hios::sched
