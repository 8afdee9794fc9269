// Pairwise schedule validation over the full reachability closure: the
// oracle for sched::validate_schedule, which checks stage independence and
// deadlock freedom together on one load of the timing core.
#include <sstream>

#include "cost/table_model.h"
#include "graph/algorithms.h"
#include "oracles/oracles.h"

namespace hios::oracle {

std::vector<DynBitset> reachability(const graph::Graph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<DynBitset> reach(n, DynBitset(n));
  auto order = graph::topological_sort(g);
  HIOS_CHECK(order.has_value(), "reachability: graph has a cycle");
  // Traverse in reverse topological order: reach[v] = union of {w, reach[w]}.
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const graph::NodeId v = *it;
    for (graph::EdgeId e : g.out_edges(v)) {
      const graph::NodeId w = g.edge(e).dst;
      reach[static_cast<std::size_t>(v)].set(static_cast<std::size_t>(w));
      reach[static_cast<std::size_t>(v)] |= reach[static_cast<std::size_t>(w)];
    }
  }
  return reach;
}

std::vector<std::string> validate_schedule(const graph::Graph& g,
                                           const sched::Schedule& schedule) {
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
      const sched::Stage& stage = schedule.gpus[i][s];
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

  // 2. stage independence (full dependency-path check, not just direct edges).
  const auto reach = reachability(g);
  for (std::size_t i = 0; i < schedule.gpus.size(); ++i) {
    for (std::size_t s = 0; s < schedule.gpus[i].size(); ++s) {
      const auto& ops = schedule.gpus[i][s].ops;
      for (std::size_t a = 0; a < ops.size(); ++a) {
        for (std::size_t b = a + 1; b < ops.size(); ++b) {
          if (!independent(reach, ops[a], ops[b])) {
            std::ostringstream os;
            os << "stage " << s << " on GPU " << i << " groups dependent ops "
               << g.node_name(ops[a]) << " and " << g.node_name(ops[b]);
            complain(os.str());
          }
        }
      }
    }
  }

  // 3. deadlock-freedom: the from-scratch evaluator's Kahn pass must cover
  // every stage. Any cost model works for feasibility.
  const cost::TableCostModel probe;
  if (!oracle::evaluate_schedule(g, schedule, probe).has_value()) {
    complain("stage graph has a cycle (schedule deadlocks)");
  }
  return violations;
}

}  // namespace hios::oracle
