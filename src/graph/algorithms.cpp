#include "graph/algorithms.h"

#include <algorithm>
#include <numeric>

namespace hios::graph {

std::optional<std::vector<NodeId>> topological_sort(const Graph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<std::size_t> in_deg(n);
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<NodeId> frontier;
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    in_deg[v] = g.in_degree(v);
    if (in_deg[v] == 0) frontier.push_back(v);
  }
  // Process in ascending id order for determinism.
  std::size_t head = 0;
  while (head < frontier.size()) {
    const NodeId v = frontier[head++];
    order.push_back(v);
    for (EdgeId e : g.out_edges(v)) {
      const NodeId w = g.edge(e).dst;
      if (--in_deg[w] == 0) frontier.push_back(w);
    }
  }
  if (order.size() != n) return std::nullopt;
  return order;
}

bool is_dag(const Graph& g) { return topological_sort(g).has_value(); }

std::vector<double> priority_indicators(const Graph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<double> p(n, 0.0);
  auto order = topological_sort(g);
  HIOS_CHECK(order.has_value(), "priority_indicators: graph has a cycle");
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const NodeId v = *it;
    double best_tail = 0.0;
    for (EdgeId e : g.out_edges(v)) {
      const Edge& edge = g.edge(e);
      best_tail = std::max(best_tail, edge.weight + p[edge.dst]);
    }
    p[v] = g.node_weight(v) + best_tail;
  }
  return p;
}

std::vector<NodeId> priority_order(const Graph& g) {
  return priority_order(g, priority_indicators(g));
}

std::vector<NodeId> priority_order(const Graph& g, const std::vector<double>& priority) {
  HIOS_CHECK(priority.size() == g.num_nodes(), "priority vector size mismatch");
  auto topo = topological_sort(g);
  HIOS_CHECK(topo.has_value(), "priority_order: graph has a cycle");
  // Stable sort of a topological order: equal priorities keep their relative
  // topological position, so the result is always a valid topological order
  // (u -> v implies p(u) >= p(v), strictly unless both weights are zero).
  std::vector<NodeId> order = *topo;
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return priority[static_cast<std::size_t>(a)] > priority[static_cast<std::size_t>(b)];
  });
  return order;
}

double critical_path_length(const Graph& g, bool with_edge_weights) {
  const std::size_t n = g.num_nodes();
  if (n == 0) return 0.0;
  std::vector<double> dist(n, 0.0);
  auto order = topological_sort(g);
  HIOS_CHECK(order.has_value(), "critical_path_length: graph has a cycle");
  double best = 0.0;
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const NodeId v = *it;
    double tail = 0.0;
    for (EdgeId e : g.out_edges(v)) {
      const Edge& edge = g.edge(e);
      tail = std::max(tail, (with_edge_weights ? edge.weight : 0.0) + dist[edge.dst]);
    }
    dist[v] = g.node_weight(v) + tail;
    best = std::max(best, dist[v]);
  }
  return best;
}

}  // namespace hios::graph
