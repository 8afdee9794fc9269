// Whole-suffix longest-valid-path DP: the test oracle for
// graph::ValidPathFinder. One DP pass over every unscheduled position of a
// topological order, carrying a prefix best of (length, smallest end id),
// from scratch on each call.
#include <algorithm>

#include "oracles/oracles.h"

namespace hios::oracle {

namespace {
constexpr double kNegInf = -1.0;
}  // namespace

std::optional<graph::ValidPath> longest_valid_path(const graph::Graph& g,
                                                   const DynBitset& scheduled,
                                                   const std::vector<graph::NodeId>& topo) {
  using graph::EdgeId;
  using graph::kInvalidNode;
  using graph::NodeId;
  const std::size_t n = g.num_nodes();
  HIOS_CHECK(scheduled.size() == n, "scheduled mask size mismatch");
  HIOS_CHECK(topo.size() == n, "topo order size mismatch");
  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[static_cast<std::size_t>(topo[i])] = i;

  // By topological position. dirty: the vertex touches a scheduled vertex,
  // so it may only be the first or last vertex of a chain.
  std::vector<char> dirty(n, 0);
  std::vector<double> head_bonus(n, 0.0), tail_bonus(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = topo[i];
    if (scheduled.test(static_cast<std::size_t>(v))) continue;
    for (EdgeId e : g.in_edges(v)) {
      const graph::Edge& edge = g.edge(e);
      if (scheduled.test(static_cast<std::size_t>(edge.src))) {
        dirty[i] = 1;
        head_bonus[i] = std::max(head_bonus[i], edge.weight);
      }
    }
    for (EdgeId e : g.out_edges(v)) {
      const graph::Edge& edge = g.edge(e);
      if (scheduled.test(static_cast<std::size_t>(edge.dst))) {
        dirty[i] = 1;
        tail_bonus[i] = std::max(tail_bonus[i], edge.weight);
      }
    }
  }

  // DP over the topological order:
  //   start(v) = chain {v} with v as first vertex (head bonus applies),
  //   full(v)  = best chain ending at v (v may be dirty = last vertex),
  //   ext(v)   = best chain ending at v that may still be extended:
  //              equal to full(v) when v is clean, start(v) when dirty.
  // Scheduled vertices keep ext < 0, so they are never extended.
  std::vector<double> ext(n, kNegInf);
  std::vector<NodeId> parent(n, kInvalidNode);
  double best_len = kNegInf;
  NodeId best_end = kInvalidNode;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = topo[i];
    if (scheduled.test(static_cast<std::size_t>(v))) continue;
    const double weight = g.node_weight(v);
    const double start_v = weight + head_bonus[i];
    double full = start_v;
    NodeId best_parent = kInvalidNode;
    for (EdgeId e : g.in_edges(v)) {
      const graph::Edge& edge = g.edge(e);
      const std::size_t src_pos = pos[static_cast<std::size_t>(edge.src)];
      if (ext[src_pos] < 0.0) continue;
      const double cand = ext[src_pos] + edge.weight + weight;
      if (cand > full || (cand == full && best_parent != kInvalidNode && edge.src < best_parent)) {
        full = cand;
        best_parent = edge.src;
      }
    }
    parent[i] = best_parent;
    ext[i] = dirty[i] ? start_v : full;
    if (!(full < 0.0)) {
      const double len = full + tail_bonus[i];
      if (len > best_len || (len == best_len && v < best_end)) {
        best_len = len;
        best_end = v;
      }
    }
  }
  if (best_end == kInvalidNode) return std::nullopt;

  graph::ValidPath path;
  path.length = best_len;
  // Reconstruct: walk parents; a dirty predecessor was used via start() and
  // therefore begins the chain.
  std::size_t cur = pos[static_cast<std::size_t>(best_end)];
  path.nodes.push_back(best_end);
  while (parent[cur] != kInvalidNode) {
    const NodeId prev = parent[cur];
    path.nodes.push_back(prev);
    cur = pos[static_cast<std::size_t>(prev)];
    if (dirty[cur]) break;  // ext(prev) == start(prev): chain starts here
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

}  // namespace hios::oracle
