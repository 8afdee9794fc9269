#include "graph/longest_path.h"

#include <algorithm>

#include "graph/algorithms.h"

namespace hios::graph {

namespace {
constexpr double kNegInf = -1.0;
}  // namespace

ValidPathFinder::ValidPathFinder(const Graph& g, const std::vector<NodeId>& topo_order,
                                 const DynBitset& scheduled)
    : g_(g), topo_(topo_order), n_(g.num_nodes()), pos_(n_), scheduled_(scheduled),
      open_(n_), dirty_(n_, 0), head_bonus_(n_, 0.0), tail_bonus_(n_, 0.0),
      weight_(n_), ext_(n_, kNegInf), parent_(n_, kInvalidNode), best_len_(n_, kNegInf),
      best_end_(n_, kInvalidNode) {
  HIOS_CHECK(scheduled.size() == n_, "scheduled mask size mismatch");
  HIOS_CHECK(topo_order.size() == n_, "topo order size mismatch");
  for (std::size_t i = 0; i < n_; ++i) pos_[static_cast<std::size_t>(topo_[i])] = i;

  in_head_.reserve(n_ + 1);
  in_.reserve(g.num_edges());
  for (std::size_t i = 0; i < n_; ++i) {
    const NodeId v = topo_[i];
    weight_[i] = g.node_weight(v);
    in_head_.push_back(in_.size());
    for (EdgeId e : g.in_edges(v)) {
      const Edge& edge = g.edge(e);
      in_.push_back({pos_[static_cast<std::size_t>(edge.src)], edge.src, edge.weight});
    }
    if (scheduled_.test(static_cast<std::size_t>(v))) continue;
    open_.set(i);
    ++remaining_;
    for (EdgeId e : g.in_edges(v)) {
      const Edge& edge = g.edge(e);
      if (scheduled_.test(static_cast<std::size_t>(edge.src))) {
        dirty_[i] = 1;
        head_bonus_[i] = std::max(head_bonus_[i], edge.weight);
      }
    }
    for (EdgeId e : g.out_edges(v)) {
      const Edge& edge = g.edge(e);
      if (scheduled_.test(static_cast<std::size_t>(edge.dst))) {
        dirty_[i] = 1;
        tail_bonus_[i] = std::max(tail_bonus_[i], edge.weight);
      }
    }
  }
  in_head_.push_back(in_.size());
}

std::optional<ValidPath> ValidPathFinder::next() {
  if (remaining_ == 0) return std::nullopt;
  run_dp();

  const std::size_t last = open_.find_prev(n_);
  const NodeId best_end = best_end_[last];
  HIOS_ASSERT(best_end != kInvalidNode, "no unscheduled vertex found");

  ValidPath path;
  path.length = best_len_[last];
  // Reconstruct: walk parents; a dirty predecessor was used via start() and
  // therefore begins the chain.
  std::size_t cur = pos_[static_cast<std::size_t>(best_end)];
  path.nodes.push_back(best_end);
  while (parent_[cur] != kInvalidNode) {
    const NodeId prev = parent_[cur];
    path.nodes.push_back(prev);
    cur = pos_[static_cast<std::size_t>(prev)];
    if (dirty_[cur]) break;  // ext(prev) == start(prev): chain starts here
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  take(path.nodes);
  return path;
}

void ValidPathFinder::run_dp() {
  // DP over the topological order:
  //   start(v) = chain {v} with v as first vertex (head bonus applies),
  //   full(v)  = best chain ending at v (v may be dirty = last vertex),
  //   ext(v)   = best chain ending at v that may still be extended:
  //              equal to full(v) when v is clean, start(v) when dirty
  //              (a dirty vertex can be extended only as the first vertex).
  // Scheduled vertices keep ext < 0, so they are never extended. The best
  // ending (tail bonus applies to the last vertex) is carried in from the
  // last unscheduled position before redo_from_.
  const std::size_t carry = open_.find_prev(redo_from_);
  double best_len = carry < n_ ? best_len_[carry] : kNegInf;
  NodeId best_end = carry < n_ ? best_end_[carry] : kInvalidNode;

  open_.for_each_from(redo_from_, [&](std::size_t i) {
    ++positions_visited_;
    const double start_v = weight_[i] + head_bonus_[i];
    double full = start_v;
    NodeId best_parent = kInvalidNode;
    for (std::size_t k = in_head_[i]; k < in_head_[i + 1]; ++k) {
      const InArc& in = in_[k];
      if (ext_[in.src_pos] < 0.0) continue;
      const double cand = ext_[in.src_pos] + in.weight + weight_[i];
      if (cand > full || (cand == full && best_parent != kInvalidNode && in.src < best_parent)) {
        full = cand;
        best_parent = in.src;
      }
    }
    parent_[i] = best_parent;
    ext_[i] = dirty_[i] ? start_v : full;

    if (!(full < 0.0)) {
      const NodeId v = topo_[i];
      const double len = full + tail_bonus_[i];
      if (len > best_len || (len == best_len && v < best_end)) {
        best_len = len;
        best_end = v;
      }
    }
    best_len_[i] = best_len;
    best_end_[i] = best_end;
  });
  redo_from_ = n_;
}

void ValidPathFinder::take(const std::vector<NodeId>& path) {
  for (NodeId v : path) {
    HIOS_ASSERT(!scheduled_.test(static_cast<std::size_t>(v)), "path revisits node " << v);
    const std::size_t i = pos_[static_cast<std::size_t>(v)];
    scheduled_.set(static_cast<std::size_t>(v));
    open_.set(i, false);
    ext_[i] = kNegInf;
    redo_from_ = std::min(redo_from_, i);
  }
  remaining_ -= path.size();
  // The path's unscheduled neighbours now touch a scheduled vertex.
  const auto touch = [&](NodeId u, std::vector<double>& bonus, double weight) {
    if (scheduled_.test(static_cast<std::size_t>(u))) return;
    const std::size_t i = pos_[static_cast<std::size_t>(u)];
    dirty_[i] = 1;
    bonus[i] = std::max(bonus[i], weight);
    redo_from_ = std::min(redo_from_, i);
  };
  for (NodeId v : path) {
    for (EdgeId e : g_.in_edges(v)) touch(g_.edge(e).src, tail_bonus_, g_.edge(e).weight);
    for (EdgeId e : g_.out_edges(v)) touch(g_.edge(e).dst, head_bonus_, g_.edge(e).weight);
  }
}

std::optional<ValidPath> longest_valid_path(const Graph& g, const DynBitset& scheduled) {
  auto order_opt = topological_sort(g);
  HIOS_CHECK(order_opt.has_value(), "longest_valid_path: graph has a cycle");
  return longest_valid_path(g, scheduled, *order_opt);
}

std::optional<ValidPath> longest_valid_path(const Graph& g, const DynBitset& scheduled,
                                            const std::vector<NodeId>& topo_order) {
  return ValidPathFinder(g, topo_order, scheduled).next();
}

}  // namespace hios::graph
