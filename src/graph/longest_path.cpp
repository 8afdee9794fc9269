#include "graph/longest_path.h"

#include <algorithm>
#include <bit>

#include "graph/algorithms.h"

namespace hios::graph {

namespace {
constexpr double kNegInf = -1.0;

/// Tournament order: the longer chain, then the smaller ending id.
bool better(double len_a, NodeId end_a, double len_b, NodeId end_b) {
  return (len_a > len_b) | ((len_a == len_b) & (end_a < end_b));  // branch-free
}
}  // namespace

ValidPathFinder::ValidPathFinder(const Graph& g, const std::vector<NodeId>& topo_order,
                                 const DynBitset& scheduled)
    : topo_(topo_order), n_(g.num_nodes()), pos_(n_), open_(n_), dirty_(n_, 0),
      head_bonus_(n_, 0.0), tail_bonus_(n_, 0.0), weight_(n_), ext_(n_, kNegInf),
      parent_(n_, kInvalidNode), queue_((n_ + 63) / 64, 0), leaves_(std::bit_ceil(n_)),
      tree_(2 * leaves_, kNoChain) {
  HIOS_CHECK(scheduled.size() == n_, "scheduled mask size mismatch");
  HIOS_CHECK(topo_order.size() == n_, "topo order size mismatch");
  for (std::size_t i = 0; i < n_; ++i) pos_[static_cast<std::size_t>(topo_[i])] = i;

  in_head_.reserve(n_ + 1);
  in_.reserve(g.num_edges());
  out_head_.reserve(n_ + 1);
  out_.reserve(g.num_edges());
  for (std::size_t i = 0; i < n_; ++i) {
    const NodeId v = topo_[i];
    weight_[i] = g.node_weight(v);
    const bool open = !scheduled.test(static_cast<std::size_t>(v));
    if (open) {
      open_.set(i);
      ++remaining_;
    }
    in_head_.push_back(in_.size());
    for (EdgeId e : g.in_edges(v)) {
      const Edge& edge = g.edge(e);
      in_.push_back({static_cast<uint32_t>(pos_[static_cast<std::size_t>(edge.src)]), edge.src,
                     edge.weight});
      if (open && scheduled.test(static_cast<std::size_t>(edge.src))) {
        dirty_[i] = 1;
        head_bonus_[i] = std::max(head_bonus_[i], edge.weight);
      }
    }
    out_head_.push_back(out_.size());
    for (EdgeId e : g.out_edges(v)) {
      const Edge& edge = g.edge(e);
      out_.push_back(
          {static_cast<uint32_t>(pos_[static_cast<std::size_t>(edge.dst)]), edge.weight});
      if (open && scheduled.test(static_cast<std::size_t>(edge.dst))) {
        dirty_[i] = 1;
        tail_bonus_[i] = std::max(tail_bonus_[i], edge.weight);
      }
    }
  }
  in_head_.push_back(in_.size());
  out_head_.push_back(out_.size());
  // The first next() computes every unscheduled position.
  for (std::size_t w = 0; w < open_.num_words(); ++w) queue_[w] = open_.word(w);
  queue_hi_ = queue_.empty() ? 0 : queue_.size() - 1;
}

const ValidPathFinder::Best& ValidPathFinder::match(std::size_t k) const {
  const Best& l = tree_[2 * k];
  const Best& r = tree_[2 * k + 1];
  return tree_[2 * k + (better(r.len, r.end, l.len, l.end) ? 1 : 0)];
}

std::optional<ValidPath> ValidPathFinder::next() {
  if (remaining_ == 0) return std::nullopt;
  drain();
  if (!built_) {  // the first drain wrote the leaves only
    for (std::size_t k = leaves_ - 1; k >= 1; --k) tree_[k] = match(k);
    built_ = true;
  }

  const Best best = tree_[1];
  HIOS_ASSERT(best.end != kInvalidNode, "no unscheduled vertex found");

  ValidPath path;
  path.length = best.len;
  // Reconstruct: walk parents; a dirty predecessor was used via start() and
  // therefore begins the chain.
  std::size_t cur = pos_[static_cast<std::size_t>(best.end)];
  path.nodes.push_back(best.end);
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

void ValidPathFinder::push(std::size_t i) {
  queue_[i >> 6] |= uint64_t{1} << (i & 63);
  queue_lo_ = std::min(queue_lo_, i >> 6);
  queue_hi_ = std::max(queue_hi_, i >> 6);
}

void ValidPathFinder::drain() {
  // Positions are popped in ascending order, and recompute() queues only
  // successors, which come later in topological order: each queued position
  // is recomputed once, after every predecessor whose value changed.
  for (std::size_t w = queue_lo_; w <= queue_hi_ && w < queue_.size(); ++w) {
    while (queue_[w] != 0) {
      const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(queue_[w]));
      queue_[w] &= queue_[w] - 1;
      recompute(i);
    }
  }
  queue_lo_ = queue_.size();
  queue_hi_ = 0;
}

void ValidPathFinder::recompute(std::size_t i) {
  // DP over the topological order:
  //   start(v) = chain {v} with v as first vertex (head bonus applies),
  //   full(v)  = best chain ending at v (v may be dirty = last vertex),
  //   ext(v)   = best chain ending at v that may still be extended:
  //              equal to full(v) when v is clean, start(v) when dirty
  //              (a dirty vertex can be extended only as the first vertex).
  // Scheduled vertices keep ext < 0, so they are never extended. The chain
  // ending at v (tail bonus applies to the last vertex) is v's tree leaf.
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
  set_leaf(i, full < 0.0 ? kNoChain : Best{full + tail_bonus_[i], topo_[i]});
  const double ext = dirty_[i] ? start_v : full;
  if (std::bit_cast<uint64_t>(ext) == std::bit_cast<uint64_t>(ext_[i])) return;
  ext_[i] = ext;
  if (!built_) return;  // the first drain queued every unscheduled position
  for (std::size_t k = out_head_[i]; k < out_head_[i + 1]; ++k)
    if (open_.test(out_[k].dst_pos)) push(out_[k].dst_pos);
}

void ValidPathFinder::set_leaf(std::size_t i, Best b) {
  const auto same = [](const Best& x, const Best& y) {
    return x.end == y.end && std::bit_cast<uint64_t>(x.len) == std::bit_cast<uint64_t>(y.len);
  };
  std::size_t k = leaves_ + i;
  if (same(tree_[k], b)) return;
  tree_[k] = b;
  if (!built_) return;
  // Replay the matches up the tree, stopping at the first node whose
  // winner is unchanged: nothing above it changes either.
  for (k >>= 1; k >= 1; k >>= 1) {
    const Best& w = match(k);
    if (same(tree_[k], w)) return;
    tree_[k] = w;
  }
}

void ValidPathFinder::take(const std::vector<NodeId>& path) {
  for (NodeId v : path) {
    const std::size_t i = pos_[static_cast<std::size_t>(v)];
    HIOS_ASSERT(open_.test(i), "path revisits node " << v);
    open_.set(i, false);
    ext_[i] = kNegInf;
    set_leaf(i, kNoChain);
  }
  remaining_ -= path.size();
  // The path's unscheduled neighbours now touch a scheduled vertex; its
  // successors also lost a predecessor's value.
  const auto touch = [&](std::size_t j, std::vector<double>& bonus, double weight) {
    if (!open_.test(j)) return;
    dirty_[j] = 1;
    bonus[j] = std::max(bonus[j], weight);
    push(j);
  };
  for (NodeId v : path) {
    const std::size_t i = pos_[static_cast<std::size_t>(v)];
    for (std::size_t k = in_head_[i]; k < in_head_[i + 1]; ++k)
      touch(in_[k].src_pos, tail_bonus_, in_[k].weight);
    for (std::size_t k = out_head_[i]; k < out_head_[i + 1]; ++k)
      touch(out_[k].dst_pos, head_bonus_, out_[k].weight);
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
