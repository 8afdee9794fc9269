// Immutable compiled view of a computation graph.
//
// Every scheduler used to recompute the same per-graph metadata — a
// topological sort, the priority indicators of §IV-A, the priority order —
// over and over. CompiledGraph is built once at the top of a schedule()
// call and packages:
//   * CSR (compressed sparse row) in/out adjacency — contiguous edge-id
//     arrays with each edge's other endpoint beside them, cache-friendly
//     for the evaluator inner loops,
//   * the topological order, priority indicators p(v), the descending
//     priority order, and each node's rank (position) in it.
// The view borrows the Graph: the Graph must outlive the CompiledGraph and
// must not grow while the view is alive.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace hios::graph {

class CompiledGraph {
 public:
  /// Compiles `g`. Throws when `g` has a cycle.
  explicit CompiledGraph(const Graph& g);

  const Graph& graph() const { return *g_; }
  std::size_t num_nodes() const { return n_; }
  std::size_t num_edges() const { return g_->num_edges(); }

  /// Edge ids entering / leaving `v`, in the Graph's insertion order (so
  /// iteration is interchangeable with Graph::in_edges / out_edges).
  std::span<const EdgeId> in_edges(NodeId v) const {
    check_node(v);
    return {in_csr_.data() + in_head_[static_cast<std::size_t>(v)],
            in_csr_.data() + in_head_[static_cast<std::size_t>(v) + 1]};
  }
  std::span<const EdgeId> out_edges(NodeId v) const {
    check_node(v);
    return {out_csr_.data() + out_head_[static_cast<std::size_t>(v)],
            out_csr_.data() + out_head_[static_cast<std::size_t>(v) + 1]};
  }

  /// Unchecked CSR slots for inner loops. v's in-edges occupy the slots
  /// [in_slot(v), in_slot(v + 1)), in the order of in_edges(v), and slot k
  /// holds an edge whose producer is in_src()[k]; symmetrically, out-slot k
  /// of out_slot(v)'s range leads to out_dst()[k]. Callers may keep
  /// per-slot arrays (e.g. transfer times) beside these.
  std::size_t in_slot(std::size_t v) const { return static_cast<std::size_t>(in_head_[v]); }
  std::size_t out_slot(std::size_t v) const { return static_cast<std::size_t>(out_head_[v]); }
  const NodeId* in_src() const { return in_src_.data(); }
  const NodeId* out_dst() const { return out_dst_.data(); }

  /// Kahn topological order (deterministic: ascending id tie-break).
  const std::vector<NodeId>& topo_order() const { return topo_; }

  /// Priority indicator p(v) of §IV-A.
  const std::vector<double>& priority() const { return priority_; }

  /// Nodes by descending p(v); always a valid topological order.
  const std::vector<NodeId>& priority_order() const { return order_; }

  /// Position of `v` in priority_order().
  int rank(NodeId v) const {
    check_node(v);
    return rank_[static_cast<std::size_t>(v)];
  }

 private:
  void check_node(NodeId v) const {
    HIOS_CHECK(v >= 0 && static_cast<std::size_t>(v) < n_, "bad node id " << v);
  }

  const Graph* g_;
  std::size_t n_;
  std::vector<int32_t> in_head_, out_head_;  // size n + 1
  std::vector<EdgeId> in_csr_, out_csr_;
  std::vector<NodeId> in_src_, out_dst_;     // beside in_csr_ / out_csr_
  std::vector<NodeId> topo_, order_;
  std::vector<double> priority_;
  std::vector<int> rank_;
};

}  // namespace hios::graph
