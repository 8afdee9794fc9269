// Cost model over a derived graph whose nodes map back to an original
// profiled graph (failover residual scheduling, and the per-GPU induced
// subgraphs of sched::ios_intra_pass).
//
// A residual graph re-uses the original nodes' profiled times and demands
// but has fresh dense node ids, while concrete cost models (analytical /
// table) index per-node state by the *original* ids. RemappedCostModel
// translates: demand queries forward through the id map, and stage times
// are computed by the base model over the original graph. Boundary nodes —
// zero-weight stand-ins for tensors computed before the run — are excluded
// from the base stage-time query so the contract
// stage_time({boundary}) == 0 == weight holds; their contention
// contribution is a dead tensor's, i.e. none.
//
// Topology and per-GPU speed factors are NOT inherited: the wrapper gets
// its own (degraded topology over the surviving GPUs, survivor speeds
// folded with straggler slowdowns) via the base-class setters.
#pragma once

#include <memory>
#include <vector>

#include "cost/cost_model.h"

namespace hios::cost {

class RemappedCostModel final : public CostModel {
 public:
  /// `orig_of[v]` = node of `base_graph` that derived node v stands for;
  /// `is_boundary[v]` marks zero-cost precomputed-tensor nodes (may be
  /// empty = none). `base_graph` must outlive this model.
  RemappedCostModel(std::shared_ptr<const CostModel> base, const graph::Graph& base_graph,
                    std::vector<graph::NodeId> orig_of, std::vector<char> is_boundary = {})
      : base_(std::move(base)),
        base_graph_(&base_graph),
        orig_of_(std::move(orig_of)),
        is_boundary_(std::move(is_boundary)) {
    HIOS_CHECK(base_ != nullptr, "RemappedCostModel needs a base model");
    HIOS_CHECK(is_boundary_.empty() || is_boundary_.size() == orig_of_.size(),
               "boundary mask size mismatch");
  }

  double stage_time(const graph::Graph& g,
                    std::span<const graph::NodeId> stage) const override;

  double demand(const graph::Graph& g, graph::NodeId v) const override {
    (void)g;
    return base_->demand(*base_graph_, translate(v));
  }

 private:
  graph::NodeId translate(graph::NodeId v) const {
    HIOS_CHECK(v >= 0 && static_cast<std::size_t>(v) < orig_of_.size(),
               "RemappedCostModel: unmapped node " << v);
    return orig_of_[static_cast<std::size_t>(v)];
  }

  bool boundary(graph::NodeId v) const {
    return !is_boundary_.empty() && is_boundary_[static_cast<std::size_t>(v)];
  }

  std::shared_ptr<const CostModel> base_;
  const graph::Graph* base_graph_;
  std::vector<graph::NodeId> orig_of_;
  std::vector<char> is_boundary_;
};

}  // namespace hios::cost
