// Schedule data model (§III-A).
//
// A schedule Q = { Q_i } assigns every operator of the computation graph to
// exactly one GPU i and partitions each GPU's operators into an ordered
// list of stages S_{i,1..K_i}. Stages run sequentially on their GPU; the
// ops inside one stage start together and run concurrently (cost t(S)).
#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/json.h"

namespace hios::sched {

/// One stage: a set of independent operators co-scheduled on one GPU.
struct Stage {
  std::vector<graph::NodeId> ops;
};

/// Complete schedule of a computation graph onto M GPUs.
struct Schedule {
  int num_gpus = 0;
  std::vector<std::vector<Stage>> gpus;  ///< per-GPU ordered stage lists

  Schedule() = default;
  explicit Schedule(int m) : num_gpus(m), gpus(static_cast<std::size_t>(m)) {}

  /// gpu_of[v] = GPU index of node v, or -1 when v is not in the schedule.
  std::vector<int> gpu_assignment(std::size_t num_nodes) const;

  /// Total number of scheduled operators.
  std::size_t num_ops() const;

  /// Number of GPUs with at least one stage.
  int num_gpus_used() const;

  /// Appends a singleton stage holding `v` to GPU `gpu`.
  void push_op(int gpu, graph::NodeId v);

  /// Serialises to the JSON layout the paper's engine consumes:
  /// {"num_gpus": M, "gpus": [[ [op,...], [op,...] ], ...]} with op names.
  Json to_json(const graph::Graph& g) const;

  /// Parses a schedule previously produced by to_json. Node ids are matched
  /// by the "id" field; validation against `g` is the caller's job
  /// (see validate_schedule).
  static Schedule from_json(const Json& json);
};

}  // namespace hios::sched
