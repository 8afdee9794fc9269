// Model: an ordered list of operators with tensor dependencies.
//
// This is the user-facing way to describe a DAG-structured network. Shapes
// are inferred eagerly at add time so errors surface at construction. The
// scheduler-facing computation graph (graph::Graph) is derived from it with
// one vertex per *compute* operator (input placeholders are elided, matching
// how the paper counts operators: Inception-v3 = 119 ops / 153 deps).
#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"
#include "ops/op.h"

namespace hios::ops {

using OpId = int;

/// A DAG of operators with inferred shapes.
class Model {
 public:
  explicit Model(std::string name) : name_(std::move(name)) {}

  /// Declares a model input of the given shape. Returns its op id.
  OpId add_input(const std::string& name, TensorShape shape);

  /// Adds an operator consuming the outputs of `inputs` (earlier op ids).
  OpId add_op(Op op, std::vector<OpId> inputs);

  const std::string& name() const { return name_; }
  int num_ops() const { return static_cast<int>(ops_.size()); }

  const Op& op(OpId id) const { check(id); return ops_[static_cast<std::size_t>(id)]; }
  const std::vector<OpId>& inputs(OpId id) const {
    check(id);
    return inputs_[static_cast<std::size_t>(id)];
  }
  const TensorShape& output_shape(OpId id) const {
    check(id);
    return shapes_[static_cast<std::size_t>(id)];
  }
  int64_t flops(OpId id) const;
  int64_t param_count(OpId id) const;
  int64_t memory_bytes(OpId id) const;

  bool is_input(OpId id) const { check(id); return ops_[static_cast<std::size_t>(id)].kind() == OpKind::kInput; }

  /// Total flops of all compute operators.
  int64_t total_flops() const;

  /// Number of compute (non-input) operators — the paper's operator count.
  int num_compute_ops() const;

  /// Number of dependencies between compute operators — the paper's count.
  int num_compute_deps() const;

  /// Builds the scheduler computation graph: one node per compute op
  /// (node tag = op id), one edge per unique producer->consumer dependency
  /// between compute ops. Node/edge weights are zero until a cost model
  /// profiles them (see cost::Profiler).
  graph::Graph to_graph() const;

  /// Input-op ids in declaration order.
  const std::vector<OpId>& input_ids() const { return input_ids_; }

  /// Structural fingerprint: a stable 64-bit FNV-1a hash over every
  /// operator's kind, attributes, resolved output shape, and dependency list,
  /// then the operator count (the model name is excluded — two
  /// identically-built models hash equal). add_input/add_op mix each new
  /// operator in as it is added, so this is O(1). Used by the serving
  /// layer's schedule cache as the model part of its key.
  uint64_t fingerprint() const;

  /// A second, independent 64-bit hash of the same encoding (its own offset
  /// basis, the splitmix64 finalizer after every value). The schedule cache
  /// keys on both, so an FNV-1a collision between two structures is a miss
  /// rather than the other model's plan.
  uint64_t fingerprint_check() const;

 private:
  void check(OpId id) const {
    HIOS_CHECK(id >= 0 && id < num_ops(), "bad op id " << id << " in model " << name_);
  }
  /// Mixes the canonical encoding of the just-added operator `id` into
  /// both running hashes.
  void mix_op(OpId id);

  std::string name_;
  std::vector<Op> ops_;
  std::vector<std::vector<OpId>> inputs_;
  std::vector<TensorShape> shapes_;
  std::vector<OpId> input_ids_;
  uint64_t fp_ = 1469598103934665603ULL;       ///< running FNV-1a state
  uint64_t fp_check_ = 0x6a09e667f3bcc908ULL;  ///< running second hash
};

}  // namespace hios::ops
