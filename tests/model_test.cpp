// Unit tests for the ops::Model container and graph derivation.
#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "ops/model.h"
#include "oracles/oracles.h"

namespace hios::ops {
namespace {

Model tiny() {
  Model m("tiny");
  const OpId in = m.add_input("x", TensorShape{1, 3, 8, 8});
  const OpId c1 = m.add_op(Op(OpKind::kConv2d, "c1", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  const OpId c2 = m.add_op(Op(OpKind::kConv2d, "c2", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  m.add_op(Op(OpKind::kConcat, "cat"), {c1, c2});
  return m;
}

TEST(Model, ShapesInferredEagerly) {
  Model m = tiny();
  EXPECT_EQ(m.output_shape(1), (TensorShape{1, 4, 8, 8}));
  EXPECT_EQ(m.output_shape(3).c, 8);
}

TEST(Model, InvalidOpRejectedAtAddTime) {
  Model m("bad");
  const OpId in = m.add_input("x", TensorShape{1, 3, 4, 4});
  EXPECT_THROW(
      m.add_op(Op(OpKind::kConv2d, "c", Conv2dAttr{8, 7, 7, 1, 1, 0, 0, 1}), {in}), Error);
  EXPECT_THROW(m.add_op(Op(OpKind::kConcat, "c"), {in, 99}), Error);  // bad id
}

TEST(Model, AddInputValidation) {
  Model m("m");
  EXPECT_THROW(m.add_input("zero", TensorShape{1, 0, 1, 1}), Error);
  EXPECT_THROW(m.add_op(Op(OpKind::kInput, "x"), {}), Error);
}

TEST(Model, ComputeCountsExcludeInputs) {
  Model m = tiny();
  EXPECT_EQ(m.num_ops(), 4);
  EXPECT_EQ(m.num_compute_ops(), 3);
  EXPECT_EQ(m.num_compute_deps(), 2);  // c1->cat, c2->cat (input edges excluded)
  EXPECT_EQ(m.input_ids(), std::vector<OpId>{0});
}

TEST(Model, ToGraphStructure) {
  Model m = tiny();
  graph::Graph g = m.to_graph();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(graph::is_dag(g));
  // Tags point back to model ops.
  for (graph::NodeId v = 0; v < 3; ++v) {
    const auto op_id = static_cast<OpId>(g.node_tag(v));
    EXPECT_EQ(g.node_name(v), m.op(op_id).name());
    EXPECT_FALSE(m.is_input(op_id));
  }
}

TEST(Model, ToGraphDeduplicatesParallelDeps) {
  Model m("dup");
  const OpId in = m.add_input("x", TensorShape{1, 2, 2, 2});
  const OpId a = m.add_op(Op(OpKind::kActivation, "r"), {in});
  m.add_op(Op(OpKind::kEltwise, "self_add"), {a, a});  // same producer twice
  graph::Graph g = m.to_graph();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(m.num_compute_deps(), 1);
}

TEST(Model, FlopsAndBytesDelegation) {
  Model m = tiny();
  EXPECT_GT(m.flops(1), 0);
  EXPECT_GT(m.memory_bytes(3), 0);
  EXPECT_GT(m.total_flops(), m.flops(1));
  EXPECT_EQ(m.param_count(3), 0);  // concat
}

TEST(Model, BadIdThrows) {
  Model m = tiny();
  EXPECT_THROW(m.op(-1), Error);
  EXPECT_THROW(m.output_shape(42), Error);
}

// Copies carry the running hashes: extending a copy moves only the copy's.
TEST(Model, ExtendingACopyChangesOnlyTheCopysFingerprint) {
  const Model original = tiny();
  const uint64_t fp = original.fingerprint();
  const uint64_t check = original.fingerprint_check();
  Model copy = original;
  EXPECT_EQ(copy.fingerprint(), fp);
  copy.add_op(Op(OpKind::kActivation, "relu"), {3});
  EXPECT_NE(copy.fingerprint(), fp);
  EXPECT_NE(copy.fingerprint_check(), check);
  EXPECT_EQ(original.fingerprint(), fp);
  EXPECT_EQ(original.fingerprint_check(), check);
  EXPECT_EQ(copy.fingerprint(), oracle::model_hashes(copy).fingerprint);
  EXPECT_EQ(copy.fingerprint_check(), oracle::model_hashes(copy).check);
}

}  // namespace
}  // namespace hios::ops
