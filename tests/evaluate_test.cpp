// Tests for the stage-level schedule evaluator (§III-A semantics).
#include <gtest/gtest.h>

#include "cost/table_model.h"
#include "graph/algorithms.h"
#include "graph/compiled_graph.h"
#include "models/examples.h"
#include "sched/core/schedule_state.h"
#include "sched/evaluate.h"
#include "sched/validate.h"

namespace hios::sched {
namespace {

const cost::TableCostModel kCost;

TEST(Evaluate, SequentialChainSumsWeights) {
  const graph::Graph g = models::make_chain(4, 2.0, 0.5);
  Schedule s(1);
  for (graph::NodeId v = 0; v < 4; ++v) s.push_op(0, v);
  const auto eval = evaluate_schedule(g, s, kCost);
  ASSERT_TRUE(eval.has_value());
  EXPECT_DOUBLE_EQ(eval->latency_ms, 8.0);  // same GPU: no transfer cost
}

TEST(Evaluate, CrossGpuTransferCharged) {
  const graph::Graph g = models::make_chain(2, 2.0, 0.5);
  Schedule s(2);
  s.push_op(0, 0);
  s.push_op(1, 1);
  const auto eval = evaluate_schedule(g, s, kCost);
  ASSERT_TRUE(eval.has_value());
  EXPECT_DOUBLE_EQ(eval->latency_ms, 2.0 + 0.5 + 2.0);
}

TEST(Evaluate, ParallelBranchesOverlapAcrossGpus) {
  const graph::Graph g = models::make_fork_join(2, 3.0, 0.5, 1.0);
  // src on gpu0, branch0 gpu0, branch1 gpu1, sink gpu0.
  Schedule s(2);
  s.push_op(0, 0);
  s.push_op(0, 2);
  s.push_op(1, 3);
  s.push_op(0, 1);
  const auto eval = evaluate_schedule(g, s, kCost);
  ASSERT_TRUE(eval.has_value());
  // src 0..1; b0 on gpu0 1..4; b1 on gpu1 starts 1+0.5=1.5..4.5, arrives 5.0;
  // sink starts max(4, 5.0)=5 .. 6.
  EXPECT_DOUBLE_EQ(eval->latency_ms, 6.0);
}

TEST(Evaluate, StageTimingFieldsConsistent) {
  const graph::Graph g = models::make_chain(3, 1.0, 0.1);
  Schedule s(1);
  for (graph::NodeId v = 0; v < 3; ++v) s.push_op(0, v);
  const auto eval = evaluate_schedule(g, s, kCost);
  ASSERT_TRUE(eval.has_value());
  ASSERT_EQ(eval->stages.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(eval->stages[i].gpu, 0);
    EXPECT_EQ(eval->stages[i].index, static_cast<int>(i));
    EXPECT_DOUBLE_EQ(eval->stages[i].finish - eval->stages[i].start, 1.0);
  }
  EXPECT_DOUBLE_EQ(eval->stages[1].start, eval->stages[0].finish);
}

TEST(Evaluate, GroupedStageUsesStageTime) {
  const graph::Graph g = models::make_fork_join(2, 4.0, 0.1, 0.5);
  Schedule s(1);
  s.push_op(0, 0);                       // src
  s.gpus[0].push_back(Stage{{2, 3}});    // both branches concurrent
  s.push_op(0, 1);                       // sink
  const auto eval = evaluate_schedule(g, s, kCost);
  ASSERT_TRUE(eval.has_value());
  const graph::NodeId pair[] = {2, 3};
  const double expect = 0.5 + kCost.stage_time(g, pair) + 0.5;
  EXPECT_DOUBLE_EQ(eval->latency_ms, expect);
}

TEST(Evaluate, DeadlockReturnsNullopt) {
  const graph::Graph g = models::make_chain(3, 1.0, 0.1);
  Schedule s(2);
  s.push_op(0, 2);
  s.push_op(0, 0);
  s.push_op(1, 1);
  EXPECT_FALSE(evaluate_schedule(g, s, kCost).has_value());
}

TEST(Evaluate, MissingNodeThrows) {
  const graph::Graph g = models::make_chain(2);
  Schedule s(1);
  s.push_op(0, 0);
  EXPECT_THROW(evaluate_schedule(g, s, kCost), Error);
}

TEST(Evaluate, PartialIgnoresUnscheduled) {
  // ScheduleState times partial schedules (HIOS-LP's trials, Alg. 2's
  // inputs); evaluate_schedule itself insists on a complete one.
  const graph::Graph g = models::make_chain(3, 2.0, 0.5);
  Schedule s(1);
  s.push_op(0, 0);  // only the first op
  const graph::CompiledGraph cg(g);
  ScheduleState state(cg, kCost);
  state.load(s);
  const auto eval = state.evaluate();
  ASSERT_TRUE(eval.has_value());
  EXPECT_DOUBLE_EQ(eval->latency_ms, 2.0);
  EXPECT_EQ(eval->stage_of, (std::vector<int>{0, -1, -1}));
}

TEST(Evaluate, CyclicGraphIsAStructuredError) {
  // A cyclic graph has no valid schedule: evaluate_schedule rejects it with
  // hios::Error while compiling the graph, as validate_schedule does.
  graph::Graph g("loop");
  g.add_node("a", 1.0);
  g.add_node("b", 1.0);
  g.add_edge(0, 1, 0.1);
  g.add_edge(1, 0, 0.1);
  Schedule s(2);
  s.push_op(0, 0);
  s.push_op(1, 1);
  EXPECT_THROW(evaluate_schedule(g, s, kCost), Error);
  EXPECT_THROW(validate_schedule(g, s), Error);
}

TEST(Evaluate, MalformedScheduleIsAStructuredError) {
  const graph::Graph g = models::make_chain(2);
  Schedule lopsided(2);
  lopsided.push_op(0, 0);
  lopsided.push_op(1, 1);
  lopsided.gpus.pop_back();  // num_gpus says 2, one stage list
  EXPECT_THROW(evaluate_schedule(g, lopsided, kCost), Error);
  Schedule no_gpus;
  EXPECT_THROW(evaluate_schedule(g, no_gpus, kCost), Error);
  Schedule bad_id(1);
  bad_id.push_op(0, 0);
  bad_id.push_op(0, 7);
  EXPECT_THROW(evaluate_schedule(g, bad_id, kCost), Error);
}

TEST(Evaluate, WorstTransferBetweenStagePairKept) {
  // Two edges between the same pair of cross-GPU stages: use the max.
  graph::Graph g;
  const auto a = g.add_node("a", 1.0);
  const auto b = g.add_node("b", 1.0);
  const auto c = g.add_node("c", 1.0);
  const auto d = g.add_node("d", 1.0);
  g.add_edge(a, c, 0.2);
  g.add_edge(b, d, 0.9);
  Schedule s(2);
  s.gpus[0].push_back(Stage{{a, b}});
  s.gpus[1].push_back(Stage{{c, d}});
  const auto eval = evaluate_schedule(g, s, kCost);
  ASSERT_TRUE(eval.has_value());
  const graph::NodeId st0[] = {a, b};
  const graph::NodeId st1[] = {c, d};
  EXPECT_DOUBLE_EQ(eval->latency_ms,
                   kCost.stage_time(g, st0) + 0.9 + kCost.stage_time(g, st1));
}

TEST(Evaluate, EmptyGraphEmptySchedule) {
  graph::Graph g;
  Schedule s(1);
  const auto eval = evaluate_schedule(g, s, kCost);
  ASSERT_TRUE(eval.has_value());
  EXPECT_DOUBLE_EQ(eval->latency_ms, 0.0);
}

TEST(Evaluate, LatencyLowerBoundedByCriticalPath) {
  const graph::Graph g = models::make_fig4_graph();
  Schedule s(1);
  // Any topological order; here: 0,1,2,3,4,5,6,7 works for fig4.
  for (graph::NodeId v = 0; v < 8; ++v) s.push_op(0, v);
  const auto eval = evaluate_schedule(g, s, kCost);
  ASSERT_TRUE(eval.has_value());
  EXPECT_GE(eval->latency_ms, graph::critical_path_length(g, false));
}

}  // namespace
}  // namespace hios::sched
