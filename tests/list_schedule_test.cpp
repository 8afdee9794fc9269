// Tests for the priority-order list scheduler (Alg. 1 lines 10-13): the
// production ListScheduleState against hand-computed timings and against
// the one-pass list scheduler and from-scratch evaluator in tests/oracles/.
#include <gtest/gtest.h>

#include "cost/table_model.h"
#include "graph/algorithms.h"
#include "graph/compiled_graph.h"
#include "models/examples.h"
#include "models/random_dag.h"
#include "oracles/oracles.h"
#include "sched/core/list_state.h"

namespace hios::sched {
namespace {

const cost::TableCostModel kCost;

/// Runs the oracle pass over `mapping` in priority order and checks that
/// ListScheduleState, given the same mapping, reports the same latency,
/// per-node times and placed schedule, bit for bit.
oracle::ListScheduleResult list_schedule_checked(const graph::Graph& g,
                                                 const std::vector<int>& mapping, int num_gpus) {
  const graph::CompiledGraph cg(g);
  const oracle::ListScheduleResult ref =
      oracle::list_schedule(g, mapping, cg.priority_order(), num_gpus, kCost);
  ListScheduleState state(cg, num_gpus, kCost);
  for (std::size_t v = 0; v < mapping.size(); ++v)
    state.set_gpu(static_cast<graph::NodeId>(v), mapping[v]);
  EXPECT_EQ(state.latency(), ref.latency_ms);
  for (std::size_t v = 0; v < mapping.size(); ++v) {
    EXPECT_EQ(state.start(static_cast<graph::NodeId>(v)), ref.start[v]) << v;
    EXPECT_EQ(state.finish(static_cast<graph::NodeId>(v)), ref.finish[v]) << v;
  }
  EXPECT_EQ(state.schedule().to_json(g).dump(), ref.schedule.to_json(g).dump());
  return ref;
}

TEST(ListSchedule, ChainOnOneGpu) {
  const graph::Graph g = models::make_chain(3, 2.0, 0.5);
  const oracle::ListScheduleResult r = list_schedule_checked(g, {0, 0, 0}, 1);
  EXPECT_DOUBLE_EQ(r.latency_ms, 6.0);
  EXPECT_DOUBLE_EQ(r.start[0], 0.0);
  EXPECT_DOUBLE_EQ(r.finish[2], 6.0);
  EXPECT_EQ(r.schedule.gpus[0].size(), 3u);
}

TEST(ListSchedule, CrossGpuTransferDelaysStart) {
  const graph::Graph g = models::make_chain(2, 2.0, 0.7);
  const oracle::ListScheduleResult r = list_schedule_checked(g, {0, 1}, 2);
  EXPECT_DOUBLE_EQ(r.start[1], 2.7);
  EXPECT_DOUBLE_EQ(r.latency_ms, 4.7);
}

TEST(ListSchedule, PartialMappingIgnoresUnmapped) {
  const graph::Graph g = models::make_chain(3, 1.0, 0.5);
  const oracle::ListScheduleResult r = list_schedule_checked(g, {0, -1, 0}, 1);
  // Node 1 unmapped: node 2's dependency on it is ignored; both mapped ops
  // run back to back.
  EXPECT_DOUBLE_EQ(r.latency_ms, 2.0);
  EXPECT_DOUBLE_EQ(r.start[2], 1.0);
  EXPECT_DOUBLE_EQ(r.finish[1], -1.0);
  EXPECT_EQ(r.schedule.num_ops(), 2u);
}

TEST(ListSchedule, ParallelBranchesUseBothGpus) {
  const graph::Graph g = models::make_fork_join(2, 3.0, 0.5, 1.0);
  const oracle::ListScheduleResult r = list_schedule_checked(g, {0, 0, 0, 1}, 2);
  // Matches the evaluator on the same singleton-stage schedule.
  const auto eval = oracle::evaluate_schedule(g, r.schedule, kCost);
  ASSERT_TRUE(eval.has_value());
  EXPECT_DOUBLE_EQ(eval->latency_ms, r.latency_ms);
}

TEST(ListSchedule, AgreesWithEvaluatorOnRandomGraphs) {
  // The list scheduler's incremental times must equal the evaluator's
  // fixed-point on the produced schedule (same §III-A semantics).
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    models::RandomDagParams p;
    p.num_ops = 60;
    p.num_layers = 8;
    p.num_deps = 120;
    p.seed = seed;
    const graph::Graph g = models::random_dag(p);
    std::vector<int> mapping(g.num_nodes());
    for (std::size_t v = 0; v < g.num_nodes(); ++v) mapping[v] = static_cast<int>(v % 3);
    const oracle::ListScheduleResult r = list_schedule_checked(g, mapping, 3);
    const auto eval = oracle::evaluate_schedule(g, r.schedule, kCost);
    ASSERT_TRUE(eval.has_value()) << seed;
    EXPECT_EQ(eval->latency_ms, r.latency_ms) << seed;
  }
}

TEST(ListSchedule, InputValidation) {
  const graph::Graph g = models::make_chain(2);
  const auto order = graph::priority_order(g);
  EXPECT_THROW(oracle::list_schedule(g, {0}, order, 1, kCost), Error);     // mapping size
  EXPECT_THROW(oracle::list_schedule(g, {0, 0}, {0}, 1, kCost), Error);    // order size
  EXPECT_THROW(oracle::list_schedule(g, {0, 0}, order, 0, kCost), Error);  // gpus
  EXPECT_THROW(oracle::list_schedule(g, {0, 5}, order, 2, kCost), Error);  // gpu range
  const graph::CompiledGraph cg(g);
  EXPECT_THROW(ListScheduleState(cg, 0, kCost), Error);  // gpus
  ListScheduleState state(cg, 2, kCost);
  EXPECT_THROW(state.set_gpu(1, 5), Error);   // gpu range
  EXPECT_THROW(state.set_gpu(0, -2), Error);  // below -1 (unmapped)
  EXPECT_THROW(state.set_gpu(2, 0), Error);  // node range
  const std::vector<graph::NodeId> bad_path{0, 2};
  EXPECT_THROW(state.place_path(bad_path), Error);  // node range, state untouched
  EXPECT_EQ(state.mapping(), (std::vector<int>{-1, -1}));
  EXPECT_EQ(state.walks(), 0u);
  const ListScheduleState::Placement empty = state.place_path({});
  EXPECT_EQ(empty.gpu, 0);
  EXPECT_EQ(empty.latency, 0.0);
}

TEST(ListSchedule, GpuTailRespected) {
  // Two independent ops on one GPU execute back to back even without deps.
  graph::Graph g;
  g.add_node("a", 2.0);
  g.add_node("b", 3.0);
  const oracle::ListScheduleResult r = list_schedule_checked(g, {0, 0}, 1);
  EXPECT_DOUBLE_EQ(r.latency_ms, 5.0);
}

}  // namespace
}  // namespace hios::sched
