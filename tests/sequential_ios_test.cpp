// Tests for the Sequential baseline and the IOS DP scheduler,
// including exactness against the brute-force single-GPU oracle.
#include <gtest/gtest.h>

#include "cost/table_model.h"
#include "graph/algorithms.h"
#include "models/examples.h"
#include "models/random_dag.h"
#include "oracles/oracles.h"
#include "sched/evaluate.h"
#include "sched/scheduler.h"
#include "sched/validate.h"

namespace hios::sched {
namespace {

const cost::TableCostModel kCost;

SchedulerConfig exact_ios_config() {
  SchedulerConfig c;
  c.ios_max_stage_ops = 16;
  c.ios_frontier_cap = 64;
  c.ios_beam_width = 1 << 20;
  return c;
}

TEST(Sequential, LatencyIsSumOfWeights) {
  const graph::Graph g = models::make_fig4_graph();
  const auto r = make_scheduler("sequential")->schedule(g, kCost, SchedulerConfig{});
  check_schedule(g, r.schedule);
  EXPECT_DOUBLE_EQ(r.latency_ms, g.total_node_weight());
  EXPECT_EQ(r.schedule.num_gpus, 1);
  EXPECT_EQ(r.algorithm, "sequential");
}

TEST(Sequential, SingleOpPerStage) {
  const graph::Graph g = models::make_fork_join(3);
  const auto r = make_scheduler("sequential")->schedule(g, kCost, SchedulerConfig{});
  for (const Stage& stage : r.schedule.gpus[0]) EXPECT_EQ(stage.ops.size(), 1u);
}

TEST(Ios, SingleGpuRegardlessOfConfig) {
  const graph::Graph g = models::make_fork_join(2, 0.5, 0.1, 0.2);
  SchedulerConfig c;
  c.num_gpus = 8;
  const auto r = make_scheduler("ios")->schedule(g, kCost, c);
  check_schedule(g, r.schedule);
  EXPECT_EQ(r.schedule.num_gpus, 1);
}

TEST(Ios, BeatsSequentialOnParallelSmallOps) {
  const graph::Graph g = models::make_fork_join(4, 0.3, 0.05, 0.2);
  const auto seq = make_scheduler("sequential")->schedule(g, kCost, SchedulerConfig{});
  const auto ios = make_scheduler("ios")->schedule(g, kCost, SchedulerConfig{});
  EXPECT_LT(ios.latency_ms, seq.latency_ms);
}

TEST(Ios, NeverWorseThanSequential) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    models::RandomDagParams p;
    p.num_ops = 30;
    p.num_layers = 5;
    p.num_deps = 60;
    p.seed = seed;
    const graph::Graph g = models::random_dag(p);
    const auto seq = make_scheduler("sequential")->schedule(g, kCost, SchedulerConfig{});
    const auto ios = make_scheduler("ios")->schedule(g, kCost, SchedulerConfig{});
    check_schedule(g, ios.schedule);
    EXPECT_LE(ios.latency_ms, seq.latency_ms + 1e-9) << seed;
  }
}

TEST(Ios, ExactOnSmallGraphsVsBruteForce) {
  // With pruning disabled IOS is the exact down-set DP; it must match the
  // independent memoized recursion oracle.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    models::RandomDagParams p;
    p.num_ops = 9;
    p.num_layers = 3;
    p.num_deps = 14;
    p.seed = seed;
    const graph::Graph g = models::random_dag(p);
    const auto ios = make_scheduler("ios")->schedule(g, kCost, exact_ios_config());
    const double oracle = oracle::optimal_single_gpu_latency(g, kCost, 16);
    EXPECT_NEAR(ios.latency_ms, oracle, 1e-9) << seed;
  }
}

TEST(Ios, ExactOnForkJoin) {
  const graph::Graph g = models::make_fork_join(4, 0.4, 0.05, 0.2);
  const auto ios = make_scheduler("ios")->schedule(g, kCost, exact_ios_config());
  EXPECT_NEAR(ios.latency_ms, oracle::optimal_single_gpu_latency(g, kCost, 16), 1e-9);
}

TEST(Ios, PrunedNeverBeatsExact) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    models::RandomDagParams p;
    p.num_ops = 12;
    p.num_layers = 4;
    p.num_deps = 20;
    p.seed = seed;
    const graph::Graph g = models::random_dag(p);
    SchedulerConfig pruned;
    pruned.ios_max_stage_ops = 2;
    pruned.ios_frontier_cap = 4;
    pruned.ios_beam_width = 4;
    const auto fast = make_scheduler("ios")->schedule(g, kCost, pruned);
    const auto exact = make_scheduler("ios")->schedule(g, kCost, exact_ios_config());
    check_schedule(g, fast.schedule);
    EXPECT_GE(fast.latency_ms + 1e-9, exact.latency_ms) << seed;
  }
}

TEST(Ios, ReportedLatencyMatchesEvaluator) {
  models::RandomDagParams p;
  p.num_ops = 25;
  p.num_layers = 5;
  p.num_deps = 50;
  const graph::Graph g = models::random_dag(p);
  const auto ios = make_scheduler("ios")->schedule(g, kCost, SchedulerConfig{});
  const auto eval = evaluate_schedule(g, ios.schedule, kCost);
  ASSERT_TRUE(eval.has_value());
  EXPECT_NEAR(eval->latency_ms, ios.latency_ms, 1e-9);
}

TEST(Ios, StageSizeRespectsCap) {
  const graph::Graph g = models::make_fork_join(6, 0.1, 0.01, 0.05);
  SchedulerConfig c;
  c.ios_max_stage_ops = 2;
  const auto ios = make_scheduler("ios")->schedule(g, kCost, c);
  for (const Stage& stage : ios.schedule.gpus[0]) EXPECT_LE(stage.ops.size(), 2u);
}

TEST(Ios, EmptyGraph) {
  graph::Graph g;
  const auto r = make_scheduler("ios")->schedule(g, kCost, SchedulerConfig{});
  EXPECT_DOUBLE_EQ(r.latency_ms, 0.0);
  EXPECT_EQ(r.schedule.num_ops(), 0u);
}

TEST(BruteForce, RejectsOversizedGraphs) {
  models::RandomDagParams p;
  p.num_ops = 30;
  p.num_layers = 5;
  const graph::Graph g = models::random_dag(p);
  EXPECT_THROW(oracle::optimal_single_gpu_latency(g, kCost, 4), Error);
  EXPECT_THROW(oracle::optimal_inter_gpu_latency(g, kCost, 2), Error);
}

TEST(Factory, KnownAndUnknownNames) {
  for (const auto& name : scheduler_names()) {
    EXPECT_EQ(make_scheduler(name)->name(), name);
  }
  EXPECT_THROW(make_scheduler("alien"), Error);
  EXPECT_EQ(scheduler_names().size(), 6u);
}

}  // namespace
}  // namespace hios::sched
