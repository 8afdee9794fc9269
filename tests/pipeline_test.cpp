// Tests for the core pipeline facade and experiment helpers.
#include <gtest/gtest.h>

#include <bit>

#include "core/experiment.h"
#include "core/pipeline.h"
#include "cost/table_model.h"
#include "models/examples.h"
#include "models/inception.h"
#include "models/random_dag.h"
#include "sched/validate.h"

namespace hios::core {
namespace {

TEST(Pipeline, EndToEndOnSmallInception) {
  models::InceptionV3Options mopt;
  mopt.image_hw = 96;
  mopt.channel_scale = 4;
  PipelineOptions opt;
  opt.algorithm = "hios-lp";
  const PipelineOutput out = run_pipeline(models::make_inception_v3(mopt), opt);
  EXPECT_GT(out.result.latency_ms, 0.0);
  EXPECT_EQ(out.result.algorithm, "hios-lp");
  EXPECT_EQ(out.profiled.graph.num_nodes(), 119u);
  EXPECT_DOUBLE_EQ(out.timeline.latency_ms, out.result.latency_ms);
  EXPECT_EQ(out.result.schedule.num_gpus, 2);  // platform default
}

TEST(Pipeline, PlatformGpuCountPropagates) {
  PipelineOptions opt;
  opt.platform = cost::make_a40_server(4);
  opt.algorithm = "hios-mr";
  const PipelineOutput out = run_pipeline(models::make_single_conv_model(32), opt);
  EXPECT_EQ(out.result.schedule.num_gpus, 4);
}

TEST(Pipeline, UnknownAlgorithmThrows) {
  PipelineOptions opt;
  opt.algorithm = "bogus";
  EXPECT_THROW(run_pipeline(models::make_single_conv_model(32), opt), Error);
}

TEST(Experiment, RunAlgorithmsReturnsAllRequested) {
  models::RandomDagParams p;
  p.num_ops = 30;
  p.num_layers = 5;
  p.num_deps = 60;
  const graph::Graph g = models::random_dag(p);
  const cost::TableCostModel cost;
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const auto results = run_algorithms(g, cost, config, {"sequential", "hios-lp"});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_LE(results.at("hios-lp").latency_ms, results.at("sequential").latency_ms + 1e-9);
}

TEST(Experiment, CountingModelPassesThroughValues) {
  const graph::Graph g = models::make_fork_join(2, 1.0, 0.1, 0.5);
  const cost::TableCostModel inner;
  const CountingCostModel counter(inner);
  const graph::NodeId single[] = {0};
  const graph::NodeId pair[] = {2, 3};
  EXPECT_DOUBLE_EQ(counter.stage_time(g, single), inner.stage_time(g, single));
  EXPECT_DOUBLE_EQ(counter.stage_time(g, pair), inner.stage_time(g, pair));
  EXPECT_DOUBLE_EQ(counter.demand(g, 0), inner.demand(g, 0));

  // Topology and per-GPU speed factors pass through too: transfers, stage
  // times per GPU, and whole schedules match the inner model bit for bit.
  models::RandomDagParams p;
  p.num_ops = 60;
  p.num_layers = 6;
  p.num_deps = 120;
  p.seed = 1;
  const graph::Graph dag = models::random_dag(p);
  cost::TableCostModel hier;
  hier.set_topology(cost::Topology::hierarchical(4, 2, cost::LinkClass{4.0, 0.05}));
  hier.set_speed_factors({1.0, 0.5, 2.0, 1.25});
  const CountingCostModel through(hier);
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      EXPECT_EQ(std::bit_cast<uint64_t>(through.transfer_time(dag, 0, src, dst)),
                std::bit_cast<uint64_t>(hier.transfer_time(dag, 0, src, dst)))
          << src << " -> " << dst;
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(through.stage_time_on(g, pair, src)),
              std::bit_cast<uint64_t>(hier.stage_time_on(g, pair, src)))
        << "gpu " << src;
  }
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  const auto lp = sched::make_scheduler("hios-lp");
  const sched::ScheduleResult direct = lp->schedule(dag, hier, config);
  const sched::ScheduleResult counted = lp->schedule(dag, through, config);
  EXPECT_EQ(counted.schedule.to_json(dag).dump(), direct.schedule.to_json(dag).dump());
  EXPECT_EQ(std::bit_cast<uint64_t>(counted.latency_ms), std::bit_cast<uint64_t>(direct.latency_ms))
      << counted.latency_ms << " vs " << direct.latency_ms;
}

TEST(Experiment, CountingModelDeduplicatesStages) {
  const graph::Graph g = models::make_fork_join(3, 1.0, 0.1, 0.5);
  const cost::TableCostModel inner;
  const CountingCostModel counter(inner);
  const graph::NodeId pair[] = {2, 3};
  const graph::NodeId pair_again[] = {2, 3};
  const graph::NodeId other[] = {2, 4};
  counter.stage_time(g, pair);
  counter.stage_time(g, pair_again);
  counter.stage_time(g, other);
  EXPECT_EQ(counter.distinct_stages(), 2u);
  EXPECT_GT(counter.measured_ms(), 0.0);
}

TEST(Experiment, SchedulingCostGrowsWithMeasurements) {
  const graph::Graph g = models::make_fork_join(3, 1.0, 0.1, 0.5);
  const cost::TableCostModel inner;
  const CountingCostModel idle(inner);
  const CountingCostModel busy(inner);
  const graph::NodeId pair[] = {2, 3};
  busy.stage_time(g, pair);
  const double idle_cost = scheduling_cost_minutes(g, idle, 0.0);
  const double busy_cost = scheduling_cost_minutes(g, busy, 0.0);
  EXPECT_GT(busy_cost, idle_cost);
  // Algorithm runtime contributes too.
  EXPECT_GT(scheduling_cost_minutes(g, idle, 60000.0), idle_cost + 0.9);
}

TEST(Experiment, SchedulingCostBaseIncludesOpsAndEdges) {
  const graph::Graph g = models::make_chain(3, 2.0, 0.5);
  const cost::TableCostModel inner;
  const CountingCostModel counter(inner);
  // 36 runs * (3 ops * 2ms + 2 edges * 0.5ms) = 36 * 7ms = 252ms
  EXPECT_NEAR(scheduling_cost_minutes(g, counter, 0.0, 36), 252.0 / 60000.0, 1e-12);
}

}  // namespace
}  // namespace hios::core
