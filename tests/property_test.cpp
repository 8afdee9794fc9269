// Parameterised property suites: every scheduler, across random graphs,
// GPU counts, and cost models, must satisfy the core invariants.
#include <gtest/gtest.h>

#include "cost/table_model.h"
#include "graph/algorithms.h"
#include "models/random_dag.h"
#include "sched/evaluate.h"
#include "sched/scheduler.h"
#include "sched/validate.h"
#include "sim/event_sim.h"

namespace hios::sched {
namespace {

struct Case {
  std::string algorithm;
  uint64_t seed;
  int num_gpus;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  std::string alg = info.param.algorithm;
  for (char& c : alg)
    if (c == '-') c = '_';
  return alg + "_seed" + std::to_string(info.param.seed) + "_m" +
         std::to_string(info.param.num_gpus);
}

class SchedulerProperty : public testing::TestWithParam<Case> {
 protected:
  graph::Graph make_graph() const {
    models::RandomDagParams p;
    p.num_ops = 48;
    p.num_layers = 7;
    p.num_deps = 96;
    p.seed = GetParam().seed;
    return models::random_dag(p);
  }
};

TEST_P(SchedulerProperty, ProducesValidSchedule) {
  const graph::Graph g = make_graph();
  const cost::TableCostModel cost;
  SchedulerConfig config;
  config.num_gpus = GetParam().num_gpus;
  const auto r = make_scheduler(GetParam().algorithm)->schedule(g, cost, config);
  EXPECT_TRUE(validate_schedule(g, r.schedule).empty());
  EXPECT_EQ(r.schedule.num_ops(), g.num_nodes());
}

TEST_P(SchedulerProperty, LatencyWithinTheoreticalBounds) {
  const graph::Graph g = make_graph();
  const cost::TableCostModel cost;
  SchedulerConfig config;
  config.num_gpus = GetParam().num_gpus;
  const auto r = make_scheduler(GetParam().algorithm)->schedule(g, cost, config);
  // Lower bound: critical path (node weights only, all co-located).
  EXPECT_GE(r.latency_ms, graph::critical_path_length(g, false) - 1e-9);
  // Upper bound: sequential execution plus contention slack.
  const double seq = g.total_node_weight();
  EXPECT_LE(r.latency_ms, seq * 1.5 + 1e-9);
}

TEST_P(SchedulerProperty, ReportedLatencyMatchesEvaluator) {
  const graph::Graph g = make_graph();
  const cost::TableCostModel cost;
  SchedulerConfig config;
  config.num_gpus = GetParam().num_gpus;
  const auto r = make_scheduler(GetParam().algorithm)->schedule(g, cost, config);
  const auto eval = evaluate_schedule(g, r.schedule, cost);
  ASSERT_TRUE(eval.has_value());
  EXPECT_NEAR(eval->latency_ms, r.latency_ms, 1e-9);
}

TEST_P(SchedulerProperty, OpLevelSimulationNeverSlower) {
  // The paper's "tight upper bound" claim: relaxing the common-start
  // assumption can only reduce latency.
  const graph::Graph g = make_graph();
  const cost::TableCostModel cost;
  SchedulerConfig config;
  config.num_gpus = GetParam().num_gpus;
  const auto r = make_scheduler(GetParam().algorithm)->schedule(g, cost, config);
  const auto stage_tl = sim::simulate_stages(g, r.schedule, cost);
  const auto op_tl = sim::simulate_ops(g, r.schedule, cost);
  ASSERT_TRUE(stage_tl.has_value());
  ASSERT_TRUE(op_tl.has_value());
  EXPECT_LE(op_tl->latency_ms, stage_tl->latency_ms + 1e-9);
}

TEST_P(SchedulerProperty, DeterministicAcrossRuns) {
  const graph::Graph g = make_graph();
  const cost::TableCostModel cost;
  SchedulerConfig config;
  config.num_gpus = GetParam().num_gpus;
  const auto a = make_scheduler(GetParam().algorithm)->schedule(g, cost, config);
  const auto b = make_scheduler(GetParam().algorithm)->schedule(g, cost, config);
  EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.schedule.gpu_assignment(g.num_nodes()),
            b.schedule.gpu_assignment(g.num_nodes()));
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  for (const char* alg : {"sequential", "ios", "hios-lp", "hios-mr", "inter-lp", "inter-mr"}) {
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
      for (int m : {2, 4}) {
        cases.push_back(Case{alg, seed, m});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SchedulerProperty, testing::ValuesIn(make_cases()),
                         case_name);

// ----------------------------------------------------------------------
// Window-size sweep: larger Alg. 2 windows never hurt HIOS-LP.

class WindowProperty : public testing::TestWithParam<int> {};

TEST_P(WindowProperty, WidestStageRespectsWindow) {
  models::RandomDagParams p;
  p.num_ops = 40;
  p.num_layers = 5;
  p.num_deps = 70;
  p.seed = 11;
  const graph::Graph g = models::random_dag(p);
  const cost::TableCostModel cost;
  SchedulerConfig config;
  config.num_gpus = 2;
  config.window = GetParam();
  const auto r = make_scheduler("hios-lp")->schedule(g, cost, config);
  for (const auto& gpu : r.schedule.gpus) {
    for (const Stage& stage : gpu) {
      EXPECT_LE(stage.ops.size(), static_cast<std::size_t>(std::max(1, GetParam())));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowProperty, testing::Values(1, 2, 3, 4, 6));

// ----------------------------------------------------------------------
// Communication-ratio sweep: HIOS-LP's advantage over sequential shrinks
// as transfers get more expensive (paper Fig. 11 trend).

class CommRatioProperty : public testing::TestWithParam<double> {};

TEST_P(CommRatioProperty, SpeedupPositiveAndBounded) {
  models::RandomDagParams p;
  p.num_ops = 60;
  p.num_layers = 8;
  p.num_deps = 120;
  p.comm_ratio = GetParam();
  p.seed = 4;
  const graph::Graph g = models::random_dag(p);
  const cost::TableCostModel cost;
  SchedulerConfig config;
  config.num_gpus = 4;
  const auto seq = make_scheduler("sequential")->schedule(g, cost, config);
  const auto lp = make_scheduler("hios-lp")->schedule(g, cost, config);
  const double speedup = seq.latency_ms / lp.latency_ms;
  EXPECT_GE(speedup, 1.0 - 1e-9);
  EXPECT_LE(speedup, static_cast<double>(config.num_gpus) * 1.2);
}

INSTANTIATE_TEST_SUITE_P(CommRatios, CommRatioProperty,
                         testing::Values(0.4, 0.6, 0.8, 1.0, 1.2));

}  // namespace
}  // namespace hios::sched
