// Cross-module integration suite: every zoo model through the full
// pipeline under every scheduling algorithm, checking the invariant chain
// model -> profile -> schedule -> validate -> simulate (both fidelities).
#include <gtest/gtest.h>

#include "core/hios.h"

namespace hios {
namespace {

struct Case {
  std::string model;
  std::string algorithm;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  std::string s = info.param.model + "_" + info.param.algorithm;
  for (char& c : s)
    if (c == '-') c = '_';
  return s;
}

ops::Model build_model(const std::string& name) {
  // Moderate configurations keep IOS's DP subsecond per case.
  if (name == "inception") {
    models::InceptionV3Options opt;
    opt.image_hw = 299;
    return models::make_inception_v3(opt);
  }
  if (name == "nasnet") {
    models::NasnetOptions opt;
    opt.image_hw = 331;
    opt.cells_per_stack = 2;
    return models::make_nasnet(opt);
  }
  if (name == "resnet") return models::make_resnet50();
  if (name == "squeezenet") return models::make_squeezenet();
  if (name == "randwire") return models::make_randwire();
  throw Error("unknown model " + name);
}

class PipelineIntegration : public testing::TestWithParam<Case> {};

TEST_P(PipelineIntegration, FullChainInvariantsHold) {
  const ops::Model model = build_model(GetParam().model);
  const cost::ProfiledModel pm = cost::profile_model(model, cost::make_dual_a40_nvlink());

  // Profiled weights are all positive and finite.
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(pm.graph.num_nodes()); ++v) {
    ASSERT_GT(pm.graph.node_weight(v), 0.0);
    ASSERT_LT(pm.graph.node_weight(v), 1e4);
  }
  for (const auto& e : pm.graph.edges()) ASSERT_GT(e.weight, 0.0);

  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const auto result =
      sched::make_scheduler(GetParam().algorithm)->schedule(pm.graph, *pm.cost, config);

  // Valid, complete, and evaluator-consistent.
  EXPECT_TRUE(sched::validate_schedule(pm.graph, result.schedule).empty());
  EXPECT_EQ(result.schedule.num_ops(), pm.graph.num_nodes());
  const auto eval = sched::evaluate_schedule(pm.graph, result.schedule, *pm.cost);
  ASSERT_TRUE(eval.has_value());
  EXPECT_NEAR(eval->latency_ms, result.latency_ms, 1e-9);

  // Latency bounded by [critical path, sequential * contention slack].
  EXPECT_GE(result.latency_ms, graph::critical_path_length(pm.graph, false) - 1e-9);
  EXPECT_LE(result.latency_ms, pm.graph.total_node_weight() * 1.5);

  // Op-level relaxation never slower than the stage model.
  const auto stage_tl = sim::simulate_stages(pm.graph, result.schedule, *pm.cost);
  const auto op_tl = sim::simulate_ops(pm.graph, result.schedule, *pm.cost);
  ASSERT_TRUE(stage_tl && op_tl);
  EXPECT_LE(op_tl->latency_ms, stage_tl->latency_ms + 1e-9);

  // Schedule JSON round-trips to an equivalent, equally-valid schedule.
  const auto back = sched::Schedule::from_json(
      Json::parse(result.schedule.to_json(pm.graph).dump()));
  EXPECT_TRUE(sched::validate_schedule(pm.graph, back).empty());
  const auto eval_back = sched::evaluate_schedule(pm.graph, back, *pm.cost);
  ASSERT_TRUE(eval_back.has_value());
  EXPECT_NEAR(eval_back->latency_ms, result.latency_ms, 1e-9);
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  for (const char* model : {"inception", "nasnet", "resnet", "squeezenet", "randwire"})
    for (const char* alg : {"sequential", "ios", "hios-lp", "hios-mr", "inter-lp", "inter-mr"})
      cases.push_back(Case{model, alg});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ZooTimesAlgorithms, PipelineIntegration,
                         testing::ValuesIn(make_cases()), case_name);

// ----------------------------------------------------------------------
// Multi-benchmark sanity: HIOS beats sequential on every zoo model at the
// model's native size with 2 GPUs (the paper's headline premise).

TEST(Integration, HiosLpBeatsSequentialAcrossZoo) {
  for (const char* name : {"inception", "nasnet", "resnet", "squeezenet"}) {
    const ops::Model model = build_model(name);
    const cost::ProfiledModel pm = cost::profile_model(model, cost::make_dual_a40_nvlink());
    sched::SchedulerConfig config;
    config.num_gpus = 2;
    const auto seq = sched::make_scheduler("sequential")->schedule(pm.graph, *pm.cost, config);
    const auto lp = sched::make_scheduler("hios-lp")->schedule(pm.graph, *pm.cost, config);
    EXPECT_LT(lp.latency_ms, seq.latency_ms) << name;
  }
}

TEST(Integration, SchedulingCostOrderingMatchesFig14) {
  // IOS's profiling burden must exceed HIOS-LP's and HIOS-MR's on a real
  // model (it measures vastly more candidate concurrent groups).
  const ops::Model model = build_model("inception");
  const cost::ProfiledModel pm = cost::profile_model(model, cost::make_dual_a40_nvlink());
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  std::map<std::string, double> minutes;
  for (const char* alg : {"ios", "hios-lp", "hios-mr"}) {
    const core::CountingCostModel counter(*pm.cost);
    const auto r = sched::make_scheduler(alg)->schedule(pm.graph, counter, config);
    minutes[alg] = core::scheduling_cost_minutes(pm.graph, counter, r.scheduling_ms);
  }
  EXPECT_GT(minutes["ios"], minutes["hios-lp"]);
  EXPECT_GT(minutes["ios"], minutes["hios-mr"]);
}

}  // namespace
}  // namespace hios
