// End-to-end tests for the virtual-GPU engine: scheduled execution must
// compute exactly the tensors of sequential reference execution, and its
// virtual clock must equal the scheduler's and the stage-level evaluator's
// bit for bit.
#include <gtest/gtest.h>

#include <cstring>

#include "cost/analytical_model.h"
#include "models/examples.h"
#include "models/inception.h"
#include "models/nasnet.h"
#include "runtime/engine.h"
#include "sched/evaluate.h"
#include "sched/scheduler.h"

namespace hios::runtime {
namespace {

ops::Model tiny_branchy_model() {
  using namespace ops;
  Model m("branchy");
  const OpId in = m.add_input("x", TensorShape{1, 4, 8, 8});
  const OpId c1 = m.add_op(Op(OpKind::kConv2d, "c1", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  const OpId c2 = m.add_op(Op(OpKind::kConv2d, "c2", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  const OpId p1 = m.add_op(Op(OpKind::kPool2d, "p1", Pool2dAttr{PoolMode::kMax, 2, 2, 2, 2, 0, 0}), {c1});
  const OpId p2 = m.add_op(Op(OpKind::kPool2d, "p2", Pool2dAttr{PoolMode::kAvg, 2, 2, 2, 2, 0, 0}), {c2});
  const OpId cat = m.add_op(Op(OpKind::kConcat, "cat"), {p1, p2});
  const OpId add = m.add_op(Op(OpKind::kEltwise, "add"), {cat, cat});
  m.add_op(Op(OpKind::kGlobalPool, "gp"), {add});
  return m;
}

void expect_outputs_match_reference(const ops::Model& model, const std::string& algorithm,
                                    int num_gpus) {
  const cost::ProfiledModel pm = cost::profile_model(model, cost::make_a40_server(num_gpus));
  sched::SchedulerConfig config;
  config.num_gpus = num_gpus;
  const auto result = sched::make_scheduler(algorithm)->schedule(pm.graph, *pm.cost, config);

  const ExecutionResult run = execute_schedule(model, pm.graph, result.schedule, *pm.cost);
  const auto reference = execute_reference(model);

  // Every sink op's tensor must be bit-identical to the reference.
  ASSERT_FALSE(run.outputs.empty());
  for (const auto& [op_id, tensor] : run.outputs) {
    const auto it = reference.find(op_id);
    ASSERT_NE(it, reference.end());
    ASSERT_EQ(tensor.shape(), it->second.shape());
    for (std::size_t i = 0; i < tensor.size(); ++i) {
      ASSERT_EQ(tensor.data()[i], it->second.data()[i])
          << "op " << op_id << " elem " << i << " alg " << algorithm;
    }
  }

  // Virtual clock equals the scheduler's and the stage-level evaluator's.
  const auto eval = sched::evaluate_schedule(pm.graph, result.schedule, *pm.cost);
  ASSERT_TRUE(eval.has_value());
  EXPECT_EQ(std::memcmp(&run.latency_ms, &eval->latency_ms, sizeof(double)), 0)
      << run.latency_ms << " vs " << eval->latency_ms << " alg " << algorithm;
  EXPECT_EQ(std::memcmp(&run.latency_ms, &result.latency_ms, sizeof(double)), 0)
      << run.latency_ms << " vs " << result.latency_ms << " alg " << algorithm;
}

TEST(Engine, BranchyModelAllAlgorithmsTwoGpus) {
  const ops::Model m = tiny_branchy_model();
  for (const char* alg : {"sequential", "ios", "hios-lp", "hios-mr"}) {
    expect_outputs_match_reference(m, alg, 2);
  }
}

TEST(Engine, BranchyModelFourGpus) {
  expect_outputs_match_reference(tiny_branchy_model(), "hios-lp", 4);
}

TEST(Engine, TinyInceptionEndToEnd) {
  models::InceptionV3Options opt;
  opt.image_hw = 96;
  opt.channel_scale = 16;
  expect_outputs_match_reference(models::make_inception_v3(opt), "hios-lp", 2);
}

TEST(Engine, TinyNasnetEndToEnd) {
  models::NasnetOptions opt;
  opt.image_hw = 32;
  opt.cells_per_stack = 1;
  opt.channel_scale = 64;
  expect_outputs_match_reference(models::make_nasnet(opt), "hios-mr", 2);
}

TEST(Engine, DeterministicAcrossRuns) {
  const ops::Model m = tiny_branchy_model();
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(2));
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const auto r = sched::make_scheduler("hios-lp")->schedule(pm.graph, *pm.cost, config);
  const ExecutionResult a = execute_schedule(m, pm.graph, r.schedule, *pm.cost);
  const ExecutionResult b = execute_schedule(m, pm.graph, r.schedule, *pm.cost);
  EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms);
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (const auto& [op_id, tensor] : a.outputs) {
    const auto& other = b.outputs.at(op_id);
    for (std::size_t i = 0; i < tensor.size(); ++i)
      ASSERT_EQ(tensor.data()[i], other.data()[i]);
  }
}

TEST(Engine, CustomInputsPropagate) {
  const ops::Model m = tiny_branchy_model();
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(2));
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const auto r = sched::make_scheduler("hios-lp")->schedule(pm.graph, *pm.cost, config);

  std::map<ops::OpId, ops::Tensor> custom;
  ops::Tensor x(m.output_shape(0));
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = 0.25f;
  custom.emplace(0, x);

  const ExecutionResult with_custom = execute_schedule(m, pm.graph, r.schedule, *pm.cost, custom);
  const ExecutionResult with_default = execute_schedule(m, pm.graph, r.schedule, *pm.cost);
  const auto& a = with_custom.outputs.begin()->second;
  const auto& b = with_default.outputs.begin()->second;
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) differs = a.data()[i] != b.data()[i];
  EXPECT_TRUE(differs);

  // And matches the reference run with the same inputs.
  const auto ref = execute_reference(m, custom);
  for (const auto& [op_id, tensor] : with_custom.outputs) {
    const auto& expect = ref.at(op_id);
    for (std::size_t i = 0; i < tensor.size(); ++i)
      ASSERT_EQ(tensor.data()[i], expect.data()[i]);
  }
}

TEST(Engine, TimelineCoversAllOpsAndTransfers) {
  const ops::Model m = tiny_branchy_model();
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(2));
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const auto r = sched::make_scheduler("hios-lp")->schedule(pm.graph, *pm.cost, config);
  const ExecutionResult run = execute_schedule(m, pm.graph, r.schedule, *pm.cost);
  std::size_t compute = 0;
  for (const auto& e : run.timeline.events)
    if (e.kind == sim::TimelineEvent::Kind::kCompute) ++compute;
  EXPECT_EQ(compute, pm.graph.num_nodes());
}

TEST(Engine, InvalidScheduleRejected) {
  const ops::Model m = tiny_branchy_model();
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(2));
  sched::Schedule bad(2);  // empty: misses every op
  EXPECT_THROW(execute_schedule(m, pm.graph, bad, *pm.cost), Error);
}

TEST(Engine, MakeInputTensorDeterministic) {
  const ops::Model m = tiny_branchy_model();
  const ops::Tensor a = make_input_tensor(m, 0);
  const ops::Tensor b = make_input_tensor(m, 0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a.data()[i], b.data()[i]);
  EXPECT_THROW(make_input_tensor(m, 1), Error);  // not an input op
}

TEST(Reference, ComputesEveryOp) {
  const ops::Model m = tiny_branchy_model();
  const auto ref = execute_reference(m);
  EXPECT_EQ(ref.size(), static_cast<std::size_t>(m.num_compute_ops()));
}

}  // namespace
}  // namespace hios::runtime
