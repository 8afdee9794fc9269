// Engine misuse and edge cases: kernel exceptions, bad node tags, idle
// vGPUs and repeated runs.
#include <gtest/gtest.h>

#include "cost/analytical_model.h"
#include "cost/table_model.h"
#include "models/examples.h"
#include "runtime/engine.h"
#include "sched/scheduler.h"

namespace hios::runtime {
namespace {

TEST(Engine, WorkerExceptionPropagatesToCaller) {
  // A graph node tagged with an *input* op id makes its kernel call throw;
  // the engine passes the exception to the caller.
  ops::Model model("bad");
  const ops::OpId in = model.add_input("x", ops::TensorShape{1, 1, 2, 2});
  model.add_op(ops::Op(ops::OpKind::kActivation, "r"), {in});

  graph::Graph g("bad-graph");
  g.add_node("r", 1.0, /*tag=*/0);  // tag 0 is the input placeholder: invalid
  sched::Schedule schedule(1);
  schedule.push_op(0, 0);
  const cost::TableCostModel cost;
  EXPECT_THROW(execute_schedule(model, g, schedule, cost), Error);
}

TEST(Engine, RejectsTagOutOfRange) {
  ops::Model model("tiny");
  const ops::OpId in = model.add_input("x", ops::TensorShape{1, 1, 2, 2});
  model.add_op(ops::Op(ops::OpKind::kActivation, "r"), {in});
  graph::Graph g("tagless");
  g.add_node("r", 1.0, /*tag=*/99);
  sched::Schedule schedule(1);
  schedule.push_op(0, 0);
  const cost::TableCostModel cost;
  EXPECT_THROW(execute_schedule(model, g, schedule, cost), Error);
}

TEST(Engine, RejectsModelEdgeMissingFromGraph) {
  // The model reads x -> r -> s, but the graph has nodes r and s and no
  // edge between them: nothing orders r before s or carries r's tensor to
  // s's vGPU. The engine must refuse before running, on one GPU as on two.
  ops::Model model("chain");
  const ops::OpId in = model.add_input("x", ops::TensorShape{1, 1, 2, 2});
  const ops::OpId r = model.add_op(ops::Op(ops::OpKind::kActivation, "r"), {in});
  model.add_op(ops::Op(ops::OpKind::kActivation, "s"), {r});
  graph::Graph g("edgeless");
  g.add_node("r", 1.0, /*tag=*/1);
  g.add_node("s", 1.0, /*tag=*/2);
  const cost::TableCostModel cost;
  for (const int gpus : {1, 2}) {
    sched::Schedule schedule(gpus);
    schedule.push_op(0, 0);
    schedule.push_op(gpus - 1, 1);
    try {
      execute_schedule(model, g, schedule, cost);
      ADD_FAILURE() << gpus << " GPU(s): a missing model edge must be rejected";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("op 's' reads op 'r'"), std::string::npos) << what;
    }
  }
}

TEST(Engine, ManyGpusFewOps) {
  // More vGPUs than operators: idle vGPUs simply have no stages.
  const ops::Model m = models::make_single_conv_model(16, 4);
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(6));
  sched::SchedulerConfig config;
  config.num_gpus = 6;
  const auto r = sched::make_scheduler("hios-lp")->schedule(pm.graph, *pm.cost, config);
  const auto run = execute_schedule(m, pm.graph, r.schedule, *pm.cost);
  EXPECT_EQ(run.outputs.size(), 1u);
  EXPECT_GT(run.latency_ms, 0.0);
}

TEST(Engine, RepeatedExecutionsStable) {
  // The virtual clock is a pure function of the schedule: every run of the
  // same schedule reports the same latency.
  const ops::Model m = [] {
    ops::Model model("fan");
    const ops::OpId in = model.add_input("x", ops::TensorShape{1, 4, 8, 8});
    std::vector<ops::OpId> branches;
    for (int i = 0; i < 6; ++i) {
      branches.push_back(model.add_op(
          ops::Op(ops::OpKind::kConv2d, std::string("b").append(std::to_string(i)),
                  ops::Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}),
          {in}));
    }
    model.add_op(ops::Op(ops::OpKind::kConcat, "cat"), branches);
    return model;
  }();
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(3));
  sched::SchedulerConfig config;
  config.num_gpus = 3;
  const auto r = sched::make_scheduler("hios-mr")->schedule(pm.graph, *pm.cost, config);
  double first = -1.0;
  for (int run_idx = 0; run_idx < 10; ++run_idx) {
    const auto run = execute_schedule(m, pm.graph, r.schedule, *pm.cost);
    if (first < 0) first = run.latency_ms;
    ASSERT_DOUBLE_EQ(run.latency_ms, first) << run_idx;
  }
}

}  // namespace
}  // namespace hios::runtime
