// Tests for the extended model zoo: ResNet-50, SqueezeNet, RandWire —
// structure, determinism, schedulability, end-to-end execution, and the
// add-time structural hashes of every zoo model.
#include <gtest/gtest.h>

#include "cost/analytical_model.h"
#include "graph/algorithms.h"
#include "models/inception.h"
#include "models/nasnet.h"
#include "models/randwire.h"
#include "models/resnet.h"
#include "models/squeezenet.h"
#include "oracles/oracles.h"
#include "runtime/engine.h"
#include "sched/scheduler.h"
#include "sched/validate.h"

namespace hios::models {
namespace {

TEST(Resnet50, LockedStructure) {
  const ops::Model m = make_resnet50();
  // stem(2) + 16 bottlenecks(4 ops) + 4 projection convs + global pool.
  EXPECT_EQ(m.num_compute_ops(), 2 + 16 * 4 + 4 + 1);
  EXPECT_TRUE(graph::is_dag(m.to_graph()));
  EXPECT_EQ(m.to_graph().sinks().size(), 1u);
}

TEST(Resnet50, SkipEdgesPresent) {
  // Residual adds consume two distinct producers -> in-degree 2 nodes.
  const graph::Graph g = make_resnet50().to_graph();
  int in2 = 0;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes()); ++v)
    if (g.in_degree(v) == 2) ++in2;
  EXPECT_EQ(in2, 16);  // one add per bottleneck
}

TEST(Resnet50, ShapesFlowCorrectly) {
  const ops::Model m = make_resnet50();
  // Final feature map before global pool must have 2048 channels.
  const auto& shape = m.output_shape(m.num_ops() - 2);
  EXPECT_EQ(shape.c, 2048);
  EXPECT_EQ(m.output_shape(m.num_ops() - 1), (ops::TensorShape{1, 2048, 1, 1}));
}

TEST(Resnet50, SchedulableOnTwoGpus) {
  const ops::Model m = make_resnet50();
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_dual_a40_nvlink());
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  for (const char* alg : {"hios-lp", "hios-mr"}) {
    const auto r = sched::make_scheduler(alg)->schedule(pm.graph, *pm.cost, config);
    EXPECT_TRUE(sched::validate_schedule(pm.graph, r.schedule).empty()) << alg;
  }
}

TEST(Resnet50, TooSmallInputThrows) {
  ResnetOptions opt;
  opt.image_hw = 16;
  EXPECT_THROW(make_resnet50(opt), Error);
}

TEST(Squeezenet, LockedStructure) {
  const ops::Model m = make_squeezenet();
  // stem conv + 3 pools + 8 fires * 4 + classifier conv + global pool.
  EXPECT_EQ(m.num_compute_ops(), 1 + 3 + 8 * 4 + 1 + 1);
  EXPECT_TRUE(graph::is_dag(m.to_graph()));
}

TEST(Squeezenet, FireModulesBranch) {
  const graph::Graph g = make_squeezenet().to_graph();
  // Each fire squeeze feeds two expands: 8 nodes with out-degree 2.
  int out2 = 0;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes()); ++v)
    if (g.out_degree(v) == 2) ++out2;
  EXPECT_EQ(out2, 8);
}

TEST(Squeezenet, TinyEndToEndExecution) {
  SqueezenetOptions opt;
  opt.image_hw = 48;
  opt.channel_scale = 8;
  const ops::Model m = make_squeezenet(opt);
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(2));
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const auto r = sched::make_scheduler("hios-lp")->schedule(pm.graph, *pm.cost, config);
  const auto run = runtime::execute_schedule(m, pm.graph, r.schedule, *pm.cost);
  const auto ref = runtime::execute_reference(m);
  for (const auto& [op_id, tensor] : run.outputs) {
    const auto& expect = ref.at(op_id);
    for (std::size_t i = 0; i < tensor.size(); ++i)
      ASSERT_EQ(tensor.data()[i], expect.data()[i]);
  }
}

TEST(Randwire, DeterministicPerSeed) {
  RandwireOptions opt;
  opt.image_hw = 64;
  opt.channel_scale = 8;
  opt.seed = 5;
  const ops::Model a = make_randwire(opt);
  const ops::Model b = make_randwire(opt);
  EXPECT_EQ(a.num_compute_ops(), b.num_compute_ops());
  EXPECT_EQ(a.num_compute_deps(), b.num_compute_deps());
  opt.seed = 6;
  const ops::Model c = make_randwire(opt);
  // Different wiring (node/edge counts almost surely differ via adds).
  EXPECT_TRUE(a.num_compute_ops() != c.num_compute_ops() ||
              a.num_compute_deps() != c.num_compute_deps());
}

TEST(Randwire, AlwaysAcyclicAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandwireOptions opt;
    opt.image_hw = 64;
    opt.channel_scale = 8;
    opt.seed = seed;
    const ops::Model m = make_randwire(opt);
    EXPECT_TRUE(graph::is_dag(m.to_graph())) << seed;
    EXPECT_GE(m.num_compute_ops(), opt.num_nodes) << seed;
  }
}

TEST(Randwire, TinyEndToEndExecution) {
  RandwireOptions opt;
  opt.image_hw = 32;
  opt.num_nodes = 12;
  opt.channel_scale = 16;
  opt.seed = 3;
  const ops::Model m = make_randwire(opt);
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(2));
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const auto r = sched::make_scheduler("hios-mr")->schedule(pm.graph, *pm.cost, config);
  const auto run = runtime::execute_schedule(m, pm.graph, r.schedule, *pm.cost);
  const auto ref = runtime::execute_reference(m);
  ASSERT_FALSE(run.outputs.empty());
  for (const auto& [op_id, tensor] : run.outputs) {
    const auto& expect = ref.at(op_id);
    for (std::size_t i = 0; i < tensor.size(); ++i)
      ASSERT_EQ(tensor.data()[i], expect.data()[i]);
  }
}

TEST(Randwire, OptionValidation) {
  RandwireOptions opt;
  opt.ws_k = 3;  // must be even
  EXPECT_THROW(make_randwire(opt), Error);
  opt = {};
  opt.num_nodes = 1;
  EXPECT_THROW(make_randwire(opt), Error);
  opt = {};
  opt.ws_p = 1.5;
  EXPECT_THROW(make_randwire(opt), Error);
}

void expect_hashes_match_walk(const ops::Model& m) {
  const oracle::ModelHashes walk = oracle::model_hashes(m);
  EXPECT_EQ(m.fingerprint(), walk.fingerprint) << m.name();
  EXPECT_EQ(m.fingerprint_check(), walk.check) << m.name();
}

// The hashes kept at add time equal a from-scratch walk of the encoding.
TEST(ModelFingerprint, AddTimeHashesMatchScratchWalk) {
  expect_hashes_match_walk(make_nasnet());
  expect_hashes_match_walk(make_inception_v3());
  expect_hashes_match_walk(make_resnet50());
  expect_hashes_match_walk(make_squeezenet());
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RandwireOptions opt;
    opt.seed = seed;
    expect_hashes_match_walk(make_randwire(opt));
  }
}

}  // namespace
}  // namespace hios::models
