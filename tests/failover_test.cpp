// Fault-tolerant execution: fail-stop mid-run recovers via failover
// rescheduling with bit-identical outputs, permanent faults terminate with
// structured errors (never hangs), and the threaded engine agrees with the
// fault-aware simulator on every post-fault timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "cost/analytical_model.h"
#include "models/examples.h"
#include "models/inception.h"
#include "models/nasnet.h"
#include "oracles/oracles.h"
#include "runtime/engine.h"
#include "runtime/failover.h"
#include "sched/evaluate.h"
#include "sched/scheduler.h"
#include "sim/event_sim.h"

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

/// A 3-op activation chain whose schedule ping-pongs between two GPUs, so
/// both cross transfers ride the (0,1) link.
ops::Model chain3_model() {
  using namespace ops;
  Model m("chain3");
  const OpId in = m.add_input("x", TensorShape{1, 2, 4, 4});
  const OpId a = m.add_op(Op(OpKind::kActivation, "a"), {in});
  const OpId b = m.add_op(Op(OpKind::kActivation, "b"), {a});
  m.add_op(Op(OpKind::kActivation, "c"), {b});
  return m;
}

void expect_matches_reference(const ops::Model& model,
                              const std::map<ops::OpId, ops::Tensor>& outputs) {
  const auto reference = execute_reference(model);
  ASSERT_FALSE(outputs.empty());
  for (const auto& [op_id, tensor] : outputs) {
    const auto it = reference.find(op_id);
    ASSERT_NE(it, reference.end());
    ASSERT_EQ(tensor.shape(), it->second.shape());
    for (std::size_t i = 0; i < tensor.size(); ++i)
      ASSERT_EQ(tensor.data()[i], it->second.data()[i]) << "op " << op_id << " elem " << i;
  }
}

void expect_failover_recovers(const ops::Model& model, int num_gpus,
                              const std::string& algorithm) {
  const cost::ProfiledModel pm = cost::profile_model(model, cost::make_a40_server(num_gpus));
  sched::SchedulerConfig config;
  config.num_gpus = num_gpus;
  const auto planned =
      sched::make_scheduler(algorithm)->schedule(pm.graph, *pm.cost, config);

  // Kill the busiest GPU halfway through its own stage list (stages are
  // blocked when they *start* at/after the fail time): some of its tensors
  // exist (and are lost), some of its work never runs.
  const auto fault_free = sim::simulate_stages(pm.graph, planned.schedule, *pm.cost);
  ASSERT_TRUE(fault_free.has_value());
  std::vector<std::vector<double>> starts(static_cast<std::size_t>(num_gpus));
  for (const auto& e : fault_free->events)
    if (e.kind == sim::TimelineEvent::Kind::kCompute)
      starts[static_cast<std::size_t>(e.gpu)].push_back(e.start_ms);
  int failed_gpu = 0;
  for (int g = 1; g < num_gpus; ++g)
    if (starts[static_cast<std::size_t>(g)].size() >
        starts[static_cast<std::size_t>(failed_gpu)].size())
      failed_gpu = g;
  std::vector<double>& victim_starts = starts[static_cast<std::size_t>(failed_gpu)];
  ASSERT_GT(victim_starts.size(), 1u) << "no GPU has two stages to lose";
  std::sort(victim_starts.begin(), victim_starts.end());
  fault::FaultPlan plan;
  plan.fail_stops.push_back(
      fault::FailStop{failed_gpu, victim_starts[victim_starts.size() / 2]});

  FailoverOptions options;
  options.algorithm = algorithm;
  const FailoverResult run = execute_with_failover(model, pm.graph, planned.schedule,
                                                   pm.cost, plan, {}, options);

  ASSERT_FALSE(run.primary.complete);  // the fault really struck mid-run
  EXPECT_TRUE(run.metrics.fault_occurred);
  EXPECT_TRUE(run.metrics.recovered);
  EXPECT_EQ(run.metrics.failed_gpus, std::vector<int>{failed_gpu});
  EXPECT_EQ(run.metrics.surviving_gpus.size(), static_cast<std::size_t>(num_gpus - 1));
  EXPECT_GT(run.metrics.ops_rescheduled, 0u);
  EXPECT_GT(run.metrics.residual_latency_ms, 0.0);
  EXPECT_DOUBLE_EQ(run.metrics.degraded_makespan_ms,
                   run.metrics.detection_ms + run.metrics.residual_latency_ms);
  EXPECT_DOUBLE_EQ(run.total_latency_ms, run.metrics.degraded_makespan_ms);

  // The recovery schedule lives on surviving GPUs only and covers exactly
  // the residual ops.
  EXPECT_TRUE(run.recovery_schedule.gpus[static_cast<std::size_t>(failed_gpu)].empty());
  EXPECT_EQ(run.recovery_schedule.num_ops(), run.metrics.ops_rescheduled);

  // Failover is transparent: merged outputs == sequential reference.
  expect_matches_reference(model, run.outputs);
}

TEST(Failover, FailStopMidRunInceptionMatchesReference) {
  models::InceptionV3Options opt;
  opt.image_hw = 96;
  opt.channel_scale = 16;
  expect_failover_recovers(models::make_inception_v3(opt), 3, "hios-lp");
}

TEST(Failover, FailStopMidRunNasnetMatchesReference) {
  models::NasnetOptions opt;
  opt.image_hw = 32;
  opt.cells_per_stack = 1;
  opt.channel_scale = 64;
  // Two GPUs, one dies: recovery runs on the single survivor.
  expect_failover_recovers(models::make_nasnet(opt), 2, "hios-mr");
}

TEST(Failover, CompletePrimaryRunShortCircuits) {
  const ops::Model m = tiny_branchy_model();
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(2));
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const auto planned = sched::make_scheduler("hios-lp")->schedule(pm.graph, *pm.cost, config);

  const fault::FaultPlan benign;  // no events at all
  const FailoverResult run =
      execute_with_failover(m, pm.graph, planned.schedule, pm.cost, benign);
  EXPECT_TRUE(run.primary.complete);
  EXPECT_FALSE(run.metrics.fault_occurred);
  EXPECT_TRUE(run.metrics.recovered);
  EXPECT_EQ(run.metrics.ops_rescheduled, 0u);
  EXPECT_DOUBLE_EQ(run.total_latency_ms, run.primary.latency_ms);
  expect_matches_reference(m, run.outputs);
}

/// Builds the ping-pong schedule of chain3_model: a on GPU 0, b on GPU 1,
/// c back on GPU 0 — both edges cross the (0,1) link.
struct PingPong {
  cost::ProfiledModel pm;
  sched::Schedule schedule;
};

PingPong make_ping_pong(const ops::Model& m) {
  PingPong pp{cost::profile_model(m, cost::make_a40_server(2)), sched::Schedule(2)};
  pp.schedule.push_op(0, 0);
  pp.schedule.push_op(1, 1);
  pp.schedule.push_op(0, 2);
  return pp;
}

TEST(Failover, PermanentLinkDownThrowsStructuredErrorNotHang) {
  const ops::Model m = chain3_model();
  const PingPong pp = make_ping_pong(m);

  fault::FaultPlan plan;
  plan.retry = fault::RetryPolicy{3, 0.5, 2.0, 4.0};
  plan.link_faults.push_back(fault::LinkFault{0, 1, 0.0, fault::kNever, /*down=*/true});

  ExecOptions options;
  options.faults = &plan;
  options.watchdog_ms = 30000.0;
  const auto started = std::chrono::steady_clock::now();
  try {
    execute_schedule(m, pp.pm.graph, pp.schedule, *pp.pm.cost, {}, options);
    FAIL() << "exhausted retry budget must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("incomplete under fault injection"), std::string::npos) << what;
    EXPECT_NE(what.find("failed after 3 attempts"), std::string::npos) << what;
  }
  // Terminated through the closed-channel protocol, not the watchdog.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - started)
                .count(),
            10000);
}

TEST(Failover, LinkDownRecoveryReschedulesAroundTheLink) {
  const ops::Model m = chain3_model();
  const PingPong pp = make_ping_pong(m);

  fault::FaultPlan plan;
  plan.retry = fault::RetryPolicy{2, 0.25, 2.0, 1.0};
  plan.link_faults.push_back(fault::LinkFault{0, 1, 0.0, fault::kNever, /*down=*/true});

  const FailoverResult run =
      execute_with_failover(m, pp.pm.graph, pp.schedule, pp.pm.cost, plan);
  ASSERT_FALSE(run.primary.complete);
  EXPECT_TRUE(run.metrics.recovered);
  // No GPU died — the *link* did; both GPUs survive and the degraded
  // topology's prohibitive latency steers the rescheduler off the link.
  EXPECT_TRUE(run.metrics.failed_gpus.empty());
  EXPECT_EQ(run.metrics.surviving_gpus.size(), 2u);
  EXPECT_LT(run.metrics.degraded_makespan_ms, 1e6);  // avoided the 1e9 penalty
  expect_matches_reference(m, run.outputs);
}

TEST(Failover, TransientLinkFaultRetriesAndCompletes) {
  const ops::Model m = chain3_model();
  const PingPong pp = make_ping_pong(m);
  const auto eval = sched::evaluate_schedule(pp.pm.graph, pp.schedule, *pp.pm.cost);
  ASSERT_TRUE(eval.has_value());

  // Outage from t=0 shorter than the retry budget: delivery is delayed,
  // never lost.
  fault::FaultPlan plan;
  plan.retry = fault::RetryPolicy{6, 0.5, 2.0, 4.0};
  plan.link_faults.push_back(fault::LinkFault{0, 1, 0.0, 1.4, /*down=*/true});

  ExecOptions options;
  options.faults = &plan;
  const ExecutionResult run =
      execute_schedule(m, pp.pm.graph, pp.schedule, *pp.pm.cost, {}, options);
  EXPECT_TRUE(run.complete);
  EXPECT_GT(run.latency_ms, eval->latency_ms);  // backoff shows up in the clock
  std::size_t retries = 0;
  for (const auto& e : run.timeline.events)
    if (e.kind == sim::TimelineEvent::Kind::kRetry) ++retries;
  EXPECT_GT(retries, 0u);
  expect_matches_reference(m, run.outputs);
}

TEST(Failover, StragglerSlowsTheRunButCompletes) {
  const ops::Model m = tiny_branchy_model();
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(2));
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const auto planned = sched::make_scheduler("hios-lp")->schedule(pm.graph, *pm.cost, config);

  fault::FaultPlan plan;
  plan.stragglers.push_back(fault::Straggler{0, 0.0, 4.0});
  plan.stragglers.push_back(fault::Straggler{1, 0.0, 4.0});

  ExecOptions options;
  options.faults = &plan;
  const ExecutionResult run =
      execute_schedule(m, pm.graph, planned.schedule, *pm.cost, {}, options);
  EXPECT_TRUE(run.complete);
  EXPECT_GT(run.latency_ms, planned.latency_ms * 2.0);
  expect_matches_reference(m, run.outputs);
}

TEST(Failover, EngineAndSimulatorAgreeOnFaultyRuns) {
  const ops::Model m = tiny_branchy_model();
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(3));
  sched::SchedulerConfig config;
  config.num_gpus = 3;
  const auto planned = sched::make_scheduler("hios-lp")->schedule(pm.graph, *pm.cost, config);

  fault::FaultPlan::RandomParams params;
  params.num_gpus = 3;
  params.horizon_ms = planned.latency_ms;
  params.num_fail_stops = 1;
  params.num_link_faults = 2;
  params.num_stragglers = 1;

  for (uint64_t seed = 0; seed < 8; ++seed) {
    const fault::FaultPlan plan = fault::FaultPlan::random(params, seed);
    ExecOptions options;
    options.faults = &plan;
    options.allow_partial = true;
    const ExecutionResult engine =
        execute_schedule(m, pm.graph, planned.schedule, *pm.cost, {}, options);
    const oracle::FaultyRun sim =
        oracle::simulate_stages_faulty(pm.graph, planned.schedule, *pm.cost, plan);

    ASSERT_EQ(engine.complete, sim.complete) << "seed " << seed;
    ASSERT_DOUBLE_EQ(engine.latency_ms, sim.makespan_ms) << "seed " << seed;
    ASSERT_EQ(engine.executed, sim.executed) << "seed " << seed;
    for (std::size_t v = 0; v < engine.node_finish_ms.size(); ++v)
      ASSERT_DOUBLE_EQ(engine.node_finish_ms[v], sim.node_finish_ms[v])
          << "seed " << seed << " node " << v;
    ASSERT_EQ(engine.fault_events.size(), sim.observations.size()) << "seed " << seed;
  }
}

TEST(Failover, FaultSimMatchesFaultFreeSimulatorOnEmptyPlan) {
  const ops::Model m = tiny_branchy_model();
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(2));
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const auto planned = sched::make_scheduler("hios-mr")->schedule(pm.graph, *pm.cost, config);

  const fault::FaultPlan benign;
  const oracle::FaultyRun run =
      oracle::simulate_stages_faulty(pm.graph, planned.schedule, *pm.cost, benign);
  EXPECT_TRUE(run.complete);
  EXPECT_DOUBLE_EQ(run.makespan_ms, planned.latency_ms);
}

TEST(Failover, WorkerExceptionNoLongerHangsPeers) {
  // Regression: GPU 0's kernel throws while GPU 1 blocks on its tensor.
  // Before the closed-channel protocol this deadlocked forever; now the
  // dying worker poisons its outgoing channels and the caller gets the
  // original exception.
  ops::Model m("bad");
  const ops::OpId in = m.add_input("x", ops::TensorShape{1, 1, 2, 2});
  const ops::OpId r = m.add_op(ops::Op(ops::OpKind::kActivation, "r"), {in});
  m.add_op(ops::Op(ops::OpKind::kActivation, "s"), {r});

  graph::Graph g("bad-graph");
  g.add_node("r", 1.0, /*tag=*/0);  // tag 0 = the input placeholder: kernel throws
  g.add_node("s", 1.0, /*tag=*/2);
  g.add_edge(0, 1, 0.1);
  sched::Schedule schedule(2);
  schedule.push_op(0, 0);
  schedule.push_op(1, 1);  // GPU 1 waits on GPU 0's (never-sent) tensor

  const cost::AnalyticalCostModel cost({0.5, 0.5}, cost::make_a40_server(2).gpu);
  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW(execute_schedule(m, g, schedule, cost), Error);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - started)
                .count(),
            10000);
}

/// Cost model that stalls in wall-clock time (a wedged kernel / driver).
class StallingCostModel final : public cost::CostModel {
 public:
  double stage_time(const graph::Graph& g,
                    std::span<const graph::NodeId> stage) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    double total = 0.0;
    for (graph::NodeId v : stage) total += g.node_weight(v);
    return total;
  }
  double demand(const graph::Graph&, graph::NodeId) const override { return 0.5; }
};

TEST(Failover, WatchdogBoundsAWedgedRuntime) {
  const ops::Model m = chain3_model();
  const PingPong pp = make_ping_pong(m);

  ExecOptions options;
  options.watchdog_ms = 50.0;  // expires while GPU 0 is stalled pre-send
  const StallingCostModel stalling;
  try {
    execute_schedule(m, pp.pm.graph, pp.schedule, stalling, {}, options);
    FAIL() << "watchdog must fire";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace hios::runtime
