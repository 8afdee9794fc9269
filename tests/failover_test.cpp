// Fault-tolerant execution: fail-stop mid-run recovers via failover
// rescheduling with bit-identical outputs, permanent faults terminate with
// structured errors, and the engine agrees bit for bit with the
// fault-aware simulator on every post-fault timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <map>
#include <tuple>

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
  const auto started = std::chrono::steady_clock::now();
  try {
    execute_schedule(m, pp.pm.graph, pp.schedule, *pp.pm.cost, {}, options);
    FAIL() << "exhausted retry budget must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("incomplete under fault injection"), std::string::npos) << what;
    EXPECT_NE(what.find("failed after 3 attempts"), std::string::npos) << what;
  }
  // Terminates at once: the dead edge blocks its consumer, nothing waits.
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

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Observations as a sorted multiset of (gpu, at_ms bits, kind, peer, detail).
std::vector<std::tuple<int, uint64_t, int, int, std::string>> observation_set(
    const std::vector<fault::FaultObservation>& observations) {
  std::vector<std::tuple<int, uint64_t, int, int, std::string>> set;
  for (const fault::FaultObservation& o : observations)
    set.emplace_back(o.gpu, std::bit_cast<uint64_t>(o.at_ms), static_cast<int>(o.kind),
                     o.peer_gpu, o.detail);
  std::sort(set.begin(), set.end());
  return set;
}

/// Timeline events as a sorted multiset, times compared by their bits.
std::vector<std::tuple<int, std::string, int, int, int, uint64_t, uint64_t>> event_set(
    const sim::Timeline& timeline) {
  std::vector<std::tuple<int, std::string, int, int, int, uint64_t, uint64_t>> set;
  for (const sim::TimelineEvent& e : timeline.events)
    set.emplace_back(static_cast<int>(e.kind), e.name, e.gpu, e.peer_gpu, e.stage,
                     std::bit_cast<uint64_t>(e.start_ms), std::bit_cast<uint64_t>(e.finish_ms));
  std::sort(set.begin(), set.end());
  return set;
}

TEST(Failover, EngineAndSimulatorAgreeOnFaultyRuns) {
  // The engine and the independent fault-aware simulator must agree bit for
  // bit: latency, per-node finishes, executed sets, observations and
  // timeline events, over random plans on 2-4 GPUs and both HIOS variants.
  const ops::Model m = tiny_branchy_model();
  std::map<fault::FaultObservation::Kind, int> kinds_seen;
  int incomplete = 0;
  for (const int gpus : {2, 3, 4}) {
    const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(gpus));
    sched::SchedulerConfig config;
    config.num_gpus = gpus;
    for (const char* algorithm : {"hios-lp", "hios-mr"}) {
      const auto planned =
          sched::make_scheduler(algorithm)->schedule(pm.graph, *pm.cost, config);
      fault::FaultPlan::RandomParams params;
      params.num_gpus = gpus;
      params.horizon_ms = planned.latency_ms;
      params.num_fail_stops = 1;
      params.num_link_faults = 2;
      params.num_stragglers = 1;
      for (uint64_t seed = 0; seed < 32; ++seed) {
        const fault::FaultPlan plan = fault::FaultPlan::random(params, seed);
        ExecOptions options;
        options.faults = &plan;
        options.allow_partial = true;
        const ExecutionResult engine =
            execute_schedule(m, pm.graph, planned.schedule, *pm.cost, {}, options);
        const oracle::FaultyRun sim =
            oracle::simulate_stages_faulty(pm.graph, planned.schedule, *pm.cost, plan);
        const std::string where = std::to_string(gpus) + " GPUs, " + algorithm + ", seed " +
                                  std::to_string(seed);

        ASSERT_EQ(engine.complete, sim.complete) << where;
        ASSERT_TRUE(same_bits(engine.latency_ms, sim.makespan_ms))
            << where << ": " << engine.latency_ms << " vs " << sim.makespan_ms;
        ASSERT_TRUE(same_bits(engine.timeline.latency_ms, sim.timeline.latency_ms)) << where;
        ASSERT_EQ(engine.executed, sim.executed) << where;
        ASSERT_EQ(engine.node_finish_ms.size(), sim.node_finish_ms.size()) << where;
        ASSERT_EQ(std::memcmp(engine.node_finish_ms.data(), sim.node_finish_ms.data(),
                              sim.node_finish_ms.size() * sizeof(double)),
                  0)
            << where;
        ASSERT_EQ(observation_set(engine.fault_events), observation_set(sim.observations))
            << where;
        ASSERT_EQ(event_set(engine.timeline), event_set(sim.timeline)) << where;
        for (const fault::FaultObservation& o : engine.fault_events) ++kinds_seen[o.kind];
        if (!engine.complete) ++incomplete;
      }
    }
  }
  // The sweep reaches every fault path the two must agree on.
  EXPECT_GT(incomplete, 0);
  EXPECT_GT(kinds_seen[fault::FaultObservation::Kind::kFailStop], 0);
  EXPECT_GT(kinds_seen[fault::FaultObservation::Kind::kBlocked], 0);
  EXPECT_GT(kinds_seen[fault::FaultObservation::Kind::kTransferFailed], 0);
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
  // GPU 0's kernel throws while GPU 1 waits on its tensor: the caller gets
  // the kernel's exception at once.
  ops::Model m("bad");
  const ops::OpId in = m.add_input("x", ops::TensorShape{1, 1, 2, 2});
  m.add_op(ops::Op(ops::OpKind::kActivation, "r"), {in});

  graph::Graph g("bad-graph");
  g.add_node("x", 1.0, /*tag=*/0);  // tag 0 = the input placeholder: kernel throws
  g.add_node("r", 1.0, /*tag=*/1);
  g.add_edge(0, 1, 0.1);
  sched::Schedule schedule(2);
  schedule.push_op(0, 0);
  schedule.push_op(1, 1);  // GPU 1 waits on GPU 0's tensor

  const cost::AnalyticalCostModel cost({0.5, 0.5}, cost::make_a40_server(2).gpu);
  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW(execute_schedule(m, g, schedule, cost), Error);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - started)
                .count(),
            10000);
}

}  // namespace
}  // namespace hios::runtime
