// Tests for the simulators and timeline exporters.
#include <gtest/gtest.h>

#include "cost/table_model.h"
#include "graph/algorithms.h"
#include "models/examples.h"
#include "models/random_dag.h"
#include "sched/evaluate.h"
#include "sched/scheduler.h"
#include "sim/event_sim.h"

namespace hios::sim {
namespace {

const cost::TableCostModel kCost;

sched::Schedule chain_on_two_gpus(const graph::Graph& g) {
  sched::Schedule s(2);
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes()); ++v)
    s.push_op(v % 2, v);
  return s;
}

TEST(SimulateStages, MatchesEvaluatorLatency) {
  const graph::Graph g = models::make_fig4_graph();
  sched::Schedule s(1);
  for (graph::NodeId v : graph::priority_order(g)) s.push_op(0, v);
  const auto tl = simulate_stages(g, s, kCost);
  ASSERT_TRUE(tl.has_value());
  const auto eval = sched::evaluate_schedule(g, s, kCost);
  EXPECT_DOUBLE_EQ(tl->latency_ms, eval->latency_ms);
}

TEST(SimulateStages, EmitsComputeEventPerOp) {
  const graph::Graph g = models::make_chain(4, 1.0, 0.2);
  const auto tl = simulate_stages(g, chain_on_two_gpus(g), kCost);
  ASSERT_TRUE(tl.has_value());
  int compute = 0, transfer = 0;
  for (const auto& e : tl->events) {
    if (e.kind == TimelineEvent::Kind::kCompute) ++compute;
    else ++transfer;
  }
  EXPECT_EQ(compute, 4);
  EXPECT_EQ(transfer, 3);  // every chain edge crosses GPUs
}

TEST(SimulateStages, TransferEventsHaveCorrectEndpoints) {
  const graph::Graph g = models::make_chain(2, 1.0, 0.5);
  const auto tl = simulate_stages(g, chain_on_two_gpus(g), kCost);
  ASSERT_TRUE(tl.has_value());
  const auto it = std::find_if(tl->events.begin(), tl->events.end(), [](const auto& e) {
    return e.kind == TimelineEvent::Kind::kTransfer;
  });
  ASSERT_NE(it, tl->events.end());
  EXPECT_EQ(it->gpu, 0);
  EXPECT_EQ(it->peer_gpu, 1);
  EXPECT_DOUBLE_EQ(it->finish_ms - it->start_ms, 0.5);
}

TEST(SimulateStages, DeadlockReturnsNullopt) {
  const graph::Graph g = models::make_chain(3, 1.0, 0.1);
  sched::Schedule s(2);
  s.push_op(0, 2);
  s.push_op(0, 0);
  s.push_op(1, 1);
  EXPECT_FALSE(simulate_stages(g, s, kCost).has_value());
  EXPECT_FALSE(simulate_ops(g, s, kCost).has_value());
}

TEST(SimulateStages, GroupedStageCycleReturnsNullopt) {
  // Two disjoint edges (0->1, 2->3) grouped so the stage DAG is cyclic:
  // GPU 0's stage {0, 3} waits on GPU 1's stage {1, 2} and vice versa —
  // each stage holds independent ops, so only the *stage* level deadlocks.
  graph::Graph g("cross");
  for (int i = 0; i < 4; ++i) g.add_node(std::string("n").append(std::to_string(i)), 1.0);
  g.add_edge(0, 1, 0.1);
  g.add_edge(2, 3, 0.1);
  sched::Schedule s(2);
  s.gpus[0].push_back(sched::Stage{{0, 3}});
  s.gpus[1].push_back(sched::Stage{{1, 2}});
  EXPECT_FALSE(simulate_stages(g, s, kCost).has_value());
  EXPECT_FALSE(simulate_ops(g, s, kCost).has_value());
}

TEST(SimulateOps, EqualsStageModelWhenNoRelaxationPossible) {
  // A pure chain has nothing to relax: identical latency in both models.
  const graph::Graph g = models::make_chain(5, 1.0, 0.3);
  sched::Schedule s(1);
  for (graph::NodeId v : graph::priority_order(g)) s.push_op(0, v);
  const auto stage_tl = simulate_stages(g, s, kCost);
  const auto op_tl = simulate_ops(g, s, kCost);
  ASSERT_TRUE(stage_tl && op_tl);
  EXPECT_DOUBLE_EQ(op_tl->latency_ms, stage_tl->latency_ms);
}

TEST(SimulateOps, RelaxedStartsCanOnlyHelp) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    models::RandomDagParams p;
    p.num_ops = 40;
    p.num_layers = 6;
    p.num_deps = 80;
    p.seed = seed;
    const graph::Graph g = models::random_dag(p);
    sched::SchedulerConfig config;
    config.num_gpus = 3;
    const auto r = sched::make_scheduler("hios-lp")->schedule(g, kCost, config);
    const auto stage_tl = simulate_stages(g, r.schedule, kCost);
    const auto op_tl = simulate_ops(g, r.schedule, kCost);
    ASSERT_TRUE(stage_tl && op_tl) << seed;
    EXPECT_LE(op_tl->latency_ms, stage_tl->latency_ms + 1e-9) << seed;
    EXPECT_GT(op_tl->latency_ms, 0.0) << seed;
  }
}

TEST(SimulateOps, GroupedStageFinishMatchesStageTimeWhenSynchronized) {
  // Independent ops whose inputs are ready simultaneously: the grouped
  // stage must finish exactly at t(S).
  const graph::Graph g = models::make_fork_join(2, 1.0, 0.1, 0.5);
  sched::Schedule s(1);
  s.push_op(0, 0);
  s.gpus[0].push_back(sched::Stage{{2, 3}});
  s.push_op(0, 1);
  const auto stage_tl = simulate_stages(g, s, kCost);
  const auto op_tl = simulate_ops(g, s, kCost);
  ASSERT_TRUE(stage_tl && op_tl);
  EXPECT_NEAR(op_tl->latency_ms, stage_tl->latency_ms, 1e-9);
}

TEST(Timeline, ChromeTraceWellFormed) {
  const graph::Graph g = models::make_chain(3, 1.0, 0.2);
  const auto tl = simulate_stages(g, chain_on_two_gpus(g), kCost);
  ASSERT_TRUE(tl.has_value());
  const Json trace = tl->to_chrome_trace();
  EXPECT_TRUE(trace.contains("traceEvents"));
  const auto& events = trace.at("traceEvents").as_array();
  EXPECT_EQ(events.size(), tl->events.size());
  for (const Json& e : events) {
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_GE(e.at("dur").as_number(), 0.0);
  }
  // Round-trips through the parser.
  EXPECT_NO_THROW(Json::parse(trace.dump()));
}

TEST(Timeline, AsciiGanttRendersAllEvents) {
  const graph::Graph g = models::make_chain(3, 1.0, 0.2);
  const auto tl = simulate_stages(g, chain_on_two_gpus(g), kCost);
  ASSERT_TRUE(tl.has_value());
  const std::string gantt = tl->to_ascii_gantt(60);
  EXPECT_NE(gantt.find("GPU 0"), std::string::npos);
  EXPECT_NE(gantt.find("GPU 1"), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos);
  EXPECT_NE(gantt.find('~'), std::string::npos);
}

TEST(Timeline, EmptyTimelineGantt) {
  Timeline empty;
  EXPECT_EQ(empty.to_ascii_gantt(), "(empty timeline)\n");
  EXPECT_THROW(empty.to_ascii_gantt(5), Error);
}

}  // namespace
}  // namespace hios::sim
