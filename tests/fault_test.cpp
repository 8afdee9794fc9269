// FaultPlan semantics: event queries, retry/backoff arithmetic, JSON
// round-trips, random generation determinism, degraded topologies, and the
// failover building blocks (residual graphs + remapped cost models).
#include <gtest/gtest.h>

#include "cost/remap_model.h"
#include "fault/fault_plan.h"
#include "models/examples.h"
#include "sched/residual.h"

namespace hios::fault {
namespace {

TEST(FaultPlan, EmptyPlanIsBenign) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.fail_time(0), kNever);
  EXPECT_DOUBLE_EQ(plan.compute_scale(0, 123.0), 1.0);
  EXPECT_FALSE(plan.link_down(0, 1, 0.0));
  const TransferResolution res = plan.resolve_transfer(0, 1, 2.0, 0.5);
  EXPECT_TRUE(res.delivered);
  EXPECT_DOUBLE_EQ(res.arrival_ms, 2.5);
  ASSERT_EQ(res.attempts.size(), 1u);
  EXPECT_TRUE(res.attempts[0].ok);
}

TEST(FaultPlan, FailTimeTakesEarliestEvent) {
  FaultPlan plan;
  plan.fail_stops.push_back(FailStop{1, 5.0});
  plan.fail_stops.push_back(FailStop{1, 3.0});
  EXPECT_DOUBLE_EQ(plan.fail_time(1), 3.0);
  EXPECT_EQ(plan.fail_time(0), kNever);
}

TEST(FaultPlan, StragglerScalesCompoundFromOnset) {
  FaultPlan plan;
  plan.stragglers.push_back(Straggler{0, 2.0, 3.0});
  plan.stragglers.push_back(Straggler{0, 5.0, 2.0});
  EXPECT_DOUBLE_EQ(plan.compute_scale(0, 1.0), 1.0);   // before onset
  EXPECT_DOUBLE_EQ(plan.compute_scale(0, 2.0), 3.0);   // inclusive at onset
  EXPECT_DOUBLE_EQ(plan.compute_scale(0, 9.0), 6.0);   // both active: product
  EXPECT_DOUBLE_EQ(plan.compute_scale(1, 9.0), 1.0);   // other GPU untouched
}

TEST(FaultPlan, LinkWindowIsHalfOpenAndSymmetric) {
  FaultPlan plan;
  plan.link_faults.push_back(LinkFault{0, 1, 1.0, 2.0, /*down=*/true});
  EXPECT_FALSE(plan.link_down(0, 1, 0.999));
  EXPECT_TRUE(plan.link_down(0, 1, 1.0));
  EXPECT_TRUE(plan.link_down(1, 0, 1.5));  // symmetric
  EXPECT_FALSE(plan.link_down(0, 1, 2.0)); // half-open: to_ms excluded
  EXPECT_FALSE(plan.link_down(0, 2, 1.5)); // other pair untouched
}

TEST(FaultPlan, TransientOutageRetriesWithCappedBackoff) {
  FaultPlan plan;
  plan.retry = RetryPolicy{5, 1.0, 2.0, 3.0};
  plan.link_faults.push_back(LinkFault{0, 1, 0.0, 4.5, /*down=*/true});
  // Attempts at 0 (+1), 1 (+2), 3 (+3 capped), 6 -> link back up, delivers.
  const TransferResolution res = plan.resolve_transfer(0, 1, 0.0, 0.25);
  EXPECT_TRUE(res.delivered);
  ASSERT_EQ(res.attempts.size(), 4u);
  EXPECT_DOUBLE_EQ(res.attempts[0].at_ms, 0.0);
  EXPECT_DOUBLE_EQ(res.attempts[1].at_ms, 1.0);
  EXPECT_DOUBLE_EQ(res.attempts[2].at_ms, 3.0);
  EXPECT_DOUBLE_EQ(res.attempts[3].at_ms, 6.0);
  EXPECT_TRUE(res.attempts[3].ok);
  EXPECT_DOUBLE_EQ(res.arrival_ms, 6.25);
}

TEST(FaultPlan, PermanentOutageExhaustsRetryBudget) {
  FaultPlan plan;
  plan.retry = RetryPolicy{3, 0.5, 2.0, 8.0};
  plan.link_faults.push_back(LinkFault{0, 1, 0.0, kNever, /*down=*/true});
  const TransferResolution res = plan.resolve_transfer(0, 1, 10.0, 1.0);
  EXPECT_FALSE(res.delivered);
  ASSERT_EQ(res.attempts.size(), 3u);
  for (const TransferAttempt& a : res.attempts) EXPECT_FALSE(a.ok);
  EXPECT_DOUBLE_EQ(res.arrival_ms, 10.0 + 0.5 + 1.0 + 2.0);  // budget ran out here
}

TEST(FaultPlan, RetryBudgetIsCapped) {
  // The largest budget a plan file may ask for loads and is spent in full
  // on a link that never comes up; a policy built in code past the cap is
  // refused when it is used.
  FaultPlan plan = FaultPlan::from_json(Json::parse(
      R"({"retry": {"max_attempts": 1000, "initial_backoff_ms": 0.0,
                    "backoff_multiplier": 1.0, "max_backoff_ms": 0.0},
          "link_faults": [{"gpu_a": 0, "gpu_b": 1, "from_ms": 0.0, "down": true,
                           "bw_scale": 1.0, "extra_latency_ms": 0.0}]})"));
  ASSERT_EQ(plan.retry.max_attempts, RetryPolicy::kMaxAttempts);
  const TransferResolution res = plan.resolve_transfer(0, 1, 0.0, 1.0);
  EXPECT_FALSE(res.delivered);
  EXPECT_EQ(res.attempts.size(), 1000u);
  plan.retry.max_attempts = RetryPolicy::kMaxAttempts + 1;
  EXPECT_THROW(plan.resolve_transfer(0, 1, 0.0, 1.0), Error);
}

TEST(FaultPlan, DegradationScalesBandwidthAndAddsLatency) {
  FaultPlan plan;
  plan.link_faults.push_back(
      LinkFault{0, 1, 0.0, kNever, /*down=*/false, /*bw_scale=*/4.0, /*extra=*/0.5});
  const TransferResolution res = plan.resolve_transfer(1, 0, 2.0, 1.0);
  EXPECT_TRUE(res.delivered);
  EXPECT_DOUBLE_EQ(res.arrival_ms, 2.0 + 1.0 * 4.0 + 0.5);
}

TEST(FaultPlan, JsonRoundTripPreservesEverything) {
  FaultPlan plan;
  plan.seed = 42;
  plan.retry = RetryPolicy{7, 0.125, 3.0, 9.0};
  plan.fail_stops.push_back(FailStop{2, 1.5});
  plan.stragglers.push_back(Straggler{1, 0.75, 2.5});
  plan.link_faults.push_back(LinkFault{0, 1, 0.5, 2.5, true, 1.0, 0.0});
  plan.link_faults.push_back(LinkFault{1, 2, 1.0, kNever, false, 3.0, 0.25});

  const FaultPlan back = FaultPlan::from_json(Json::parse(plan.to_json().dump()));
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.retry.max_attempts, 7);
  EXPECT_DOUBLE_EQ(back.retry.initial_backoff_ms, 0.125);
  ASSERT_EQ(back.fail_stops.size(), 1u);
  EXPECT_EQ(back.fail_stops[0].gpu, 2);
  EXPECT_DOUBLE_EQ(back.fail_stops[0].at_ms, 1.5);
  ASSERT_EQ(back.stragglers.size(), 1u);
  EXPECT_DOUBLE_EQ(back.stragglers[0].slowdown, 2.5);
  ASSERT_EQ(back.link_faults.size(), 2u);
  EXPECT_DOUBLE_EQ(back.link_faults[0].to_ms, 2.5);
  EXPECT_EQ(back.link_faults[1].to_ms, kNever);  // permanent survives the trip
  EXPECT_DOUBLE_EQ(back.link_faults[1].bw_scale, 3.0);
}

TEST(FaultPlan, FromJsonRejectsUnknownKeys) {
  // Structured errors name the offending key, so a typo in a chaos script
  // fails loudly instead of silently injecting nothing.
  EXPECT_THROW(FaultPlan::from_json(Json::parse(R"({"fail_stop": []})")), Error);
  EXPECT_THROW(
      FaultPlan::from_json(Json::parse(R"({"fail_stops": [{"gpu": 0, "at": 1.0}]})")),
      Error);
  EXPECT_THROW(FaultPlan::from_json(
                   Json::parse(R"({"retry": {"max_attempts": 3, "backoff": 1.0}})")),
               Error);
  try {
    FaultPlan::from_json(Json::parse(R"({"stragglerz": []})"));
    FAIL() << "unknown key must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("stragglerz"), std::string::npos) << e.what();
  }
}

TEST(FaultPlan, FromJsonRejectsOutOfRangeValues) {
  EXPECT_THROW(FaultPlan::from_json(Json::parse(
                   R"({"fail_stops": [{"gpu": -1, "at_ms": 1.0}]})")),
               Error);
  EXPECT_THROW(FaultPlan::from_json(Json::parse(
                   R"({"fail_stops": [{"gpu": 0, "at_ms": -1.0}]})")),
               Error);
  EXPECT_THROW(FaultPlan::from_json(Json::parse(
                   R"({"stragglers": [{"gpu": 0, "from_ms": 0.0, "slowdown": 0.5}]})")),
               Error);
  EXPECT_THROW(FaultPlan::from_json(Json::parse(
                   R"({"link_faults": [{"gpu_a": 1, "gpu_b": 1, "from_ms": 0.0}]})")),
               Error);
  EXPECT_THROW(FaultPlan::from_json(Json::parse(
                   R"({"link_faults": [{"gpu_a": 0, "gpu_b": 1, "from_ms": 2.0, "to_ms": 1.0}]})")),
               Error);
  EXPECT_THROW(FaultPlan::from_json(Json::parse(
                   R"({"retry": {"initial_backoff_ms": -0.5}})")),
               Error);
  // Integers too wide for an int, and fractional ones: each of these once
  // loaded as GPU 1 (or a 2-attempt policy).
  for (const char* doc : {
           R"({"fail_stops": [{"gpu": 4294967297, "at_ms": 1.0}]})",
           R"({"fail_stops": [{"gpu": 1.4, "at_ms": 1.0}]})",
           R"({"stragglers": [{"gpu": 4294967297, "from_ms": 0.0, "slowdown": 2.0}]})",
           R"({"link_faults": [{"gpu_a": 0, "gpu_b": 4294967297, "from_ms": 0.0,
                                "down": true, "bw_scale": 1.0, "extra_latency_ms": 0.0}]})",
           R"({"link_faults": [{"gpu_a": 1.4, "gpu_b": 0, "from_ms": 0.0,
                                "down": true, "bw_scale": 1.0, "extra_latency_ms": 0.0}]})",
           R"({"retry": {"max_attempts": 2.4, "initial_backoff_ms": 0.1,
                         "backoff_multiplier": 2.0, "max_backoff_ms": 1.0}})",
           // Past the attempt cap: one transfer would record every attempt.
           R"({"retry": {"max_attempts": 1001, "initial_backoff_ms": 0.1,
                         "backoff_multiplier": 2.0, "max_backoff_ms": 1.0}})",
           R"({"retry": {"max_attempts": 2147483647, "initial_backoff_ms": 0.1,
                         "backoff_multiplier": 2.0, "max_backoff_ms": 1.0}})",
       }) {
    EXPECT_THROW(FaultPlan::from_json(Json::parse(doc)), Error) << doc;
  }
  // The error is indexed so a long script pinpoints the bad event.
  try {
    FaultPlan::from_json(Json::parse(
        R"({"fail_stops": [{"gpu": 0, "at_ms": 1.0}, {"gpu": 1, "at_ms": -2.0}]})"));
    FAIL() << "negative time must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fail_stops[1]"), std::string::npos)
        << e.what();
  }
  try {
    FaultPlan::from_json(Json::parse(
        R"({"fail_stops": [{"gpu": 0, "at_ms": 1.0}, {"gpu": 1.5, "at_ms": 2.0}]})"));
    FAIL() << "a fractional GPU must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fail_stops[1].gpu"), std::string::npos) << e.what();
  }
}

TEST(FaultPlan, RandomIsDeterministicInSeed) {
  FaultPlan::RandomParams params;
  params.num_gpus = 4;
  params.num_fail_stops = 2;
  params.num_link_faults = 3;
  params.num_stragglers = 2;
  const FaultPlan a = FaultPlan::random(params, 7);
  const FaultPlan b = FaultPlan::random(params, 7);
  const FaultPlan c = FaultPlan::random(params, 8);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_NE(a.to_json().dump(), c.to_json().dump());
  // Distinct fail-stop victims, and at least one survivor by construction.
  ASSERT_EQ(a.fail_stops.size(), 2u);
  EXPECT_NE(a.fail_stops[0].gpu, a.fail_stops[1].gpu);
}

TEST(DegradedTopology, FoldsFaultsAndPenalisesDownLinks) {
  FaultPlan plan;
  plan.link_faults.push_back(
      LinkFault{0, 2, 0.0, kNever, /*down=*/false, /*bw_scale=*/2.0, /*extra=*/0.1});
  plan.link_faults.push_back(LinkFault{0, 3, 0.0, kNever, /*down=*/true});

  cost::Topology base = cost::Topology::uniform(4);
  base.set(0, 2, cost::LinkClass{3.0, 0.2});

  const std::vector<int> survivors = {0, 2, 3};  // GPU 1 died
  const cost::Topology topo =
      degraded_topology(base, plan, std::span<const int>(survivors), 1.0);
  ASSERT_EQ(topo.num_gpus(), 3);
  // Compact pair (0,1) = original (0,2): base folded with degradation.
  EXPECT_DOUBLE_EQ(topo.between(0, 1).bw_scale, 3.0 * 2.0);
  EXPECT_DOUBLE_EQ(topo.between(0, 1).extra_latency_ms, 0.2 + 0.1);
  // Compact pair (0,2) = original (0,3): down => prohibitive latency.
  EXPECT_GE(topo.between(0, 2).extra_latency_ms, 1e9);
  // Compact pair (1,2) = original (2,3): untouched.
  EXPECT_DOUBLE_EQ(topo.between(1, 2).bw_scale, 1.0);
}

// Sums node weights; demand = weight / 10 (distinguishable per node).
class WeightSumModel final : public cost::CostModel {
 public:
  double stage_time(const graph::Graph& g,
                    std::span<const graph::NodeId> stage) const override {
    double total = 0.0;
    for (graph::NodeId v : stage) total += g.node_weight(v);
    return total;
  }
  double demand(const graph::Graph& g, graph::NodeId v) const override {
    return g.node_weight(v) / 10.0;
  }
};

TEST(Residual, ExtractsUnfinishedWorkAndBoundaryInputs) {
  // Fig. 4 graph: mark v1..v3 (ids 0..2) as available, rest residual.
  const graph::Graph g = models::make_fig4_graph();
  std::vector<char> available(g.num_nodes(), 0);
  available[0] = available[1] = available[2] = 1;

  const sched::ResidualProblem res = sched::build_residual(g, available);
  EXPECT_EQ(res.num_residual_ops, g.num_nodes() - 3);
  // v2 (id 1) feeds v4, v3 (id 2) feeds v5: both become boundary inputs.
  // v1 (id 0) only feeds available nodes: not a boundary.
  EXPECT_EQ(res.num_boundary, 2u);
  EXPECT_EQ(res.graph.num_nodes(), res.num_residual_ops + res.num_boundary);
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(res.graph.num_nodes()); ++v) {
    const graph::NodeId orig = res.orig_of[static_cast<std::size_t>(v)];
    EXPECT_EQ(res.graph.node_name(v), g.node_name(orig));
    EXPECT_EQ(res.graph.node_tag(v), g.node_tag(orig));
    if (res.is_boundary[static_cast<std::size_t>(v)]) {
      EXPECT_DOUBLE_EQ(res.graph.node_weight(v), 0.0);  // precomputed: free
      EXPECT_GT(res.graph.out_degree(v), 0u);           // feeds residual work
      EXPECT_EQ(res.graph.in_edges(v).size(), 0u);      // pure input
    } else {
      EXPECT_DOUBLE_EQ(res.graph.node_weight(v), g.node_weight(orig));
    }
  }
}

TEST(Residual, ThrowsWhenNothingIsLeft) {
  const graph::Graph g = models::make_chain(3);
  const std::vector<char> all(g.num_nodes(), 1);
  EXPECT_THROW(sched::build_residual(g, all), Error);
}

TEST(Residual, LiftMapsBackToOriginalIdsAndGpus) {
  const graph::Graph g = models::make_fig4_graph();
  std::vector<char> available(g.num_nodes(), 0);
  available[0] = available[1] = available[2] = 1;
  const sched::ResidualProblem res = sched::build_residual(g, available);

  // Hand-build a residual schedule on 2 compact GPUs (survivors {0, 2} of 3).
  sched::Schedule compact(2);
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(res.graph.num_nodes()); ++v)
    compact.push_op(res.is_boundary[static_cast<std::size_t>(v)] ? 1 : 0, v);

  const std::vector<int> survivors = {0, 2};
  const sched::Schedule lifted = sched::lift_residual_schedule(res, compact, survivors, 3);
  EXPECT_EQ(lifted.num_gpus, 3);
  EXPECT_TRUE(lifted.gpus[1].empty());  // dead GPU hosts nothing
  EXPECT_TRUE(lifted.gpus[2].empty());  // only boundary stages: all dropped
  EXPECT_EQ(lifted.num_ops(), res.num_residual_ops);
  for (const sched::Stage& st : lifted.gpus[0])
    for (graph::NodeId v : st.ops) EXPECT_FALSE(available[static_cast<std::size_t>(v)]);
}

TEST(RemappedCostModel, TranslatesIdsAndSkipsBoundaries) {
  graph::Graph base("base");
  const graph::NodeId a = base.add_node("a", 2.0, 0);
  const graph::NodeId b = base.add_node("b", 5.0, 1);
  base.add_edge(a, b, 0.1);

  // Derived graph: node 0 = boundary stand-in for a, node 1 = b.
  graph::Graph derived("derived");
  derived.add_node("a", 0.0, 0);
  derived.add_node("b", 5.0, 1);
  derived.add_edge(0, 1, 0.1);

  auto inner = std::make_shared<WeightSumModel>();
  const cost::RemappedCostModel remapped(inner, base, {a, b}, {1, 0});

  const std::vector<graph::NodeId> both = {0, 1};
  const std::vector<graph::NodeId> only_boundary = {0};
  const std::vector<graph::NodeId> only_real = {1};
  // Boundary contributes nothing; real op priced at the *original* weight.
  EXPECT_DOUBLE_EQ(remapped.stage_time(derived, std::span<const graph::NodeId>(both)), 5.0);
  EXPECT_DOUBLE_EQ(
      remapped.stage_time(derived, std::span<const graph::NodeId>(only_boundary)), 0.0);
  EXPECT_DOUBLE_EQ(
      remapped.stage_time(derived, std::span<const graph::NodeId>(only_real)), 5.0);
  EXPECT_DOUBLE_EQ(remapped.demand(derived, 1), 0.5);  // 5.0 / 10
}

}  // namespace
}  // namespace hios::fault
