// Tests for the Schedule data model, JSON round trip, and validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "cost/table_model.h"
#include "models/examples.h"
#include "models/random_dag.h"
#include "oracles/oracles.h"
#include "sched/schedule.h"
#include "sched/scheduler.h"
#include "sched/validate.h"

namespace hios::sched {
namespace {

Schedule two_gpu_example() {
  // fork-join with 2 branches on 2 GPUs: src+b0 on gpu0, b1 on gpu1, sink gpu0.
  Schedule s(2);
  s.push_op(0, 0);  // src
  s.push_op(0, 2);  // branch0
  s.push_op(1, 3);  // branch1
  s.push_op(0, 1);  // sink
  return s;
}

TEST(Schedule, AssignmentMaps) {
  const Schedule s = two_gpu_example();
  const auto gpu_of = s.gpu_assignment(4);
  EXPECT_EQ(gpu_of, (std::vector<int>{0, 0, 0, 1}));
  EXPECT_EQ(s.num_ops(), 4u);
  EXPECT_EQ(s.num_gpus_used(), 2);
}

TEST(Schedule, DoubleAssignmentDetected) {
  Schedule s(1);
  s.push_op(0, 0);
  s.push_op(0, 0);
  EXPECT_THROW(s.gpu_assignment(1), Error);
}

TEST(Schedule, PushOpBounds) {
  Schedule s(2);
  EXPECT_THROW(s.push_op(2, 0), Error);
  EXPECT_THROW(s.push_op(-1, 0), Error);
}

TEST(Schedule, JsonRoundTrip) {
  const graph::Graph g = models::make_fork_join(2);
  const Schedule s = two_gpu_example();
  const Json j = s.to_json(g);
  EXPECT_EQ(j.at("num_gpus").as_int(), 2);
  const Schedule back = Schedule::from_json(j);
  EXPECT_EQ(back.num_gpus, 2);
  ASSERT_EQ(back.gpus[0].size(), 3u);
  ASSERT_EQ(back.gpus[1].size(), 1u);
  EXPECT_EQ(back.gpus[0][0].ops, std::vector<graph::NodeId>{0});
  EXPECT_EQ(back.gpus[1][0].ops, std::vector<graph::NodeId>{3});
  // Full textual round trip too.
  const Schedule back2 = Schedule::from_json(Json::parse(j.dump(true)));
  EXPECT_EQ(back2.gpus[0][1].ops, back.gpus[0][1].ops);
}

TEST(Schedule, FromJsonValidatesShape) {
  Json j = Json::object();
  j["num_gpus"] = 2;
  j["gpus"] = Json::array();  // wrong size
  EXPECT_THROW(Schedule::from_json(j), Error);
}

TEST(Schedule, FromJsonRejectsBadGpuCounts) {
  // The GPU count is checked against the gpus array before anything is
  // sized from it: a negative count is a structured error, not a
  // std::length_error, and a huge one allocates nothing.
  for (const Json& count : {Json(-1), Json(0), Json(3), Json(2.5), Json(int64_t{1} << 40)}) {
    Json j = Json::object();
    j["num_gpus"] = count;
    j["gpus"] = Json::array();
    j["gpus"].push_back(Json::array());
    j["gpus"].push_back(Json::array());
    EXPECT_THROW(Schedule::from_json(j), Error) << count.dump();
  }
  Json none = Json::object();
  none["num_gpus"] = -1;
  none["gpus"] = Json::array();
  EXPECT_THROW(Schedule::from_json(none), Error);
  none["num_gpus"] = 0;
  EXPECT_THROW(Schedule::from_json(none), Error);
}

TEST(Schedule, FromJsonRejectsOpIdsOutsideNodeIdRange) {
  const graph::Graph g = models::make_fork_join(2);
  for (const Json& id : {Json(-1), Json(int64_t{1} << 31), Json(1e18), Json("0")}) {
    Json j = two_gpu_example().to_json(g);
    j["gpus"].as_array()[0].as_array()[0].as_array()[0]["id"] = id;
    EXPECT_THROW(Schedule::from_json(j), Error) << id.dump();
  }
}

TEST(Validate, AcceptsGoodSchedule) {
  const graph::Graph g = models::make_fork_join(2);
  EXPECT_TRUE(validate_schedule(g, two_gpu_example()).empty());
  EXPECT_NO_THROW(check_schedule(g, two_gpu_example()));
}

TEST(Validate, DetectsMissingAndDuplicateOps) {
  const graph::Graph g = models::make_fork_join(2);
  Schedule missing(2);
  missing.push_op(0, 0);
  missing.push_op(0, 1);
  missing.push_op(0, 2);  // node 3 missing
  auto v = validate_schedule(g, missing);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("missing"), std::string::npos);

  Schedule dup = two_gpu_example();
  dup.push_op(1, 2);
  v = validate_schedule(g, dup);
  EXPECT_FALSE(v.empty());
}

TEST(Validate, DetectsDependentOpsInOneStage) {
  const graph::Graph g = models::make_chain(2, 1.0, 0.1);
  Schedule s(1);
  s.gpus[0].push_back(Stage{{0, 1}});  // dependent pair grouped
  const auto v = validate_schedule(g, s);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].find("dependent"), std::string::npos);
  EXPECT_THROW(check_schedule(g, s), Error);
}

TEST(Validate, DetectsTransitiveDependenceInStage) {
  const graph::Graph g = models::make_chain(3, 1.0, 0.1);
  Schedule s(1);
  s.gpus[0].push_back(Stage{{0, 2}});  // 0 reaches 2 via 1
  s.push_op(0, 1);
  EXPECT_FALSE(validate_schedule(g, s).empty());
}

TEST(Validate, DetectsExecutionOrderDeadlock) {
  // Chain a->b->c with b on gpu1; putting c BEFORE a on gpu0 deadlocks.
  const graph::Graph g = models::make_chain(3, 1.0, 0.1);
  Schedule s(2);
  s.push_op(0, 2);  // c first on gpu0
  s.push_op(0, 0);  // a second on gpu0
  s.push_op(1, 1);  // b on gpu1
  const auto v = validate_schedule(g, s);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.back().find("cycle"), std::string::npos);
}

TEST(Validate, DetectsGroupedStageCycle) {
  // Each stage is internally independent, yet the stage DAG is cyclic:
  // GPU 0's stage {0, 3} and GPU 1's stage {1, 2} wait on each other.
  graph::Graph g("cross");
  for (int i = 0; i < 4; ++i) g.add_node("n" + std::to_string(i), 1.0);
  g.add_edge(0, 1, 0.1);
  g.add_edge(2, 3, 0.1);
  Schedule s(2);
  s.gpus[0].push_back(Stage{{0, 3}});
  s.gpus[1].push_back(Stage{{1, 2}});
  const auto v = validate_schedule(g, s);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.back().find("cycle"), std::string::npos);
}

TEST(Validate, DetectsEmptyStageAndBadNode) {
  const graph::Graph g = models::make_chain(1);
  Schedule s(1);
  s.gpus[0].push_back(Stage{});  // empty
  s.push_op(0, 0);
  EXPECT_FALSE(validate_schedule(g, s).empty());

  Schedule bad(1);
  bad.push_op(0, 7);  // unknown node
  EXPECT_FALSE(validate_schedule(g, bad).empty());
}

TEST(Validate, RejectsNonPositiveGpuCount) {
  const graph::Graph g = models::make_chain(1);
  Schedule s;
  EXPECT_FALSE(validate_schedule(g, s).empty());
}

/// One random edit of `s` that keeps every op in exactly one non-empty
/// stage: merge two stages of one GPU, move an op to another stage (of any
/// GPU), or swap two stages of one GPU.
void mutate(Schedule& s, std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  auto& stages = s.gpus[pick(s.gpus.size())];
  if (stages.size() < 2) return;
  const std::size_t a = pick(stages.size());
  std::size_t b = pick(stages.size() - 1);
  if (b >= a) ++b;
  switch (rng() % 3) {
    case 0: {  // merge b into a
      auto& into = stages[a].ops;
      into.insert(into.end(), stages[b].ops.begin(), stages[b].ops.end());
      stages.erase(stages.begin() + static_cast<std::ptrdiff_t>(b));
      break;
    }
    case 1: {  // move one op of a into a random stage of a random GPU
      auto& from = stages[a].ops;
      const std::size_t k = pick(from.size());
      const graph::NodeId v = from[k];
      from.erase(from.begin() + static_cast<std::ptrdiff_t>(k));
      if (from.empty()) stages.erase(stages.begin() + static_cast<std::ptrdiff_t>(a));
      auto& to = s.gpus[pick(s.gpus.size())];
      if (to.empty()) {
        to.push_back(Stage{{v}});
      } else {
        to[pick(to.size())].ops.push_back(v);
      }
      break;
    }
    default:
      std::swap(stages[a], stages[b]);
  }
}

TEST(Validate, MatchesReachabilityOracle) {
  // validate_schedule checks stage independence by direct intra-stage
  // edges plus the timing core's cycle check; the oracle checks every pair
  // of a stage against the full reachability closure. The verdicts must
  // agree, including on transitive-only schedules, where a stage groups two
  // ops joined only through another stage: that is a stage-graph cycle.
  const cost::TableCostModel cost;
  std::mt19937_64 rng(26);
  int cases = 0, invalid = 0, transitive_only = 0;
  for (int iter = 0; iter < 48; ++iter) {
    models::RandomDagParams p;
    p.num_ops = 10 + 4 * (iter % 6);
    p.num_layers = 3 + iter % 4;
    p.num_deps = 2 * p.num_ops;
    p.seed = static_cast<uint64_t>(100 + iter);
    const graph::Graph g = models::random_dag(p);
    SchedulerConfig config;
    config.num_gpus = 1 + iter % 4;
    for (const char* alg : {"hios-lp", "hios-mr", "sequential", "inter-lp"}) {
      const Schedule base = make_scheduler(alg)->schedule(g, cost, config).schedule;
      for (int m = 0; m < 12; ++m) {
        Schedule s = base;
        mutate(s, rng);
        const auto got = validate_schedule(g, s);
        const auto want = oracle::validate_schedule(g, s);
        ++cases;
        invalid += got.empty() ? 0 : 1;
        ASSERT_EQ(got.empty(), want.empty()) << alg << " iter " << iter << " mutation " << m;

        // Every direct intra-stage edge is named; a dependent pair with no
        // such edge is a transitive-only case.
        bool direct = false;
        for (const graph::Edge& e : g.edges()) {
          for (std::size_t gpu = 0; gpu < s.gpus.size(); ++gpu) {
            for (std::size_t pos = 0; pos < s.gpus[gpu].size(); ++pos) {
              const auto& ops = s.gpus[gpu][pos].ops;
              if (std::find(ops.begin(), ops.end(), e.src) == ops.end() ||
                  std::find(ops.begin(), ops.end(), e.dst) == ops.end())
                continue;
              direct = true;
              const std::string named = "stage " + std::to_string(pos) + " on GPU " +
                                        std::to_string(gpu) + " groups dependent ops " +
                                        g.node_name(e.src) + " and " + g.node_name(e.dst);
              EXPECT_TRUE(std::find(got.begin(), got.end(), named) != got.end()) << named;
            }
          }
        }
        const bool grouped_dependent = std::any_of(want.begin(), want.end(), [](const auto& v) {
          return v.find("groups dependent ops") != std::string::npos;
        });
        if (grouped_dependent && !direct) {
          ++transitive_only;
          EXPECT_NE(got.back().find("cycle"), std::string::npos) << got.back();
        }
      }
    }
  }
  EXPECT_EQ(cases, 48 * 4 * 12);
  EXPECT_GT(invalid, cases / 4);
  EXPECT_LT(invalid, cases * 3 / 4);
  EXPECT_GT(transitive_only, 0);
}

}  // namespace
}  // namespace hios::sched
