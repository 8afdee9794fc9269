// Tests for the Schedule data model, JSON round trip, and validation.
#include <gtest/gtest.h>

#include "models/examples.h"
#include "sched/schedule.h"
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
  const auto stage_of = s.stage_index(4);
  EXPECT_EQ(stage_of[0], 0);
  EXPECT_EQ(stage_of[2], 1);
  EXPECT_EQ(stage_of[1], 2);
  EXPECT_EQ(stage_of[3], 0);
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

}  // namespace
}  // namespace hios::sched
