// Seeded mutation suite for schedule JSON: every consumer of an outside
// schedule must reject a malformed one with hios::Error, never crash or
// reach undefined behaviour (the unit tier runs under ASan + UBSan).
//
// Valid to_json documents are mutated (GPU counts, op ids, stage lists and
// value types; duplicated, missing and empty stages) and each result is
// pushed through Schedule::from_json -> validate_schedule ->
// evaluate_schedule / simulate_stages / simulate_ops / simulate_pipeline.
// An exception of any other type escapes the try blocks below and fails the
// test.
#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "cost/table_model.h"
#include "models/random_dag.h"
#include "sched/evaluate.h"
#include "sched/schedule.h"
#include "sched/scheduler.h"
#include "sched/validate.h"
#include "sim/event_sim.h"
#include "sim/pipeline_sim.h"

namespace hios::sched {
namespace {

const cost::TableCostModel kCost;

graph::Graph fuzz_graph() {
  models::RandomDagParams p;
  p.num_ops = 24;
  p.num_layers = 5;
  p.num_deps = 40;
  p.seed = 11;
  return models::random_dag(p);
}

/// What a document did: rejected by from_json, parsed but invalid, or valid.
enum class Outcome { kRejected, kInvalid, kValid };

template <typename F>
void structured_or_success(F&& f) {
  try {
    f();
  } catch (const Error&) {
    // a structured rejection is the contract
  }
}

Outcome consume(const graph::Graph& g, const Json& doc) {
  Schedule s;
  try {
    s = Schedule::from_json(doc);
  } catch (const Error&) {
    return Outcome::kRejected;
  }
  const bool valid = validate_schedule(g, s).empty();
  structured_or_success([&] { (void)evaluate_schedule(g, s, kCost); });
  structured_or_success([&] { (void)sim::simulate_stages(g, s, kCost); });
  structured_or_success([&] { (void)sim::simulate_ops(g, s, kCost); });
  structured_or_success([&] { (void)sim::simulate_pipeline(g, s, kCost, 3); });
  if (valid) {
    // A schedule validate_schedule accepts is evaluable and deadlock-free.
    EXPECT_TRUE(evaluate_schedule(g, s, kCost).has_value()) << doc.dump();
  }
  return valid ? Outcome::kValid : Outcome::kInvalid;
}

/// The values hostile_value() chooses from.
constexpr int kHostileValues = 14;

/// Value `which` of kHostileValues: of the wrong type, or out of range for
/// a GPU count (none equals the count of any base document) or an op id.
Json hostile_value(uint64_t which, int num_nodes) {
  switch (which % kHostileValues) {
    case 0: return Json(-1);
    case 1: return Json(0);
    case 2: return Json(num_nodes);
    case 3: return Json(int64_t{1} << 31);
    case 4: return Json(-(int64_t{1} << 31) - 1);
    case 5: return Json(1e18);
    case 6: return Json(1000000000);
    case 7: return Json(2.5);
    case 8: return Json(std::numeric_limits<double>::quiet_NaN());
    case 9: return Json("3");
    case 10: return Json(nullptr);
    case 11: return Json(true);
    case 12: return Json::array();
    default: return Json::object();
  }
}

/// Applies one random structural or value mutation to a schedule document.
void mutate(Json& doc, std::mt19937_64& rng, int num_nodes) {
  auto& gpus = doc["gpus"].as_array();
  auto& stages = gpus[rng() % gpus.size()].as_array();
  const auto pick = [&](std::size_t size) { return static_cast<std::ptrdiff_t>(rng() % size); };
  switch (rng() % 12) {
    case 0:  // GPU count: off by one, absurd, or the wrong type
      doc["num_gpus"] = rng() % 2 == 0 ? Json(static_cast<int>(gpus.size()) +
                                              static_cast<int>(rng() % 3) - 1)
                                       : hostile_value(rng(), num_nodes);
      break;
    case 1:  // GPU stage lists: one more or one fewer than num_gpus
      if (rng() % 2 == 0) {
        gpus.push_back(Json::array());
      } else {
        gpus.pop_back();
      }
      break;
    case 2:  // a missing stage (its ops drop out of the schedule)
      if (!stages.empty()) stages.erase(stages.begin() + pick(stages.size()));
      break;
    case 3:  // a duplicated stage (its ops are scheduled twice)
      if (!stages.empty()) stages.push_back(stages[static_cast<std::size_t>(pick(stages.size()))]);
      break;
    case 4:  // an empty stage
      stages.insert(stages.begin() + pick(stages.size() + 1), Json::array());
      break;
    case 5:  // two stages swapped (often an execution-order deadlock)
      if (stages.size() >= 2) {
        const auto i = static_cast<std::size_t>(pick(stages.size() - 1));
        std::swap(stages[i], stages[i + 1]);
      }
      break;
    case 6:  // two stages merged into one (possibly dependent ops grouped)
      if (stages.size() >= 2) {
        const auto i = static_cast<std::size_t>(pick(stages.size() - 1));
        for (const Json& op : stages[i + 1].as_array()) stages[i].push_back(op);
        stages.erase(stages.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      }
      break;
    case 7:  // an op id: another node's, out of range, or the wrong type
    case 8:
      if (!stages.empty()) {
        auto& ops = stages[static_cast<std::size_t>(pick(stages.size()))].as_array();
        if (ops.empty()) break;
        Json& op = ops[static_cast<std::size_t>(pick(ops.size()))];
        op["id"] = rng() % 2 == 0 ? Json(static_cast<int>(rng() % num_nodes))
                                  : hostile_value(rng(), num_nodes);
      }
      break;
    case 9:  // an op whose "id" is gone, or an op that is not an object
      if (!stages.empty()) {
        auto& ops = stages[static_cast<std::size_t>(pick(stages.size()))].as_array();
        if (ops.empty()) break;
        Json& op = ops[static_cast<std::size_t>(pick(ops.size()))];
        if (rng() % 2 == 0) {
          op.as_object().erase("id");
        } else {
          op = hostile_value(rng(), num_nodes);
        }
      }
      break;
    case 10:  // a stage or a GPU list of the wrong type
      if (!stages.empty() && rng() % 2 == 0) {
        stages[static_cast<std::size_t>(pick(stages.size()))] = hostile_value(rng(), num_nodes);
      } else {
        gpus[static_cast<std::size_t>(pick(gpus.size()))] = hostile_value(rng(), num_nodes);
      }
      break;
    default:  // a top-level field of the wrong type, or missing
      if (rng() % 2 == 0) {
        doc[rng() % 2 == 0 ? "gpus" : "num_gpus"] = hostile_value(rng(), num_nodes);
      } else {
        doc.as_object().erase(rng() % 2 == 0 ? "gpus" : "num_gpus");
      }
      break;
  }
}

TEST(ScheduleJsonFuzz, MutatedDocumentsFailCleanly) {
  const graph::Graph g = fuzz_graph();
  const int n = static_cast<int>(g.num_nodes());
  std::vector<Json> bases;
  for (const auto& [algorithm, gpus] :
       {std::pair{"sequential", 1}, std::pair{"hios-lp", 4}, std::pair{"hios-mr", 2},
        std::pair{"ios", 1}}) {
    SchedulerConfig config;
    config.num_gpus = gpus;
    const ScheduleResult r = make_scheduler(algorithm)->schedule(g, kCost, config);
    ASSERT_EQ(consume(g, r.schedule.to_json(g)), Outcome::kValid) << algorithm;
    bases.push_back(r.schedule.to_json(g));
  }

  std::mt19937_64 rng(0x5C4ED);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 1200; ++i) {
    Json doc = bases[static_cast<std::size_t>(i) % bases.size()];
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < mutations; ++k) {
      // Once a mutation has broken the top-level shape, stop mutating.
      if (!doc.contains("gpus") || !doc["gpus"].is_array() || doc["gpus"].size() == 0) break;
      bool shaped = true;
      for (const Json& list : doc["gpus"].as_array()) shaped = shaped && list.is_array();
      if (!shaped) break;
      try {
        mutate(doc, rng, n);
      } catch (const Error&) {
        // the mutation reached a part an earlier one already broke
      }
    }
    // Half the documents also round-trip through the text parser, which may
    // itself reject what it cannot print back (a NaN).
    Json input = doc;
    if (i % 2 == 1) {
      try {
        input = Json::parse(doc.dump());
      } catch (const Error&) {
        ++counts[static_cast<int>(Outcome::kRejected)];
        continue;
      }
    }
    ++counts[static_cast<int>(consume(g, input))];
  }
  // The mutations reach every layer: parse-time rejections, schedules that
  // parse but fail validation, and schedules that survive as valid.
  EXPECT_GT(counts[static_cast<int>(Outcome::kRejected)], 100);
  EXPECT_GT(counts[static_cast<int>(Outcome::kInvalid)], 100);
  EXPECT_GT(counts[static_cast<int>(Outcome::kValid)], 20);
}

TEST(ScheduleJsonFuzz, EveryFieldOfTheWrongValueIsRejectedAtParse) {
  // Each hostile value that cannot be a GPU count or an op id is rejected
  // by from_json itself, before any schedule is sized from it.
  const graph::Graph g = fuzz_graph();
  SchedulerConfig config;
  config.num_gpus = 2;
  const Json base = make_scheduler("hios-mr")->schedule(g, kCost, config).schedule.to_json(g);
  for (uint64_t which = 0; which < kHostileValues; ++which) {
    Json bad_count = base;
    bad_count["num_gpus"] = hostile_value(which, static_cast<int>(g.num_nodes()));
    EXPECT_THROW(Schedule::from_json(bad_count), Error) << bad_count["num_gpus"].dump();
  }
  for (const Json& id : {Json(-1), Json(int64_t{1} << 31), Json(-(int64_t{1} << 31) - 1),
                         Json(1e18), Json(std::numeric_limits<double>::quiet_NaN()), Json("3"),
                         Json(nullptr), Json(true), Json::array(), Json::object()}) {
    Json bad_id = base;
    bad_id["gpus"].as_array()[0].as_array()[0].as_array()[0]["id"] = id;
    EXPECT_THROW(Schedule::from_json(bad_id), Error) << id.dump();
  }
}

}  // namespace
}  // namespace hios::sched
