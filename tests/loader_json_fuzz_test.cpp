// Seeded mutation suites for the graph and fault-plan JSON loaders: a
// malformed outside document must be rejected with hios::Error, never crash
// or reach undefined behaviour (the unit tier runs under ASan + UBSan).
//
// Valid to_json documents are mutated (ids, GPU numbers, weights, times and
// value types; duplicated, missing and extra entries) and each result goes
// through graph::from_json or FaultPlan::from_json and, when it loads, the
// code that reads the loaded value. An exception of any other type escapes
// the try blocks below and fails the test.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "fault/fault_plan.h"
#include "graph/algorithms.h"
#include "graph/graph_json.h"
#include "models/random_dag.h"
#include "util/json.h"

namespace hios {
namespace {

/// The values hostile_value() chooses from.
constexpr int kHostileValues = 17;

/// Value `which` of kHostileValues: of the wrong type, negative,
/// fractional, non-finite, or too wide for a 32-bit id.
Json hostile_value(uint64_t which) {
  switch (which % kHostileValues) {
    case 0: return Json(-1);
    case 1: return Json(0);
    case 2: return Json(int64_t{1} << 31);
    case 3: return Json(int64_t{1} << 32);
    case 4: return Json((int64_t{1} << 32) + 1);
    case 5: return Json(-(int64_t{1} << 31) - 1);
    case 6: return Json(1e18);
    case 7: return Json(1e300);
    case 8: return Json(1.4);
    case 9: return Json(std::numeric_limits<double>::quiet_NaN());
    case 10: return Json(std::numeric_limits<double>::infinity());
    case 11: return Json(-std::numeric_limits<double>::infinity());
    case 12: return Json("3");
    case 13: return Json(nullptr);
    case 14: return Json(true);
    case 15: return Json::array();
    default: return Json::object();
  }
}

/// What a document did: rejected by from_json, or loaded.
enum class Outcome { kRejected, kLoaded };

/// Half the documents also round-trip through the text parser, which may
/// itself reject what it cannot print back (a NaN or an infinity).
template <typename Consume>
Outcome feed(const Json& doc, int i, Consume&& consume) {
  Json input = doc;
  if (i % 2 == 1) {
    try {
      input = Json::parse(doc.dump());
    } catch (const Error&) {
      return Outcome::kRejected;
    }
  }
  return consume(input);
}

// --- graph JSON --------------------------------------------------------

Outcome consume_graph(const Json& doc) {
  graph::Graph g;
  try {
    g = graph::from_json(doc);
  } catch (const Error&) {
    return Outcome::kRejected;
  }
  // Every loaded edge names two loaded nodes, and the graph round-trips.
  for (const graph::Edge& e : g.edges()) {
    EXPECT_GE(e.src, 0);
    EXPECT_LT(static_cast<std::size_t>(e.src), g.num_nodes());
    EXPECT_GE(e.dst, 0);
    EXPECT_LT(static_cast<std::size_t>(e.dst), g.num_nodes());
  }
  const graph::Graph back = graph::from_json(graph::to_json(g));
  EXPECT_EQ(back.num_nodes(), g.num_nodes());
  EXPECT_EQ(back.edges().size(), g.edges().size());
  if (graph::is_dag(g)) {
    (void)graph::priority_order(g);
    (void)graph::critical_path_length(g, /*with_edge_weights=*/true);
  }
  return Outcome::kLoaded;
}

void mutate_graph(Json& doc, std::mt19937_64& rng) {
  auto& nodes = doc["nodes"].as_array();
  auto& edges = doc["edges"].as_array();
  const auto pick = [&](std::size_t size) { return static_cast<std::size_t>(rng() % size); };
  const int n = static_cast<int>(nodes.size());
  switch (rng() % 8) {
    case 0:  // an edge endpoint: another node, hostile, or missing
    case 1: {
      if (edges.empty()) break;
      Json& edge = edges[pick(edges.size())];
      const char* end = rng() % 2 == 0 ? "src" : "dst";
      switch (rng() % 3) {
        case 0: edge[end] = Json(n == 0 ? 0 : static_cast<int>(rng() % n)); break;
        case 1: edge[end] = hostile_value(rng()); break;
        default: edge.as_object().erase(end); break;
      }
      break;
    }
    case 2: {  // an edge weight: hostile or missing
      if (edges.empty()) break;
      Json& edge = edges[pick(edges.size())];
      if (rng() % 2 == 0) {
        edge["weight"] = hostile_value(rng());
      } else {
        edge.as_object().erase("weight");
      }
      break;
    }
    case 3: {  // a node field: hostile or missing
      if (nodes.empty()) break;
      Json& node = nodes[pick(nodes.size())];
      const char* field = rng() % 3 == 0 ? "name" : (rng() % 2 == 0 ? "weight" : "tag");
      if (rng() % 4 != 0) {
        node[field] = hostile_value(rng());
      } else {
        node.as_object().erase(field);
      }
      break;
    }
    case 4:  // a duplicated edge
      if (!edges.empty()) edges.push_back(edges[pick(edges.size())]);
      break;
    case 5:  // a reversed edge (often a cycle) or a self-loop
      if (!edges.empty()) {
        Json edge = edges[pick(edges.size())];
        if (rng() % 2 == 0) {
          std::swap(edge["src"], edge["dst"]);
        } else {
          edge["dst"] = edge["src"];
        }
        edges.push_back(std::move(edge));
      }
      break;
    case 6:  // a node removed (edges past it now dangle)
      if (!nodes.empty()) {
        nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(pick(nodes.size())));
      }
      break;
    default:  // an entry or a top-level field of the wrong type, or missing
      if (rng() % 2 == 0 && !edges.empty()) {
        edges[pick(edges.size())] = hostile_value(rng());
      } else if (rng() % 2 == 0) {
        doc[rng() % 2 == 0 ? "nodes" : "edges"] = hostile_value(rng());
      } else {
        doc.as_object().erase(rng() % 3 == 0 ? "name" : (rng() % 2 == 0 ? "nodes" : "edges"));
      }
      break;
  }
}

bool graph_shaped(const Json& doc) {
  return doc.is_object() && doc.contains("nodes") && doc.at("nodes").is_array() &&
         doc.contains("edges") && doc.at("edges").is_array();
}

TEST(GraphJsonFuzz, MutatedDocumentsFailCleanly) {
  std::vector<Json> bases;
  for (uint64_t seed : {3, 11, 29}) {
    models::RandomDagParams p;
    p.num_ops = 24;
    p.num_layers = 5;
    p.num_deps = 40;
    p.seed = seed;
    const graph::Graph g = models::random_dag(p);
    ASSERT_EQ(consume_graph(graph::to_json(g)), Outcome::kLoaded);
    bases.push_back(graph::to_json(g));
  }

  std::mt19937_64 rng(0x6A50F);
  int counts[2] = {0, 0};
  for (int i = 0; i < 1200; ++i) {
    Json doc = bases[static_cast<std::size_t>(i) % bases.size()];
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < mutations && graph_shaped(doc); ++k) {
      try {
        mutate_graph(doc, rng);
      } catch (const Error&) {
        // the mutation reached a part an earlier one already broke
      }
    }
    ++counts[static_cast<int>(feed(doc, i, consume_graph))];
  }
  EXPECT_GT(counts[static_cast<int>(Outcome::kRejected)], 300);
  EXPECT_GT(counts[static_cast<int>(Outcome::kLoaded)], 100);
}

TEST(GraphJsonFuzz, EveryIdOfTheWrongValueIsRejected) {
  models::RandomDagParams p;
  p.num_ops = 8;
  p.num_layers = 3;
  p.num_deps = 10;
  const Json base = graph::to_json(models::random_dag(p));
  for (uint64_t which = 0; which < kHostileValues; ++which) {
    const Json v = hostile_value(which);
    if (v.is_number() && v.as_number() == 0.0) continue;  // node 0 is a valid endpoint
    for (const char* end : {"src", "dst"}) {
      Json bad = base;
      bad["edges"].as_array()[0][end] = v;
      EXPECT_THROW(graph::from_json(bad), Error) << end << " = " << v.dump();
    }
    const bool integral_tag = v.is_number() && std::trunc(v.as_number()) == v.as_number() &&
                              std::abs(v.as_number()) < 0x1p63;
    if (integral_tag) continue;  // any 64-bit integer is a valid tag
    Json bad = base;
    bad["nodes"].as_array()[0]["tag"] = v;
    EXPECT_THROW(graph::from_json(bad), Error) << "tag = " << v.dump();
  }
}

// --- fault-plan JSON ---------------------------------------------------

constexpr int kGpus = 4;

Outcome consume_plan(const Json& doc) {
  fault::FaultPlan plan;
  try {
    plan = fault::FaultPlan::from_json(doc);
  } catch (const Error&) {
    return Outcome::kRejected;
  }
  EXPECT_GE(plan.retry.max_attempts, 1);
  for (const fault::FailStop& f : plan.fail_stops) EXPECT_GE(f.gpu, 0);
  for (const fault::Straggler& s : plan.stragglers) EXPECT_GE(s.gpu, 0);
  for (const fault::LinkFault& f : plan.link_faults) {
    EXPECT_GE(f.gpu_a, 0);
    EXPECT_GE(f.gpu_b, 0);
    EXPECT_NE(f.gpu_a, f.gpu_b);
  }
  // The queries the engine and the fault simulator make of a plan.
  const std::vector<int> survivors = {0, 2, 3};
  for (double t : {0.0, 1.0, 5.0}) {
    for (int a = 0; a < kGpus; ++a) {
      (void)plan.fail_time(a);
      (void)plan.compute_scale(a, t);
      for (int b = 0; b < kGpus; ++b) {
        if (a == b) continue;
        (void)plan.link_down(a, b, t);
        (void)plan.link_degradation(a, b, t);
      }
    }
    (void)fault::degraded_topology(cost::Topology{}, plan, survivors, t);
    // A transfer over every link: the retry record stays within the budget.
    for (int a = 0; a < kGpus; ++a) {
      for (int b = 0; b < kGpus; ++b) {
        if (a == b) continue;
        const fault::TransferResolution res = plan.resolve_transfer(a, b, t, 0.5);
        EXPECT_GE(res.attempts.size(), 1u);
        EXPECT_LE(res.attempts.size(), static_cast<std::size_t>(plan.retry.max_attempts));
        EXPECT_EQ(res.delivered, res.attempts.back().ok);
      }
    }
  }
  const fault::FaultPlan back = fault::FaultPlan::from_json(plan.to_json());
  EXPECT_EQ(back.fail_stops.size(), plan.fail_stops.size());
  EXPECT_EQ(back.link_faults.size(), plan.link_faults.size());
  return Outcome::kLoaded;
}

void mutate_plan(Json& doc, std::mt19937_64& rng) {
  static const char* const kSections[] = {"fail_stops", "stragglers", "link_faults"};
  static const char* const kFields[][7] = {
      {"gpu", "at_ms"},
      {"gpu", "from_ms", "slowdown"},
      {"gpu_a", "gpu_b", "from_ms", "to_ms", "down", "bw_scale", "extra_latency_ms"}};
  static const int kFieldCounts[] = {2, 3, 7};
  static const char* const kRetry[] = {"max_attempts", "initial_backoff_ms",
                                       "backoff_multiplier", "max_backoff_ms"};
  const auto pick = [&](std::size_t size) { return static_cast<std::size_t>(rng() % size); };
  const std::size_t s = pick(3);
  switch (rng() % 6) {
    case 0:  // an event field: a valid GPU, hostile, or missing
    case 1:
    case 2: {
      auto& events = doc[kSections[s]].as_array();
      if (events.empty()) break;
      Json& event = events[pick(events.size())];
      const char* field = kFields[s][pick(static_cast<std::size_t>(kFieldCounts[s]))];
      switch (rng() % 4) {
        case 0: event[field] = Json(static_cast<int>(rng() % kGpus)); break;
        case 3: event.as_object().erase(field); break;
        default: event[field] = hostile_value(rng()); break;
      }
      break;
    }
    case 3: {  // a retry field: hostile or missing
      Json& retry = doc["retry"];
      const char* field = kRetry[pick(4)];
      if (rng() % 4 != 0) {
        retry[field] = hostile_value(rng());
      } else {
        retry.as_object().erase(field);
      }
      break;
    }
    case 4: {  // a duplicated event, or an unknown key
      auto& events = doc[kSections[s]].as_array();
      if (!events.empty() && rng() % 2 == 0) {
        events.push_back(events[pick(events.size())]);
      } else if (!events.empty()) {
        events[pick(events.size())]["at"] = Json(1.0);
      } else {
        doc["fail_stop"] = Json::array();
      }
      break;
    }
    default:  // an event, a section or the seed of the wrong type, or missing
      if (rng() % 3 == 0) {
        doc["seed"] = hostile_value(rng());
      } else if (rng() % 2 == 0) {
        auto& events = doc[kSections[s]].as_array();
        if (!events.empty()) events[pick(events.size())] = hostile_value(rng());
      } else if (rng() % 2 == 0) {
        doc[kSections[s]] = hostile_value(rng());
      } else {
        doc.as_object().erase(kSections[s]);
      }
      break;
  }
}

bool plan_shaped(const Json& doc) {
  if (!doc.is_object() || !doc.contains("retry") || !doc.at("retry").is_object()) return false;
  for (const char* section : {"fail_stops", "stragglers", "link_faults"}) {
    if (!doc.contains(section) || !doc.at(section).is_array()) return false;
    for (const Json& event : doc.at(section).as_array()) {
      if (!event.is_object()) return false;
    }
  }
  return true;
}

TEST(FaultPlanJsonFuzz, MutatedDocumentsFailCleanly) {
  std::vector<Json> bases;
  for (uint64_t seed : {5, 17, 41}) {
    fault::FaultPlan::RandomParams p;
    p.num_gpus = kGpus;
    p.num_fail_stops = 2;
    p.num_stragglers = 2;
    p.num_link_faults = 3;
    const Json base = fault::FaultPlan::random(p, seed).to_json();
    ASSERT_EQ(consume_plan(base), Outcome::kLoaded);
    bases.push_back(base);
  }

  std::mt19937_64 rng(0xFA017);
  int counts[2] = {0, 0};
  for (int i = 0; i < 1200; ++i) {
    Json doc = bases[static_cast<std::size_t>(i) % bases.size()];
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < mutations && plan_shaped(doc); ++k) {
      try {
        mutate_plan(doc, rng);
      } catch (const Error&) {
        // the mutation reached a part an earlier one already broke
      }
    }
    ++counts[static_cast<int>(feed(doc, i, consume_plan))];
  }
  EXPECT_GT(counts[static_cast<int>(Outcome::kRejected)], 300);
  EXPECT_GT(counts[static_cast<int>(Outcome::kLoaded)], 100);
}

TEST(FaultPlanJsonFuzz, EveryGpuOfTheWrongValueIsRejected) {
  const Json base = Json::parse(R"({
    "retry": {"max_attempts": 3, "initial_backoff_ms": 0.1, "backoff_multiplier": 2.0,
              "max_backoff_ms": 1.0},
    "fail_stops": [{"gpu": 1, "at_ms": 1.0}],
    "stragglers": [{"gpu": 2, "from_ms": 0.0, "slowdown": 2.0}],
    "link_faults": [{"gpu_a": 0, "gpu_b": 1, "from_ms": 0.0, "to_ms": 1.0, "down": true,
                     "bw_scale": 1.0, "extra_latency_ms": 0.0}]})");
  ASSERT_EQ(consume_plan(base), Outcome::kLoaded);
  for (uint64_t which = 0; which < kHostileValues; ++which) {
    const Json v = hostile_value(which);
    if (v.is_number() && v.as_number() == 0.0) continue;  // GPU 0 is valid
    for (const auto& [section, field] :
         {std::pair{"fail_stops", "gpu"}, std::pair{"stragglers", "gpu"},
          std::pair{"link_faults", "gpu_a"}, std::pair{"link_faults", "gpu_b"}}) {
      Json bad = base;
      bad[section].as_array()[0][field] = v;
      EXPECT_THROW(fault::FaultPlan::from_json(bad), Error)
          << section << "." << field << " = " << v.dump();
    }
    Json bad = base;
    bad["retry"]["max_attempts"] = v;
    EXPECT_THROW(fault::FaultPlan::from_json(bad), Error) << "max_attempts = " << v.dump();
  }
}

}  // namespace
}  // namespace hios
