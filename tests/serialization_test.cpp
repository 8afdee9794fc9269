// Tests for graph JSON serialization, batch-size options, and JSON parser
// robustness under random inputs.
#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/graph_json.h"
#include "models/inception.h"
#include "models/random_dag.h"
#include "models/resnet.h"
#include "util/json.h"
#include "util/rng.h"

namespace hios {
namespace {

TEST(GraphJson, RoundTripPreservesEverything) {
  models::RandomDagParams p;
  p.num_ops = 40;
  p.num_layers = 6;
  p.num_deps = 80;
  p.seed = 12;
  const graph::Graph original = models::random_dag(p);
  const graph::Graph back = graph::from_json(Json::parse(graph::to_json(original).dump()));

  ASSERT_EQ(back.num_nodes(), original.num_nodes());
  ASSERT_EQ(back.num_edges(), original.num_edges());
  EXPECT_EQ(back.name(), original.name());
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(original.num_nodes()); ++v) {
    EXPECT_EQ(back.node_name(v), original.node_name(v));
    EXPECT_DOUBLE_EQ(back.node_weight(v), original.node_weight(v));
    EXPECT_EQ(back.node_tag(v), original.node_tag(v));
  }
  for (std::size_t e = 0; e < original.num_edges(); ++e) {
    EXPECT_EQ(back.edges()[e].src, original.edges()[e].src);
    EXPECT_EQ(back.edges()[e].dst, original.edges()[e].dst);
    EXPECT_DOUBLE_EQ(back.edges()[e].weight, original.edges()[e].weight);
  }
  // Derived quantities agree exactly.
  EXPECT_EQ(graph::priority_order(back), graph::priority_order(original));
}

TEST(GraphJson, TagsSurviveForModelGraphs) {
  const ops::Model m = models::make_inception_v3();
  const graph::Graph g = m.to_graph();
  const graph::Graph back = graph::from_json(graph::to_json(g));
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes()); ++v)
    EXPECT_EQ(back.node_tag(v), g.node_tag(v));
}

TEST(GraphJson, MalformedDocumentsThrow) {
  EXPECT_THROW(graph::from_json(Json::parse("{}")), Error);
  EXPECT_THROW(graph::from_json(Json::parse(R"({"name":"x","nodes":[],"edges":
      [{"src":0,"dst":1,"weight":1}]})")),
               Error);  // dangling endpoints
  EXPECT_THROW(graph::from_json(Json::parse(R"({"name":"x","nodes":
      [{"name":"a","weight":-1,"tag":-1}],"edges":[]})")),
               Error);  // negative weight
  // Ids too wide for a node, and fractional ones: 4294967296 once loaded
  // as node 0 and 1.4 as node 1.
  for (const char* doc : {
           R"({"name":"x","nodes":[{"name":"a","weight":1,"tag":-1},
               {"name":"b","weight":1,"tag":-1}],"edges":[{"src":4294967296,"dst":1,"weight":1}]})",
           R"({"name":"x","nodes":[{"name":"a","weight":1,"tag":-1},
               {"name":"b","weight":1,"tag":-1}],"edges":[{"src":0,"dst":1.4,"weight":1}]})",
           R"({"name":"x","nodes":[{"name":"a","weight":1,"tag":0.5}],"edges":[]})",
           R"({"name":"x","nodes":[{"name":"a","weight":1,"tag":1e300}],"edges":[]})",
       }) {
    EXPECT_THROW(graph::from_json(Json::parse(doc)), Error) << doc;
  }
}

TEST(GraphJson, EmptyGraph) {
  graph::Graph g("empty");
  const graph::Graph back = graph::from_json(graph::to_json(g));
  EXPECT_EQ(back.num_nodes(), 0u);
  EXPECT_EQ(back.name(), "empty");
}

TEST(Batch, ScalesFlopsLinearly) {
  models::InceptionV3Options one, four;
  four.batch = 4;
  const auto m1 = models::make_inception_v3(one);
  const auto m4 = models::make_inception_v3(four);
  EXPECT_EQ(m4.num_compute_ops(), m1.num_compute_ops());
  // Conv flops scale exactly with batch (pool/concat too).
  EXPECT_NEAR(static_cast<double>(m4.total_flops()) / static_cast<double>(m1.total_flops()),
              4.0, 0.01);
}

TEST(Batch, ResnetBatchShapes) {
  models::ResnetOptions opt;
  opt.batch = 2;
  const auto m = models::make_resnet50(opt);
  EXPECT_EQ(m.output_shape(m.num_ops() - 1).n, 2);
}

TEST(JsonFuzz, RandomBytesNeverCrash) {
  Rng rng(2024);
  int parsed_ok = 0;
  for (int i = 0; i < 500; ++i) {
    const std::size_t len = rng.index(60) + 1;
    std::string text;
    for (std::size_t k = 0; k < len; ++k) {
      // Bias toward JSON-ish characters to reach deeper parser states.
      static const char alphabet[] = "{}[]\",:0123456789.eE+-truefalsn \t\n\\u";
      text.push_back(alphabet[rng.index(sizeof(alphabet) - 1)]);
    }
    try {
      (void)Json::parse(text);
      ++parsed_ok;
    } catch (const Error&) {
      // expected for most random inputs
    }
  }
  // Some random inputs (e.g. bare numbers) do parse.
  EXPECT_GT(parsed_ok, 0);
}

TEST(JsonFuzz, MutatedValidDocumentsNeverCrash) {
  const ops::Model m = models::make_resnet50();
  const std::string base = graph::to_json(m.to_graph()).dump();
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    std::string text = base;
    // Flip a few characters.
    for (int k = 0; k < 3; ++k) {
      const std::size_t pos = rng.index(text.size());
      text[pos] = static_cast<char>(rng.uniform_int(32, 126));
    }
    try {
      const Json j = Json::parse(text);
      (void)graph::from_json(j);  // may throw Error; must not crash/UB
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace hios
