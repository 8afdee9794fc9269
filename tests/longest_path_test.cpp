// Unit tests for the longest-valid-path extraction of Alg. 1.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>

#include "graph/algorithms.h"
#include "graph/longest_path.h"
#include "models/examples.h"
#include "models/random_dag.h"
#include "oracles/oracles.h"

namespace hios::graph {
namespace {

DynBitset mask(std::size_t n, std::initializer_list<int> bits) {
  DynBitset m(n);
  for (int b : bits) m.set(static_cast<std::size_t>(b));
  return m;
}

TEST(LongestValidPath, EmptyMaskFindsGlobalLongestPath) {
  // Chain 3 nodes: path must be the whole chain; length = nodes + edges.
  Graph g = models::make_chain(3, 2.0, 0.5);
  auto p = longest_valid_path(g, DynBitset(3));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(p->length, 3 * 2.0 + 2 * 0.5);
}

TEST(LongestValidPath, AllScheduledReturnsNullopt) {
  Graph g = models::make_chain(2);
  EXPECT_FALSE(longest_valid_path(g, mask(2, {0, 1})).has_value());
}

TEST(LongestValidPath, PicksHeavierBranch) {
  Graph g;
  const NodeId a = g.add_node("a", 1.0);
  const NodeId b = g.add_node("b", 5.0);   // heavy branch
  const NodeId c = g.add_node("c", 1.0);   // light branch
  const NodeId d = g.add_node("d", 1.0);
  g.add_edge(a, b, 0.1);
  g.add_edge(a, c, 0.1);
  g.add_edge(b, d, 0.1);
  g.add_edge(c, d, 0.1);
  auto p = longest_valid_path(g, DynBitset(4));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{a, b, d}));
}

TEST(LongestValidPath, Fig4FirstPathIsSpine) {
  // With default weights the spine v1-v2-v4-v6-v8 is the longest path.
  Graph g = models::make_fig4_graph();
  auto p = longest_valid_path(g, DynBitset(8));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 1, 3, 5, 7}));  // v1 v2 v4 v6 v8
  // length = t(v1..)+edges: 3+2+3+2+2 + e1+e3+e5+e8 = 12 + 1+1+1+1 = 16
  EXPECT_DOUBLE_EQ(p->length, 16.0);
}

TEST(LongestValidPath, Fig4SecondPathRespectsValidityConstraint) {
  // After scheduling the spine, the paper's P2 = {e2, v3, e4, v5, e6}:
  // v5 has an edge to scheduled v6, so v5 can only be first/last; the
  // longer chain v3-v5-v7 is invalid because its intermediate v5 touches
  // the scheduled subgraph. Expect the chain {v3, v5} with head bonus e2
  // and tail bonus max(e6, e7).
  Graph g = models::make_fig4_graph();
  const DynBitset spine = mask(8, {0, 1, 3, 5, 7});
  auto p = longest_valid_path(g, spine);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{2, 4}));  // v3, v5
  // t(v3)+t(v5) + e4 + head e2 + tail max(e6 to v6, e7 to v7? e7 goes to
  // unscheduled v7 -> not a boundary edge) = 1+2+0.5+0.5+0.5 = 4.5
  EXPECT_DOUBLE_EQ(p->length, 4.5);
}

TEST(LongestValidPath, Fig4ThirdPathIsV7WithBonuses) {
  Graph g = models::make_fig4_graph();
  const DynBitset done = mask(8, {0, 1, 2, 3, 4, 5, 7});
  auto p = longest_valid_path(g, done);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{6}));  // v7
  // t(v7) + head e7 + tail e9 = 1 + 0.5 + 0.5 = 2
  EXPECT_DOUBLE_EQ(p->length, 2.0);
}

TEST(LongestValidPath, DirtyNodeCanStartAChain) {
  // s (scheduled) -> a -> b: a is dirty but may be the chain's first node.
  Graph g;
  const NodeId s = g.add_node("s", 1.0);
  const NodeId a = g.add_node("a", 1.0);
  const NodeId b = g.add_node("b", 1.0);
  g.add_edge(s, a, 2.0);
  g.add_edge(a, b, 0.5);
  auto p = longest_valid_path(g, mask(3, {0}));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{a, b}));
  EXPECT_DOUBLE_EQ(p->length, 2.0 + 1.0 + 0.5 + 1.0);  // head bonus + chain
}

TEST(LongestValidPath, DirtyNodeCannotBeIntermediate) {
  // Chain a -> b -> c where b also feeds a scheduled node s.
  // Valid chains: {a,b} or {b,c} (b first/last), never {a,b,c}.
  Graph g;
  const NodeId a = g.add_node("a", 1.0);
  const NodeId b = g.add_node("b", 1.0);
  const NodeId c = g.add_node("c", 1.0);
  const NodeId s = g.add_node("s", 1.0);
  g.add_edge(a, b, 0.1);
  g.add_edge(b, c, 0.1);
  g.add_edge(b, s, 5.0);  // big tail bonus toward scheduled node
  auto p = longest_valid_path(g, mask(4, {3}));
  ASSERT_TRUE(p.has_value());
  // {a,b} with tail bonus 5: 1+0.1+1+5 = 7.1 beats {b,c} (1+5?? no: tail
  // bonus applies at the chain end b only when b is last) = 7.1.
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{a, b}));
  EXPECT_DOUBLE_EQ(p->length, 7.1);
}

TEST(LongestValidPath, SingleNodeGraph) {
  Graph g;
  g.add_node("only", 3.0);
  auto p = longest_valid_path(g, DynBitset(1));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, std::vector<NodeId>{0});
  EXPECT_DOUBLE_EQ(p->length, 3.0);
}

TEST(LongestValidPath, IteratedExtractionCoversGraph) {
  Graph g = models::make_fig4_graph();
  DynBitset scheduled(8);
  std::size_t covered = 0;
  while (covered < 8) {
    auto p = longest_valid_path(g, scheduled);
    ASSERT_TRUE(p.has_value());
    EXPECT_FALSE(p->nodes.empty());
    for (NodeId v : p->nodes) {
      EXPECT_FALSE(scheduled.test(static_cast<std::size_t>(v)));
      scheduled.set(static_cast<std::size_t>(v));
      ++covered;
    }
  }
  EXPECT_EQ(scheduled.count(), 8u);
}

TEST(LongestValidPath, PathLengthsNonIncreasingOnFig4) {
  Graph g = models::make_fig4_graph();
  DynBitset scheduled(8);
  double prev = 1e300;
  while (scheduled.count() < 8) {
    auto p = longest_valid_path(g, scheduled);
    ASSERT_TRUE(p.has_value());
    // Not a theorem in general (bonuses appear as the frontier grows), but
    // holds on this example and guards against regressions.
    EXPECT_LE(p->length, prev);
    prev = p->length;
    for (NodeId v : p->nodes) scheduled.set(static_cast<std::size_t>(v));
  }
}

TEST(LongestValidPath, MaskSizeMismatchThrows) {
  Graph g = models::make_chain(3);
  EXPECT_THROW(longest_valid_path(g, DynBitset(2)), Error);
}

/// Extracts every path with one finder, checking each against the oracle's
/// from-scratch DP on the same mask, path and length bits. Returns the
/// number of extractions.
std::size_t expect_finder_matches_oracle(const Graph& g, DynBitset scheduled,
                                         const std::string& label) {
  const auto topo = topological_sort(g);
  EXPECT_TRUE(topo.has_value()) << label;
  if (!topo) return 0;
  ValidPathFinder finder(g, *topo, scheduled);
  std::size_t extractions = 0;
  while (true) {
    const auto want = oracle::longest_valid_path(g, scheduled, *topo);
    const auto got = finder.next();
    EXPECT_EQ(want.has_value(), got.has_value()) << label;
    if (!want || !got) break;
    ++extractions;
    EXPECT_EQ(want->nodes, got->nodes) << label << " extraction " << extractions;
    EXPECT_EQ(std::bit_cast<uint64_t>(want->length), std::bit_cast<uint64_t>(got->length))
        << label << " extraction " << extractions;
    if (want->nodes != got->nodes) break;
    for (NodeId v : want->nodes) scheduled.set(static_cast<std::size_t>(v));
  }
  EXPECT_EQ(scheduled.count(), g.num_nodes()) << label;
  return extractions;
}

TEST(LongestValidPath, FinderMatchesOneShotOnEveryExtraction) {
  // The finder keeps its DP across extractions and recomputes only what a
  // taken path changes; the oracle runs the whole DP from scratch on the
  // same mask. Half the DAGs get small integer weights, so equal lengths
  // and equal chain candidates are common and the tie-breaks are exercised;
  // half start from a random pre-scheduled mask.
  std::mt19937_64 rng(0xF1ED);
  std::size_t extractions = 0;
  for (int iter = 0; iter < 200; ++iter) {
    models::RandomDagParams p;
    p.num_ops = 10 + static_cast<int>(rng() % 110);
    p.num_layers = 2 + static_cast<int>(rng() % 8);
    p.num_deps = p.num_ops + static_cast<int>(rng() % (2 * p.num_ops));
    p.seed = rng();
    Graph g = models::random_dag(p);
    const std::size_t n = g.num_nodes();
    if (iter % 2 == 0) {
      for (NodeId v = 0; v < static_cast<NodeId>(n); ++v)
        g.set_node_weight(v, static_cast<double>(1 + rng() % 3));
      for (EdgeId e = 0; e < static_cast<EdgeId>(g.num_edges()); ++e)
        g.set_edge_weight(e, static_cast<double>(rng() % 2));
    }
    DynBitset scheduled(n);
    if (iter % 4 < 2)
      for (std::size_t v = 0; v < n; ++v)
        if (rng() % 4 == 0) scheduled.set(v);
    extractions += expect_finder_matches_oracle(g, scheduled, "dag " + std::to_string(iter));
  }
  EXPECT_GT(extractions, 2000u);

  // Fig. 14's DAG shape (22 layers per 512 ops, 2 dependencies per op) at
  // 256-4096 ops, where a taken path's changes stay local and most
  // positions are never recomputed; each size once from an empty mask and
  // once with ~1/8 of the vertices pre-scheduled.
  std::size_t large = 0;
  for (int ops : {256, 512, 1024, 2048, 4096}) {
    models::RandomDagParams p;
    p.num_ops = ops;
    p.num_layers = 22 * ops / 512;
    p.num_deps = 2 * ops;
    p.seed = 7 + static_cast<uint64_t>(ops);
    const Graph g = models::random_dag(p);
    DynBitset scheduled(g.num_nodes());
    large += expect_finder_matches_oracle(g, scheduled, std::to_string(ops) + " ops");
    for (std::size_t v = 0; v < g.num_nodes(); ++v)
      if (rng() % 8 == 0) scheduled.set(v);
    large += expect_finder_matches_oracle(g, scheduled, std::to_string(ops) + " ops, masked");
  }
  EXPECT_GT(large, 5000u);
}

}  // namespace
}  // namespace hios::graph
