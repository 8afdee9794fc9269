// Unit tests for graph::Graph and graph algorithms.
#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/dot.h"
#include "graph/graph.h"
#include "models/examples.h"
#include "oracles/oracles.h"

namespace hios::graph {
namespace {

Graph diamond() {
  // a -> b, a -> c, b -> d, c -> d
  Graph g("diamond");
  const NodeId a = g.add_node("a", 1.0);
  const NodeId b = g.add_node("b", 2.0);
  const NodeId c = g.add_node("c", 3.0);
  const NodeId d = g.add_node("d", 1.0);
  g.add_edge(a, b, 0.5);
  g.add_edge(a, c, 0.5);
  g.add_edge(b, d, 0.5);
  g.add_edge(c, d, 0.5);
  return g;
}

TEST(Graph, BasicAccessors) {
  Graph g("t");
  const NodeId a = g.add_node("a", 1.5, 7);
  const NodeId b = g.add_node("b", 2.5);
  const EdgeId e = g.add_edge(a, b, 0.25);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.node_name(a), "a");
  EXPECT_DOUBLE_EQ(g.node_weight(b), 2.5);
  EXPECT_EQ(g.node_tag(a), 7);
  EXPECT_EQ(g.node_tag(b), -1);
  EXPECT_EQ(g.edge(e).src, a);
  EXPECT_EQ(g.edge(e).dst, b);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 0.25);
  EXPECT_EQ(g.out_degree(a), 1u);
  EXPECT_EQ(g.in_degree(b), 1u);
  EXPECT_DOUBLE_EQ(g.total_node_weight(), 4.0);
}

TEST(Graph, WeightMutation) {
  Graph g;
  const NodeId a = g.add_node("a", 1.0);
  const NodeId b = g.add_node("b", 1.0);
  const EdgeId e = g.add_edge(a, b, 0.0);
  g.set_node_weight(a, 9.0);
  g.set_edge_weight(e, 3.0);
  EXPECT_DOUBLE_EQ(g.node_weight(a), 9.0);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 3.0);
}

TEST(Graph, RejectsSelfLoopAndDuplicates) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  EXPECT_THROW(g.add_edge(a, a), Error);
  g.add_edge(a, b);
  EXPECT_THROW(g.add_edge(a, b), Error);
}

TEST(Graph, RejectsNegativeWeights) {
  Graph g;
  EXPECT_THROW(g.add_node("a", -1.0), Error);
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  EXPECT_THROW(g.add_edge(a, b, -0.1), Error);
}

TEST(Graph, BadIdsThrow) {
  Graph g;
  g.add_node("a");
  EXPECT_THROW(g.node_name(5), Error);
  EXPECT_THROW(g.edge(0), Error);
}

TEST(Graph, FindEdge) {
  Graph g = diamond();
  EXPECT_GE(g.find_edge(0, 1), 0);
  EXPECT_EQ(g.find_edge(1, 0), -1);
  EXPECT_EQ(g.find_edge(1, 2), -1);
}

TEST(Graph, SourcesAndSinks) {
  Graph g = diamond();
  EXPECT_EQ(g.sources(), std::vector<NodeId>{0});
  EXPECT_EQ(g.sinks(), std::vector<NodeId>{3});
}

TEST(Algorithms, TopologicalSortValid) {
  Graph g = diamond();
  auto order = topological_sort(g);
  ASSERT_TRUE(order.has_value());
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[static_cast<std::size_t>((*order)[static_cast<std::size_t>(i)])] = i;
  for (const Edge& e : g.edges()) {
    EXPECT_LT(pos[static_cast<std::size_t>(e.src)], pos[static_cast<std::size_t>(e.dst)]);
  }
}

TEST(Algorithms, EmptyGraphTopoSort) {
  Graph g;
  auto order = topological_sort(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(order->empty());
  EXPECT_TRUE(is_dag(g));
}

TEST(Algorithms, Reachability) {
  Graph g = diamond();
  auto reach = oracle::reachability(g);
  EXPECT_TRUE(reach[0].test(1));
  EXPECT_TRUE(reach[0].test(2));
  EXPECT_TRUE(reach[0].test(3));
  EXPECT_FALSE(reach[0].test(0));  // exclusive
  EXPECT_TRUE(reach[1].test(3));
  EXPECT_FALSE(reach[1].test(2));
  EXPECT_TRUE(reach[3].none());
  EXPECT_TRUE(oracle::independent(reach, 1, 2));
  EXPECT_FALSE(oracle::independent(reach, 0, 3));
  EXPECT_FALSE(oracle::independent(reach, 2, 2));
}

TEST(Algorithms, PriorityIndicators) {
  Graph g = diamond();
  // p(d)=1, p(b)=2+0.5+1=3.5, p(c)=3+0.5+1=4.5, p(a)=1+max(0.5+3.5, 0.5+4.5)=6
  auto p = priority_indicators(g);
  EXPECT_DOUBLE_EQ(p[3], 1.0);
  EXPECT_DOUBLE_EQ(p[1], 3.5);
  EXPECT_DOUBLE_EQ(p[2], 4.5);
  EXPECT_DOUBLE_EQ(p[0], 6.0);
}

TEST(Algorithms, PriorityOrderIsTopologicalAndDescending) {
  Graph g = models::make_fig4_graph();
  auto p = priority_indicators(g);
  auto order = priority_order(g, p);
  ASSERT_EQ(order.size(), g.num_nodes());
  std::vector<int> pos(g.num_nodes());
  for (std::size_t i = 0; i < order.size(); ++i) pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  for (const Edge& e : g.edges())
    EXPECT_LT(pos[static_cast<std::size_t>(e.src)], pos[static_cast<std::size_t>(e.dst)]);
  for (std::size_t i = 0; i + 1 < order.size(); ++i)
    EXPECT_GE(p[static_cast<std::size_t>(order[i])], p[static_cast<std::size_t>(order[i + 1])]);
}

TEST(Algorithms, PriorityOrderZeroWeightTies) {
  // Chain of zero-weight nodes: ties must still give a topological order.
  Graph g;
  const NodeId a = g.add_node("a", 0.0);
  const NodeId b = g.add_node("b", 0.0);
  const NodeId c = g.add_node("c", 0.0);
  g.add_edge(a, b, 0.0);
  g.add_edge(b, c, 0.0);
  auto order = priority_order(g);
  EXPECT_EQ(order, (std::vector<NodeId>{a, b, c}));
}

TEST(Algorithms, CriticalPath) {
  Graph g = diamond();
  // Node-only: a + c + d = 5; with edges: 5 + 0.5 + 0.5 = 6.
  EXPECT_DOUBLE_EQ(critical_path_length(g, false), 5.0);
  EXPECT_DOUBLE_EQ(critical_path_length(g, true), 6.0);
}

TEST(Algorithms, CriticalPathSingleNode) {
  Graph g;
  g.add_node("only", 2.5);
  EXPECT_DOUBLE_EQ(critical_path_length(g), 2.5);
}

TEST(Dot, RendersNodesAndEdges) {
  Graph g = diamond();
  const std::string dot = to_dot(g, {0, 0, 1, 1});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("t=3"), std::string::npos);
}

TEST(Dot, RejectsWrongMappingSize) {
  Graph g = diamond();
  EXPECT_THROW(to_dot(g, {0, 1}), Error);
}

TEST(Fig4, StructureMatchesPaper) {
  Graph g = models::make_fig4_graph();
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_TRUE(is_dag(g));
  EXPECT_EQ(g.sources(), std::vector<NodeId>{0});   // v1
  EXPECT_EQ(g.sinks(), std::vector<NodeId>{7});     // v8
}

}  // namespace
}  // namespace hios::graph
