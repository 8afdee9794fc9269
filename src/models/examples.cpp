#include "models/examples.h"

namespace hios::models {

namespace {
/// `prefix` followed by `i`, built by append: GCC 12 reports a false
/// -Wrestrict overlap for `"c" + std::to_string(i)` inlined into memcpy.
std::string indexed(const char* prefix, int i) {
  return std::string(prefix).append(std::to_string(i));
}
}  // namespace

graph::Graph make_fig4_graph(const std::vector<double>& node_weights,
                             const std::vector<double>& edge_weights) {
  std::vector<double> nw = node_weights.empty()
                               ? std::vector<double>{3, 2, 1, 3, 2, 2, 1, 2}
                               : node_weights;
  std::vector<double> ew = edge_weights.empty()
                               ? std::vector<double>{1, 0.5, 1, 0.5, 1, 0.5, 0.5, 1, 0.5}
                               : edge_weights;
  HIOS_CHECK(nw.size() == 8, "Fig.4 graph needs 8 node weights");
  HIOS_CHECK(ew.size() == 9, "Fig.4 graph needs 9 edge weights");
  graph::Graph g("fig4");
  std::vector<graph::NodeId> v;
  for (int i = 1; i <= 8; ++i)
    v.push_back(g.add_node(indexed("v", i), nw[static_cast<std::size_t>(i - 1)]));
  g.add_edge(v[0], v[1], ew[0]);  // e1
  g.add_edge(v[0], v[2], ew[1]);  // e2
  g.add_edge(v[1], v[3], ew[2]);  // e3
  g.add_edge(v[2], v[4], ew[3]);  // e4
  g.add_edge(v[3], v[5], ew[4]);  // e5
  g.add_edge(v[4], v[5], ew[5]);  // e6
  g.add_edge(v[4], v[6], ew[6]);  // e7
  g.add_edge(v[5], v[7], ew[7]);  // e8
  g.add_edge(v[6], v[7], ew[8]);  // e9
  return g;
}

graph::Graph make_chain(int n, double w, double e) {
  HIOS_CHECK(n >= 1, "chain needs >= 1 node");
  graph::Graph g("chain" + std::to_string(n));
  graph::NodeId prev = g.add_node("c0", w);
  for (int i = 1; i < n; ++i) {
    const graph::NodeId cur = g.add_node(indexed("c", i), w);
    g.add_edge(prev, cur, e);
    prev = cur;
  }
  return g;
}

graph::Graph make_fork_join(int branches, double branch_weight, double edge_weight,
                            double src_sink_weight) {
  HIOS_CHECK(branches >= 1, "fork_join needs >= 1 branch");
  graph::Graph g("fork_join" + std::to_string(branches));
  const graph::NodeId src = g.add_node("src", src_sink_weight);
  const graph::NodeId sink = g.add_node("sink", src_sink_weight);
  for (int i = 0; i < branches; ++i) {
    const graph::NodeId mid = g.add_node("branch" + std::to_string(i), branch_weight);
    g.add_edge(src, mid, edge_weight);
    g.add_edge(mid, sink, edge_weight);
  }
  return g;
}

graph::Graph make_twin_chains(int chain_len, double w, double cross_edge) {
  HIOS_CHECK(chain_len >= 1, "twin_chains needs >= 1 node per chain");
  graph::Graph g("twin_chains" + std::to_string(chain_len));
  graph::NodeId a = g.add_node("a0", w);
  graph::NodeId b = g.add_node("b0", w);
  for (int i = 1; i < chain_len; ++i) {
    const graph::NodeId na = g.add_node(indexed("a", i), w);
    const graph::NodeId nb = g.add_node(indexed("b", i), w);
    g.add_edge(a, na, cross_edge);
    g.add_edge(b, nb, cross_edge);
    a = na;
    b = nb;
  }
  const graph::NodeId sink = g.add_node("sink", w / 2.0);
  g.add_edge(a, sink, cross_edge);
  g.add_edge(b, sink, cross_edge);
  return g;
}

ops::Model make_single_conv_model(int64_t image_hw, int64_t channels) {
  ops::Model model("conv5x5-" + std::to_string(image_hw));
  const ops::OpId input =
      model.add_input("image", ops::TensorShape{1, channels, image_hw, image_hw});
  model.add_op(ops::Op(ops::OpKind::kConv2d, "conv5x5",
                       ops::Conv2dAttr{channels, 5, 5, 1, 1, 2, 2, 1}),
               {input});
  return model;
}

}  // namespace hios::models
