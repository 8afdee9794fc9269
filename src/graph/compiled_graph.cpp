#include "graph/compiled_graph.h"

#include "graph/algorithms.h"

namespace hios::graph {

CompiledGraph::CompiledGraph(const Graph& g) : g_(&g), n_(g.num_nodes()) {
  const std::size_t m = g.num_edges();

  in_head_.assign(n_ + 1, 0);
  out_head_.assign(n_ + 1, 0);
  for (NodeId v = 0; v < static_cast<NodeId>(n_); ++v) {
    in_head_[static_cast<std::size_t>(v) + 1] = static_cast<int32_t>(g.in_degree(v));
    out_head_[static_cast<std::size_t>(v) + 1] = static_cast<int32_t>(g.out_degree(v));
  }
  for (std::size_t v = 0; v < n_; ++v) {
    in_head_[v + 1] += in_head_[v];
    out_head_[v + 1] += out_head_[v];
  }
  in_csr_.resize(m);
  out_csr_.resize(m);
  in_src_.resize(m);
  out_dst_.resize(m);
  for (NodeId v = 0; v < static_cast<NodeId>(n_); ++v) {
    std::size_t i = static_cast<std::size_t>(in_head_[static_cast<std::size_t>(v)]);
    for (EdgeId e : g.in_edges(v)) {
      in_src_[i] = g.edge(e).src;
      in_csr_[i++] = e;
    }
    std::size_t o = static_cast<std::size_t>(out_head_[static_cast<std::size_t>(v)]);
    for (EdgeId e : g.out_edges(v)) {
      out_dst_[o] = g.edge(e).dst;
      out_csr_[o++] = e;
    }
  }

  auto topo = topological_sort(g);
  HIOS_CHECK(topo.has_value(), "CompiledGraph: graph '" << g.name() << "' has a cycle");
  topo_ = std::move(*topo);
  priority_ = priority_indicators(g);
  order_ = graph::priority_order(g, priority_);
  rank_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) rank_[static_cast<std::size_t>(order_[i])] = static_cast<int>(i);
}

}  // namespace hios::graph
