#include "graph/graph_json.h"

#include <limits>

namespace hios::graph {

Json to_json(const Graph& g) {
  Json root = Json::object();
  root["name"] = g.name();
  Json nodes = Json::array();
  for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
    Json node = Json::object();
    node["name"] = g.node_name(v);
    node["weight"] = g.node_weight(v);
    node["tag"] = g.node_tag(v);
    nodes.push_back(std::move(node));
  }
  root["nodes"] = std::move(nodes);
  Json edges = Json::array();
  for (const Edge& e : g.edges()) {
    Json edge = Json::object();
    edge["src"] = static_cast<int64_t>(e.src);
    edge["dst"] = static_cast<int64_t>(e.dst);
    edge["weight"] = e.weight;
    edges.push_back(std::move(edge));
  }
  root["edges"] = std::move(edges);
  return root;
}

Graph from_json(const Json& json) {
  constexpr int64_t kMaxNode = std::numeric_limits<NodeId>::max();
  Graph g(json.at("name").as_string());
  for (const Json& node : json.at("nodes").as_array()) {
    g.add_node(node.at("name").as_string(), node.at("weight").as_number(),
               node.at("tag").as_int_in(std::numeric_limits<int64_t>::min(),
                                        std::numeric_limits<int64_t>::max(),
                                        "graph JSON: node tag"));
  }
  for (const Json& edge : json.at("edges").as_array()) {
    const auto src =
        static_cast<NodeId>(edge.at("src").as_int_in(0, kMaxNode, "graph JSON: edge src"));
    const auto dst =
        static_cast<NodeId>(edge.at("dst").as_int_in(0, kMaxNode, "graph JSON: edge dst"));
    g.add_edge(src, dst, edge.at("weight").as_number());
  }
  return g;
}

}  // namespace hios::graph
