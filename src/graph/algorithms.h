// Graph algorithms shared by the schedulers: topological sorting, cycle
// detection, and the priority indicator of HIOS (§IV-A).
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.h"

namespace hios::graph {

/// Kahn topological sort. Returns nullopt when the graph has a cycle.
std::optional<std::vector<NodeId>> topological_sort(const Graph& g);

/// True when the graph is acyclic.
bool is_dag(const Graph& g);

/// Priority indicator p(v) (§IV-A): length of the longest weighted path
/// (node + edge weights) from v to any sink, including t(v) itself.
/// Descending p is a topological order of G (ties broken topologically by
/// priority_order below).
std::vector<double> priority_indicators(const Graph& g);

/// Nodes sorted by descending priority indicator; guaranteed topological.
std::vector<NodeId> priority_order(const Graph& g);
std::vector<NodeId> priority_order(const Graph& g, const std::vector<double>& priority);

/// Length of the longest weighted path through the whole graph
/// (the critical path; a lower bound on any schedule's latency when all
/// dependent pairs would be co-located, i.e. counting node weights only
/// when `with_edge_weights` is false).
double critical_path_length(const Graph& g, bool with_edge_weights = false);

}  // namespace hios::graph
