// Longest *valid* path extraction for HIOS-LP (Alg. 1 line 5).
//
// A valid path is a chain of unscheduled vertices v_1 -> ... -> v_k (each
// consecutive pair joined by an edge of G) such that every *intermediate*
// vertex v_2..v_{k-1} has no edge from/to any already-scheduled vertex.
// The path length counts:
//   * node weights t(v_i) for every vertex on the chain,
//   * edge weights t(v_i, v_{i+1}) along the chain (worst case: adjacent
//     operators may land on different GPUs before mapping is decided),
//   * a head bonus: the heaviest edge from a scheduled vertex into v_1
//     (if any), and symmetrically a tail bonus out of v_k — this is how the
//     paper's example includes boundary edges e2/e6 in path P2.
//
// The paper finds this path in O(V^2 E); we do it with one DP pass over a
// topological order in O(V + E) per extraction (same result; see DESIGN.md).
// HIOS-LP extracts paths until every vertex is scheduled, and one path only
// changes its own neighbourhood, so ValidPathFinder keeps the DP between
// extractions and reruns it only from the earliest topological position
// the last path touched (DESIGN.md §6d).
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.h"
#include "util/bitset.h"

namespace hios::graph {

/// A valid path and its weighted length.
struct ValidPath {
  std::vector<NodeId> nodes;  ///< chain in dependency order
  double length = 0.0;        ///< node + chain-edge weights + boundary bonuses
};

/// Extracts longest valid paths one after another, marking each one
/// scheduled. next() returns exactly what longest_valid_path would return
/// for the current mask. The DP arrays, boundary bonuses and a per-position
/// prefix best persist across calls, indexed by topological position. A
/// taken path updates only its neighbours (O(deg P)), and the DP reruns
/// over the unscheduled positions from the earliest one touched. Nothing
/// before that position can change, since the DP at a position reads only
/// its predecessors.
class ValidPathFinder {
 public:
  /// `g` and `topo_order` (a topological order of g) must outlive *this.
  /// `scheduled` marks the vertices mapped before the first next().
  ValidPathFinder(const Graph& g, const std::vector<NodeId>& topo_order,
                  const DynBitset& scheduled);

  /// The longest valid path among unscheduled vertices, now marked
  /// scheduled; nullopt once every vertex is scheduled.
  std::optional<ValidPath> next();

  /// Topological positions the DP has walked so far (deterministic work
  /// counter; a from-scratch pass per extraction walks every unscheduled one).
  std::size_t positions_visited() const { return positions_visited_; }

 private:
  void run_dp();
  void take(const std::vector<NodeId>& path);

  /// In-edge of a position: the producer's position and id, and the edge weight.
  struct InArc {
    std::size_t src_pos;
    NodeId src;
    double weight;
  };

  const Graph& g_;
  const std::vector<NodeId>& topo_;
  std::size_t n_;
  std::vector<std::size_t> pos_;   ///< node -> topological position
  DynBitset scheduled_;            ///< by node
  DynBitset open_;                 ///< unscheduled topological positions
  std::size_t remaining_ = 0;      ///< unscheduled vertices
  // Everything below is indexed by topological position. dirty: the vertex
  // touches a scheduled vertex, so it may only be the first or last vertex
  // of a chain. Head/tail bonuses are the heaviest boundary edges.
  std::vector<char> dirty_;
  std::vector<double> head_bonus_, tail_bonus_;
  std::vector<double> weight_;          ///< node weight
  std::vector<std::size_t> in_head_;    ///< first entry in in_ (size n + 1)
  std::vector<InArc> in_;               ///< in-edges in Graph order
  std::vector<double> ext_;             ///< DP value (see run_dp); < 0 when scheduled
  std::vector<NodeId> parent_;          ///< predecessor in the best chain ending here
  // Best chain ending (length with tail bonus, then smallest id) over the
  // unscheduled positions <= i; valid at unscheduled positions.
  std::vector<double> best_len_;
  std::vector<NodeId> best_end_;
  std::size_t redo_from_ = 0;       ///< earliest position whose DP is stale
  std::size_t positions_visited_ = 0;
};

/// Finds the longest valid path among unscheduled vertices.
/// `scheduled` marks vertices already mapped to a GPU (the set G - G').
/// Returns nullopt when every vertex is scheduled. Deterministic: ties are
/// broken toward the smaller ending-node id, then smaller predecessor ids.
std::optional<ValidPath> longest_valid_path(const Graph& g, const DynBitset& scheduled);

/// Same extraction against a caller-supplied topological order of `g`
/// (e.g. graph::CompiledGraph::topo_order()), skipping the per-call
/// topological sort. One ValidPathFinder::next() on a fresh finder.
std::optional<ValidPath> longest_valid_path(const Graph& g, const DynBitset& scheduled,
                                            const std::vector<NodeId>& topo_order);

}  // namespace hios::graph
