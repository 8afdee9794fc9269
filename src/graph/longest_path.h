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
// extractions and recomputes it by change propagation: only the positions
// the last path touched, and the successors of each position whose DP value
// changed (DESIGN.md §6d).
#pragma once

#include <limits>
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
/// for the current mask. The DP arrays and boundary bonuses persist across
/// calls, indexed by topological position, and a tournament tree over the
/// positions holds the best chain ending. A taken path updates only its
/// neighbours (O(deg P)) and queues them in a position bitmap; next() pops
/// that bitmap in topological order, recomputes each popped position, and
/// queues a position's unscheduled successors only when its DP value changed
/// bit-wise. The DP at a position reads only its own flags, bonuses and
/// weight and its predecessors' values, so every other position keeps the
/// value a from-scratch pass would give it.
class ValidPathFinder {
 public:
  /// `topo_order` (a topological order of g) must outlive *this.
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
  /// In-edge of a position: the producer's position and id, and the edge weight.
  struct InArc {
    uint32_t src_pos;
    NodeId src;
    double weight;
  };
  /// Out-edge of a position: the consumer's position and the edge weight.
  struct OutArc {
    uint32_t dst_pos;
    double weight;
  };
  /// A tournament-tree entry: a chain ending's length with its tail bonus,
  /// and the ending vertex (kInvalidNode in an empty slot).
  struct Best {
    double len;
    NodeId end;
  };
  static constexpr Best kNoChain{-std::numeric_limits<double>::infinity(), kInvalidNode};

  void push(std::size_t i);      ///< queues position i for recomputation
  void drain();                  ///< recomputes the queued positions in order
  void recompute(std::size_t i);
  void set_leaf(std::size_t i, Best b);
  const Best& match(std::size_t k) const;  ///< the better child of tree node k
  void take(const std::vector<NodeId>& path);

  const std::vector<NodeId>& topo_;
  std::size_t n_;
  std::vector<std::size_t> pos_;   ///< node -> topological position
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
  std::vector<std::size_t> out_head_;   ///< first entry in out_ (size n + 1)
  std::vector<OutArc> out_;             ///< out-edges in Graph order
  std::vector<double> ext_;             ///< DP value (see recompute); < 0 when scheduled
  std::vector<NodeId> parent_;          ///< predecessor in the best chain ending here
  std::vector<uint64_t> queue_;         ///< positions to recompute, a bitmap
  std::size_t queue_lo_ = 0, queue_hi_ = 0;  ///< queue_ words that may be non-zero
  // Tournament tree: leaf leaves_ + i holds position i's chain ending (full
  // DP value plus tail bonus; empty when scheduled), and node k the better
  // of nodes 2k and 2k + 1, so node 1 is the best chain. The first next()
  // fills the leaves, then builds the inner nodes bottom-up (built_).
  std::size_t leaves_ = 1;
  std::vector<Best> tree_;
  bool built_ = false;
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
