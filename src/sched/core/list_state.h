// Incremental list scheduling — HIOS-LP's inner-loop objective (Alg. 1).
//
// HIOS-LP scores a path-on-GPU candidate by list-scheduling *all* mapped
// operators; the old code re-ran the full O(V + E) pass (and allocated a
// fresh Schedule) for every candidate GPU of every path. The pass is a
// strict left-to-right recurrence over the fixed priority order, so when
// only the mapping of some nodes changes, everything before the earliest
// changed position is unchanged. ListScheduleState keeps every finish by
// priority rank, and on query it walks only the mapped ranks from the
// earliest dirty one (through a rank-indexed bitmap). The walk's prefix
// state needs no checkpoint: each GPU's tail is the finish of its last
// mapped rank before the dirty one (a per-GPU rank bitmap finds it).
// Finishes on one GPU never decrease, so the latency is the largest tail at
// the end of the walk. Unmapped ranks never change the recurrence.
//
// place_path() scores one path on every GPU in a single walk: the walk
// carries m lanes, lane k holding the path on GPU k, so each rank off the
// path asks the cost model once for all lanes, and the winning lane becomes
// the committed state without a further walk.
//
// Every lane executes the exact instruction sequence of a full
// list-scheduling pass from identical prefix state, so latencies are
// bit-identical to that pass (property-tested in tests/sched_core_test.cpp
// against the one-pass list scheduler kept in tests/oracles/), and to the
// §III-A evaluation of the placed schedule.
#pragma once

#include <span>
#include <vector>

#include "cost/cost_model.h"
#include "graph/compiled_graph.h"
#include "sched/schedule.h"
#include "util/bitset.h"

namespace hios::sched {

class ListScheduleState {
 public:
  /// Starts with every node unmapped. `cg` and `cost` must outlive *this.
  ListScheduleState(const graph::CompiledGraph& cg, int num_gpus,
                    const cost::CostModel& cost);

  /// Assigns `v` to `gpu` (-1 unmaps; any other gpu outside [0, m) throws).
  /// O(1): marks the suffix from v's priority rank dirty, unless v is
  /// already on `gpu`.
  void set_gpu(graph::NodeId v, int gpu);

  /// Latency of the list schedule of all currently mapped nodes.
  /// Recomputes the dirty suffix only.
  double latency();

  struct Placement {
    int gpu;         ///< the GPU the path was committed to
    double latency;  ///< list-schedule latency with the path on `gpu`
  };

  /// Alg. 1's decision for one path, in one walk: tries `path` on every
  /// GPU, commits it to the GPU with the lowest latency (strict `<`: the
  /// lowest GPU wins ties) and returns that choice. Equivalent, bit for bit,
  /// to set_gpu(path, g) + latency() for g = 0..m-1 followed by
  /// set_gpu(path, best). Path nodes may be mapped already; they move.
  Placement place_path(std::span<const graph::NodeId> path);

  const std::vector<int>& mapping() const { return mapping_; }

  /// Start/finish of a mapped node under the current mapping (-1 when
  /// unmapped). Valid after latency() or place_path(), until the next
  /// set_gpu(). The start is not stored: start() recomputes it from the
  /// finishes with the walk's own recurrence, bit-equal to the pass.
  double start(graph::NodeId v) const;
  double finish(graph::NodeId v) const { return finish_[rank(v) * m_]; }

  /// The list schedule of the current mapping as singleton stages in
  /// per-GPU priority order.
  Schedule schedule() const;

  /// Deterministic work counters: walks over a dirty suffix (one per
  /// latency() that recomputes and one per place_path()), and the mapped
  /// ranks they re-timed (a rank counts once however many lanes it has;
  /// a full pass walks every rank of every dirty suffix).
  std::size_t walks() const { return walks_; }
  std::size_t ranks_walked() const { return ranks_walked_; }

 private:
  /// gpu_ value of a rank on the path place_path() is placing.
  static constexpr int kOnPath = -2;

  std::size_t rank(graph::NodeId v) const { return static_cast<std::size_t>(cg_.rank(v)); }
  /// Re-times the mapped ranks from `from` in kLanes lanes (m when
  /// kLanes == 0), writing lane k of rank r at r * m + k. Lane k places the
  /// kOnPath ranks on GPU k; one lane (latency()) has none.
  template <int kLanes>
  void walk(std::size_t from);
  /// Each lane's latency after the last walk.
  const double* lane_latency() const { return lane_buf_.data() + m_ * m_; }

  /// In-edge of a rank: the producer's rank and the edge's base weight
  /// (for transfer_time).
  struct InEdge {
    std::size_t src_rank;
    double weight;
  };

  const graph::CompiledGraph& cg_;
  const cost::CostModel& cost_;
  std::size_t m_ = 0;  ///< GPUs, and lanes of a place_path() walk
  std::size_t n_;

  std::vector<int> mapping_;          ///< node -> gpu (-1 unmapped)
  std::vector<int> gpu_;              ///< rank -> gpu (-1 unmapped, kOnPath)
  DynBitset mapped_;                  ///< ranks with gpu_ >= 0 or on the path
  std::vector<DynBitset> on_gpu_;     ///< per GPU: its mapped ranks
  std::vector<std::size_t> in_head_;  ///< rank -> first entry in in_ (size n + 1)
  std::vector<InEdge> in_;            ///< in-edges by consumer rank, Graph order
  std::vector<double> node_weight_;   ///< rank -> t(v)
  std::vector<double> speed_;         ///< gpu -> cost model's speed factor
  /// n x m finish times, rank-major: lane k of rank r at r * m + k. Lane 0
  /// is the committed state, and a walk reads the inputs it did not re-time
  /// from there.
  std::vector<double> finish_;
  std::vector<double> lane_buf_;      ///< walk lanes: m x m tails, m latencies, m starts
  double latency_ = 0.0;
  std::size_t dirty_from_ = 0;        ///< first priority rank needing recompute
  std::size_t walks_ = 0;
  std::size_t ranks_walked_ = 0;
};

}  // namespace hios::sched
