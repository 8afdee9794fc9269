// Incremental list scheduling — HIOS-LP's inner-loop objective (Alg. 1).
//
// HIOS-LP scores a path-on-GPU candidate by list-scheduling *all* mapped
// operators; the old code re-ran the full O(V + E) pass (and allocated a
// fresh Schedule) for every candidate GPU of every path. The pass is a
// strict left-to-right recurrence over the fixed priority order, so when
// only the mapping of some nodes changes, everything before the earliest
// changed position is unchanged. ListScheduleState keeps its state by
// priority rank: after every *mapped* rank it checkpoints the per-GPU tails
// and the running latency, and on query it walks only the mapped ranks from
// the earliest dirty one (through a rank-indexed bitmap), starting from the
// checkpoint of the last mapped rank before it. Unmapped ranks neither
// change the recurrence nor get a checkpoint.
//
// The recomputation executes the exact instruction sequence of a
// from-scratch list-scheduling pass from identical prefix state, so
// latencies are bit-identical to that pass (property-tested in
// tests/sched_core_test.cpp against the one-pass list scheduler kept in
// tests/oracles/), and to the §III-A evaluation of the placed schedule.
#pragma once

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

  /// Assigns `v` to `gpu` (-1 unmaps). O(1): marks the suffix from v's
  /// priority rank dirty, unless v is already on `gpu`.
  void set_gpu(graph::NodeId v, int gpu);

  /// Latency of the list schedule of all currently mapped nodes.
  /// Recomputes the dirty suffix only.
  double latency();

  const std::vector<int>& mapping() const { return mapping_; }

  /// Start/finish of a mapped node under the current mapping (-1 when
  /// unmapped). Valid after latency().
  double start(graph::NodeId v) const { return start_[rank(v)]; }
  double finish(graph::NodeId v) const { return finish_[rank(v)]; }

  /// The list schedule of the current mapping as singleton stages in
  /// per-GPU priority order.
  Schedule schedule() const;

  /// Mapped ranks re-timed so far (deterministic work counter; the
  /// from-scratch pass walks every rank of every dirty suffix).
  std::size_t ranks_walked() const { return ranks_walked_; }

 private:
  std::size_t rank(graph::NodeId v) const { return static_cast<std::size_t>(cg_.rank(v)); }
  void recompute();

  /// In-edge of a rank: the producer's rank and the edge id (for transfer_time).
  struct InEdge {
    std::size_t src_rank;
    graph::EdgeId edge;
  };

  const graph::CompiledGraph& cg_;
  const cost::CostModel& cost_;
  int num_gpus_;
  std::size_t n_;

  std::vector<int> mapping_;          ///< node -> gpu (-1 unmapped)
  std::vector<int> gpu_;              ///< rank -> gpu (-1 unmapped)
  DynBitset mapped_;                  ///< ranks with gpu_ >= 0
  std::vector<std::size_t> in_head_;  ///< rank -> first entry in in_ (size n + 1)
  std::vector<InEdge> in_;            ///< in-edges by consumer rank, Graph order
  std::vector<double> start_, finish_;  ///< by rank
  std::vector<double> tails_;         ///< n x m tails after each mapped rank
  std::vector<double> lat_after_;     ///< running latency after each mapped rank
  std::vector<double> cur_;           ///< scratch row
  double latency_ = 0.0;
  std::size_t dirty_from_ = 0;        ///< first priority rank needing recompute
  std::size_t ranks_walked_ = 0;
};

}  // namespace hios::sched
