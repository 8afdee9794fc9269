// Memoizing t(S) decorator for the IOS DP.
//
// The IOS DP asks the cost model for the same candidate stage from many DP
// states (7552 hits / 912 misses on Inception-v3, 277 526 / 13 880 on
// NASNet, 4 GPUs). StageTimeCache memoizes stage_time keyed on the exact
// op-id sequence, so repeated queries cost one hash lookup instead of the
// contention formula (or, on real hardware, a measurement). HIOS-LP,
// HIOS-MR and Alg. 2 do not use it: ScheduleState hoists each stage's
// t(S) when the stage is created, so a cache in front of them hit at most
// 9% of the time (DESIGN.md §6d).
//
// Cache-validity rules (see DESIGN.md §6d):
//   * One cache instance is bound to one Graph and one inner model — build
//     it at the top of a schedule() call, drop it at the end. Graphs are
//     append-only and schedulers never mutate weights mid-run, so entries
//     never need invalidation.
//   * The key is the op sequence *in order*, not the sorted set: floating-
//     point stage times may depend on summation order, and the equivalence
//     guarantee (incremental evaluation bit-identical to the reference
//     evaluator) requires returning exactly what the inner model would.
//   * Topology and per-GPU speed factors are copied from the inner model at
//     construction so transfer_time / node_time / stage_time_on behave
//     identically to calling the inner model directly.
//
// Ownership: an instance is single-owner. It is built inside one
// schedule() call and queried by that call's thread only, so it holds no
// locks and hits()/misses() are exact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.h"

namespace hios::cost {

/// CostModel decorator memoizing stage_time. Forwards demand().
class StageTimeCache final : public CostModel {
 public:
  explicit StageTimeCache(const CostModel& inner);

  double stage_time(const graph::Graph& g,
                    std::span<const graph::NodeId> stage) const override;

  double demand(const graph::Graph& g, graph::NodeId v) const override {
    return inner_.demand(g, v);
  }

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

 private:
  // Transparent hash/equality: lookups probe with the caller's span and
  // only materialise a key vector on insert (the miss path).
  struct SeqHash {
    using is_transparent = void;
    std::size_t operator()(std::span<const graph::NodeId> v) const {
      std::size_t h = 1469598103934665603ULL;
      for (graph::NodeId x : v) {
        h ^= static_cast<std::size_t>(static_cast<uint32_t>(x));
        h *= 1099511628211ULL;
      }
      return h;
    }
    std::size_t operator()(const std::vector<graph::NodeId>& v) const {
      return (*this)(std::span<const graph::NodeId>(v));
    }
  };
  struct SeqEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }
  };

  const CostModel& inner_;
  mutable std::vector<double> singleton_;  ///< node -> t({v}); NaN = unset
  mutable std::unordered_map<std::vector<graph::NodeId>, double, SeqHash, SeqEq> memo_;
  mutable std::size_t hits_ = 0, misses_ = 0;
};

}  // namespace hios::cost
