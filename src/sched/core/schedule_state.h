// Incremental schedule evaluation state — the scheduling core behind Alg. 2.
//
// The old parallelize() scored every merge candidate by deep-copying the
// whole Schedule, re-flattening it, re-deriving node -> stage indices,
// re-deduplicating the stage dependency DAG and re-querying every t(S);
// locating an op was an O(V * S) scan and the stage-to-stage path matrix was
// rebuilt from scratch (O(E * S) with Graph::find_edge scans) after every
// accepted merge. ScheduleState keeps all of that as live, incrementally
// maintained state:
//
//   * stages get *stable ids* at load(); per-GPU order is a list of alive
//     ids, and node -> stage id / stage id -> position indexes make
//     locate() O(1);
//   * a merge candidate is scored with the apply -> evaluate -> undo | commit
//     protocol: apply_merge() splices the window's stages into the first
//     one in place (O(window ops + stages shifted)), evaluate() runs over
//     the maintained structure with zero allocation, undo_merge() restores
//     the previous state exactly, and commit_merge() makes it permanent;
//   * improves_on(bound) scores the pending merge against the committed
//     timing instead: it re-times only the stages whose ready time the
//     merge can move, in committed topological-rank order, and gives up as
//     soon as the bound is out of reach;
//   * stage independence (Alg. 2's window test) is a search over data
//     successors from the lower-ranked stage, cut off at the other one's
//     committed rank, instead of a stage-by-stage closure (DESIGN.md §6d).
//
// ScheduleState is the one production implementation of the §III-A stage
// timing: sched::evaluate_schedule wraps it, the schedulers time their
// results with it, and the simulators walk its stage order. The timing
// recurrence uses only max and + over the same operands, so the result is
// independent of traversal order; the randomized property suites in
// tests/sched_core_test.cpp and tests/oracle_diff_test.cpp hold it
// bit-identical to the from-scratch evaluator kept in tests/oracles/.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "cost/cost_model.h"
#include "graph/compiled_graph.h"
#include "sched/evaluate.h"
#include "sched/schedule.h"

namespace hios::sched {

class ScheduleState {
 public:
  /// Binds the state to a compiled graph and cost model. Both must outlive
  /// the state. Each stage's t(S) is asked once when the stage is created
  /// and hoisted, so the caller's model needs no memo in front of it.
  ScheduleState(const graph::CompiledGraph& cg, const cost::CostModel& cost);

  /// Loads `schedule`, replacing any previous state. Nodes absent from the
  /// schedule are allowed (partial schedules: edges to or from them are
  /// ignored). Throws on num_gpus < 1, a gpus list whose size is not
  /// num_gpus, empty stages, out-of-range ids, or an op listed twice.
  void load(const Schedule& schedule);

  /// Throws hios::Error naming the first node absent from the loaded
  /// schedule: the check for callers that need a complete schedule.
  void require_complete() const;

  int num_gpus() const { return num_gpus_; }

  // --- O(1) location --------------------------------------------------
  /// Stable stage id holding `v`, or -1 when v is unscheduled.
  int stage_of(graph::NodeId v) const { return node_stage_[static_cast<std::size_t>(v)]; }
  int gpu_of_stage(int sid) const { return stage_gpu_[static_cast<std::size_t>(sid)]; }
  /// Current position of an alive stage in its GPU's stage list.
  int position_of(int sid) const { return pos_of_[static_cast<std::size_t>(sid)]; }
  std::span<const graph::NodeId> stage_ops(int sid) const {
    return ops_[static_cast<std::size_t>(sid)];
  }
  int stage_count(int gpu) const {
    return static_cast<int>(gpu_list_[static_cast<std::size_t>(gpu)].size());
  }
  /// Stable id of the stage at `pos` on `gpu`.
  int stage_at(int gpu, int pos) const {
    return gpu_list_[static_cast<std::size_t>(gpu)][static_cast<std::size_t>(pos)];
  }

  // --- evaluation -----------------------------------------------------
  /// Latency of the current state, or nullopt when the schedule deadlocks
  /// (cycle between data deps and per-GPU execution order). Allocation-free
  /// after load().
  std::optional<double> evaluate_latency();

  /// Full timing report, flattened GPU-major.
  std::optional<Evaluation> evaluate();

  /// Stable ids of the alive stages in the Kahn order of the first
  /// successful evaluation after load(): a topological order of the stage
  /// DAG, GPU chains included. Valid from then until the next load() or
  /// merge.
  std::span<const int> stage_order() const { return at_rank_; }

  /// Latency of the pending merge when it is strictly below `bound`, else
  /// nullopt (not better, or the merge deadlocks); the value is bit-equal
  /// to evaluate_latency(). Re-times only the stages whose ready time the
  /// merge can move, against the committed timing that the first evaluation
  /// after load() establishes and commit_merge() keeps current (DESIGN.md
  /// §6d).
  /// Without committed timing (never evaluated, or a deadlocking commit) it
  /// falls back to the full pass.
  std::optional<double> improves_on(double bound);
  /// Stages timed since load(), summed over full passes, improves_on()
  /// and commit_merge() — a deterministic measure of evaluation work.
  std::size_t stages_retimed() const { return stages_retimed_; }

  // --- merge protocol (Alg. 2 candidates) -----------------------------
  /// Merges the stages at positions [pos, pos + extent] on `gpu` into the
  /// stage at `pos`, in place. Exactly one merge may be pending at a time;
  /// follow with undo_merge() or commit_merge().
  void apply_merge(int gpu, int pos, int extent);
  /// Reverts the pending merge, restoring the pre-apply state exactly.
  void undo_merge();
  /// Makes the pending merge permanent and updates the committed timing
  /// incrementally.
  void commit_merge();

  /// True when neither alive stage reaches the other through data edges
  /// (the condensed-graph independence test of Alg. 2); query with no merge
  /// pending. A search bounded by the committed ranks, unbounded without
  /// them; false for every pair when the loaded stage data graph is cyclic.
  bool stages_independent(int a, int b) const;
  /// Stages expanded by stages_independent() since load(): its locality.
  std::size_t stages_searched() const { return stages_searched_; }

  /// Materialises the current state as a plain Schedule.
  Schedule extract() const;

 private:
  struct PendingMerge {
    int gpu = 0;
    int pos = 0;
    int rep = 0;                   ///< surviving stage id
    std::size_t rep_ops_before = 0;
    double rep_time_before = 0.0;
  };

  bool data_acyclic();  ///< Kahn pass over the stages' data edges alone
  bool run_eval();  ///< fills ready_ (the starts), finish_, latency_; false on deadlock

  // Change propagation over the committed timing (see improves_on()).
  double ready_of(int sid) const;  ///< ready time of `sid` from its inputs' cur_finish_
  bool merge_deadlocks();
  std::optional<double> propagate(double bound);
  /// Puts the committed finishes back into cur_finish_ after a propagation,
  /// leaving each retimed_ entry with its re-timed finish.
  void restore_committed();
  void rerank_merge_window();
  /// Calls f(successor stage, transfer) for the chain successor (transfer
  /// 0) and every data successor of `sid`, repeats included.
  template <typename F>
  void for_each_successor(int sid, F&& f) const;
  /// The data successors alone, as for_each_successor() visits them.
  template <typename F>
  void for_each_data_successor(int sid, F&& f) const;

  const graph::CompiledGraph& cg_;
  const cost::CostModel& cost_;
  int num_gpus_ = 0;
  std::size_t alive_count_ = 0;

  std::vector<int> stage_gpu_;                   ///< stable id -> gpu
  std::vector<std::vector<graph::NodeId>> ops_;  ///< stable id -> member ops
  std::vector<char> alive_;
  std::vector<std::vector<int>> gpu_list_;       ///< gpu -> ordered alive ids
  std::vector<int> pos_of_;                      ///< stable id -> position (-1 dead)
  std::vector<int> node_stage_;                  ///< node -> stable id (-1 absent)

  bool data_cyclic_ = false;                     ///< load()'s stage data graph has a cycle
  std::optional<PendingMerge> pending_;
  std::vector<int> removed_;  ///< the pending merge's merged-away stage ids, window order

  // Hoisted cost-model queries. GPU assignments never change between
  // load() and extract() (merges stay on their GPU), so each edge's
  // transfer time is a per-load constant, kept beside the CompiledGraph's
  // CSR slots so that an edge visit reads the other endpoint and the
  // transfer side by side; each stage's t(S) only changes when it absorbs
  // a merge window, maintained by apply/undo.
  std::vector<double> in_transfer_, out_transfer_;  ///< by CSR slot (0 when endpoint absent)
  std::vector<double> stage_time_;               ///< stable id -> t(S) on its GPU

  // Evaluation scratch, sized at load(); reused allocation-free.
  std::vector<double> ready_, finish_;
  std::vector<int> in_deg_, frontier_;
  std::vector<int> mark_;
  int mark_gen_ = 0;
  double latency_ = 0.0;

  // Committed timing, valid while committed_: each stage's ready time and
  // finish, and a topological rank of the stages (rank_ and at_rank_ are
  // inverse; dead stages keep their slots). cur_finish_ holds the committed
  // finishes between calls and the pending merge's re-timed ones while
  // propagate() runs. queued_ is the rank-indexed bitmap that propagate()
  // pops in rank order; it is all zero between calls.
  bool committed_ = false;
  double committed_latency_ = 0.0;
  std::vector<double> cur_finish_, committed_ready_;
  std::vector<int> rank_, at_rank_;
  std::vector<uint64_t> queued_;
  std::size_t stages_retimed_ = 0;
  // stages_independent() scratch.
  mutable std::vector<int> seen_, search_;
  mutable int seen_gen_ = 0;
  mutable std::size_t stages_searched_ = 0;
  // The stages the last propagate() re-timed whose ready time or finish
  // moved, with their new values; valid for commit_merge() while scored_
  // names the merge, i.e. the last improves_on() ran to completion and no
  // propagation ran since.
  struct Retimed {
    int sid = 0;
    double finish = 0.0;
    double ready = 0.0;
  };
  std::vector<Retimed> retimed_;
  struct Scored {
    int rep = -1;
    std::size_t extent = 0;
    double latency = 0.0;
  } scored_;
};

}  // namespace hios::sched
