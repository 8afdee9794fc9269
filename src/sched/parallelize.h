// Intra-GPU inter-operator parallelization — Alg. 2 of the paper.
//
// Given a schedule with inter-operator parallelism across GPUs and
// sequential execution inside each GPU, slide a window of up to `w`
// consecutive operators (in descending priority order) along each GPU's
// stage list. When the windowed operators are mutually independent and
// merging them into one concurrently-executing stage keeps the condensed
// graph acyclic AND lowers the evaluated latency, commit the merge.
//
// Interpretation notes (documented deviations — see DESIGN.md §5):
//  * The paper's pseudocode assigns G = G' before the latency test; its
//    prose and worked example only keep improving merges, which is what we
//    implement (commit on L' < L only).
//  * Windows advance over *stages*: once ops are grouped the group acts as
//    one unit, and a window never splits an existing group. The total op
//    count of a candidate stage is capped at `w`.
//  * Independence is exact: no data-edge path joins the two stages on the
//    current merged graph, which subsumes the paper's cycle test (merging pairwise
//    order-independent nodes cannot create a cycle); the evaluator still
//    guards against execution-order deadlocks.
//
// Implementation (see DESIGN.md §6d): candidates are scored on a
// sched::ScheduleState with the apply -> evaluate -> undo | commit
// protocol — no Schedule deep copies, no from-scratch re-evaluation (each
// candidate re-times only the stages whose finish it moves, and stops once
// it cannot beat the best so far), and independence is a search bounded
// by the committed topological ranks, local to the window. Callers that
// already hold a CompiledGraph (HIOS-LP / HIOS-MR) pass it in so the
// priority order is computed once per schedule() call, not again here.
#pragma once

#include "cost/cost_model.h"
#include "graph/compiled_graph.h"
#include "sched/schedule.h"

namespace hios::sched {

/// Outcome of the parallelize pass.
struct ParallelizeResult {
  Schedule schedule;
  double latency_ms = 0.0;
  int merges_accepted = 0;
  int candidates_tried = 0;
  /// Stage timings summed over every evaluation of the pass (ScheduleState::
  /// stages_retimed()); a full pass per candidate would cost candidates x
  /// alive stages.
  std::size_t stages_retimed = 0;
  /// ScheduleState::stages_searched(): ~1 per candidate when searches stay local.
  std::size_t stages_searched = 0;
};

/// Runs Alg. 2 on a pre-compiled graph (the priority order is taken from
/// `cg`, not recomputed). `schedule` must be valid for cg.graph(); `window`
/// is the maximum number of ops per merged stage (w >= 2 enables merging;
/// w < 2 is a no-op that just evaluates the input). ScheduleState hoists
/// each stage's t(S), so `cost` is asked about once per stage it creates.
ParallelizeResult parallelize(const graph::CompiledGraph& cg, Schedule schedule,
                              const cost::CostModel& cost, int window);

/// Convenience overload compiling `g` internally. Prefer the CompiledGraph
/// overload in scheduler code.
ParallelizeResult parallelize(const graph::Graph& g, Schedule schedule,
                              const cost::CostModel& cost, int window);

}  // namespace hios::sched
