// Stage-level schedule evaluation (§III-A semantics).
//
// Computes the start/finish time of every stage under the paper's model:
//   * stages on one GPU execute in listed order,
//   * a stage starts once its GPU is free AND every producing stage has
//     finished (+ t(u,v) when producer and consumer are on different GPUs),
//   * a stage runs for t(S) from the cost model.
// evaluate_schedule() is the one-call entry point for a complete schedule:
// it compiles the graph and times the schedule through
// sched::ScheduleState (sched/core/), the timing core behind every
// scheduler and simulator. Code that already holds a CompiledGraph, or that
// times many schedules of one graph, uses ScheduleState directly. Infeasible
// schedules (dependency cycles through the per-GPU execution order) are
// reported as nullopt.
#pragma once

#include <optional>
#include <vector>

#include "cost/cost_model.h"
#include "sched/schedule.h"

namespace hios::sched {

/// Timing of one evaluated stage.
struct StageTiming {
  int gpu = 0;
  int index = 0;       ///< position in the GPU's stage list
  double start = 0.0;  ///< ms
  double finish = 0.0; ///< ms
};

/// Full evaluation result.
struct Evaluation {
  double latency_ms = 0.0;
  std::vector<StageTiming> stages;      ///< flattened GPU-major (GPU, then position)
  std::vector<int> stage_of;            ///< node -> flattened stage index (-1 if absent)
};

/// Evaluates `schedule` for graph `g` with cost model `cost`.
/// Returns nullopt when the schedule deadlocks (cycle between stage
/// dependencies and per-GPU execution order). Throws hios::Error when an op
/// is absent from the schedule, when the schedule is malformed (see
/// ScheduleState::load), or when `g` itself has a cycle.
std::optional<Evaluation> evaluate_schedule(const graph::Graph& g, const Schedule& schedule,
                                            const cost::CostModel& cost);

}  // namespace hios::sched
