// Steady-state pipelined inference over one schedule.
//
// The paper optimizes the latency of a *single* inference; serving systems
// run a stream of them. With the same schedule reused per request and each
// vGPU executing requests back-to-back in arrival order (request-major,
// exactly how the paper's MPI engine would loop), consecutive requests
// overlap across GPUs: GPU 1 starts request r+1 while GPU 2 still finishes
// request r. This module measures that overlap — single-request latency is
// a poor predictor of throughput when the schedule is imbalanced.
//
// The schedule is loaded once into sched::ScheduleState, and every request
// runs the request-major recurrence over the core's stage order.
#pragma once

#include <optional>

#include "cost/cost_model.h"
#include "sched/schedule.h"

namespace hios::sim {

struct PipelineStats {
  int num_requests = 0;
  double first_latency_ms = 0.0;    ///< latency of request 0 (== single-shot)
  double steady_latency_ms = 0.0;   ///< latency of the last request
  double makespan_ms = 0.0;         ///< finish time of the last request
  /// Average gap between consecutive request completions in steady state;
  /// throughput = 1000 / steady_interval_ms requests per second.
  double steady_interval_ms = 0.0;
};

/// Simulates `num_requests` back-to-back inferences (all data available at
/// t = 0) through `schedule`. Returns nullopt when the schedule deadlocks;
/// throws hios::Error on a malformed or incomplete schedule.
std::optional<PipelineStats> simulate_pipeline(const graph::Graph& g,
                                               const sched::Schedule& schedule,
                                               const cost::CostModel& cost,
                                               int num_requests);

}  // namespace hios::sim
