// Discrete-event simulation of a schedule, at two fidelities.
//
// * simulate_stages: exact stage-level semantics of §III-A (all ops in a
//   stage start together; successors see the stage finish time). This is
//   the schedulers' objective restated with a full timeline.
// * simulate_ops: op-level relaxation the paper mentions ("if a part of
//   these operators has ready input data, they may execute earlier in a
//   practical system"): stages still execute in order per GPU, but inside
//   an open stage each op starts as soon as its own inputs have arrived;
//   transfers fire per producing op. Each op's duration is its solo time
//   scaled by the stage's contention factor t(S)/max_t, so a stage whose
//   ops do start together finishes exactly at t(S). Op-level latency is
//   therefore never above stage-level latency (tight-upper-bound claim).
//
// Both run on sched::ScheduleState, the one stage-DAG timing core:
// simulate_stages reports its evaluation as a timeline, and simulate_ops
// re-times ops in its stage order (ScheduleState::stage_order()).
#pragma once

#include <optional>

#include "cost/cost_model.h"
#include "sched/schedule.h"
#include "sim/timeline.h"

namespace hios::sim {

/// Stage-accurate timeline. Returns nullopt when the schedule deadlocks.
std::optional<Timeline> simulate_stages(const graph::Graph& g, const sched::Schedule& schedule,
                                        const cost::CostModel& cost);

/// Op-accurate (relaxed-start) timeline. Returns nullopt on deadlock;
/// throws hios::Error on a malformed or incomplete schedule.
std::optional<Timeline> simulate_ops(const graph::Graph& g, const sched::Schedule& schedule,
                                     const cost::CostModel& cost);

}  // namespace hios::sim
