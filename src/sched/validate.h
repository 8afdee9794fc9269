// Schedule validation — the invariants every scheduler must satisfy:
//   1. every graph node appears in exactly one stage;
//   2. each stage's ops are pairwise independent (no dependency path);
//   3. the stage DAG (data deps + per-GPU execution order) is acyclic,
//      i.e. the schedule is deadlock-free / evaluable;
//   4. GPU indices are within [0, num_gpus).
// Once 1 and 4 hold, the schedule is loaded once into the timing core
// (ScheduleState), which checks 2 and 3 together: no graph edge may join
// two ops of one stage (an O(E) scan), and the core's Kahn pass must order
// every stage. That pair is exactly 2 and 3: a dependence path between two
// ops of one stage either stays inside the stage, so one of its edges
// joins two ops of the stage, or it leaves the stage and comes back, which
// is a cycle in the stage graph. Used by tests and by the runtime before
// executing a schedule.
#pragma once

#include <string>
#include <vector>

#include "sched/schedule.h"

namespace hios::sched {

/// A stage by its place in a schedule: gpus[gpu][position].
struct StageRef {
  int gpu = 0;
  int position = 0;
};

/// Returns a list of human-readable violations; empty means valid.
std::vector<std::string> validate_schedule(const graph::Graph& g, const Schedule& schedule);

/// Throws hios::Error listing all violations when the schedule is invalid.
/// Otherwise returns every stage in a topological order of the stage DAG
/// (data edges plus each GPU's stage order): the order the check proved
/// acyclic, and one in which every stage comes after all it waits on.
std::vector<StageRef> check_schedule(const graph::Graph& g, const Schedule& schedule);

}  // namespace hios::sched
