// Failover rescheduling: survive fail-stop GPU failures mid-inference.
//
// Protocol: run the primary schedule under the fault plan with
// allow_partial; when the run comes back incomplete, carve the residual
// graph out of it (unfinished ops + ops whose tensors died with a failed
// GPU, with surviving cross-GPU tensors entering as zero-weight boundary
// inputs — see sched/residual.h), re-run the scheduler on the surviving
// GPUs under a degraded cost model (link faults folded into the topology,
// straggler slowdowns folded into per-GPU speeds), execute the recovery
// schedule fault-free with the live tensors injected, and splice the
// outputs. Because compute is deterministic, the merged outputs are
// bit-identical to a fault-free run — failover is *transparent* to the
// caller, only slower.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "runtime/engine.h"
#include "sched/residual.h"
#include "sched/scheduler.h"

namespace hios::runtime {

/// Knobs of the recovery path.
struct FailoverOptions {
  std::string algorithm = "hios-lp";    ///< rescheduling algorithm
  sched::SchedulerConfig config;        ///< num_gpus is overridden per run
};

/// What the recovery cost, for reporting (§"recovery metrics").
struct RecoveryMetrics {
  bool fault_occurred = false;   ///< the primary run was disturbed at all
  bool recovered = false;        ///< every op eventually executed
  double detection_ms = 0.0;     ///< virtual time the first fatal fault surfaced
  double reschedule_wall_ms = 0.0;   ///< wall clock spent re-running the scheduler
  double residual_latency_ms = 0.0;  ///< virtual makespan of the recovery run
  /// End-to-end degraded makespan: detection + residual recovery.
  double degraded_makespan_ms = 0.0;
  std::vector<int> failed_gpus;
  std::vector<int> surviving_gpus;
  std::size_t ops_rescheduled = 0;  ///< residual ops (recomputed ones included)
};

/// Outcome of a fault-tolerant execution.
struct FailoverResult {
  ExecutionResult primary;            ///< the (possibly partial) first run
  std::map<ops::OpId, ops::Tensor> outputs;  ///< merged graph-sink tensors
  RecoveryMetrics metrics;
  /// Recovery stages lifted back onto original node/GPU ids (empty when the
  /// primary run completed). Failed GPUs simply have no recovery stages.
  sched::Schedule recovery_schedule;
  /// Makespan the caller experienced: primary latency when no fault fired,
  /// degraded_makespan_ms otherwise.
  double total_latency_ms = 0.0;
};

/// Executes `schedule` under `plan`; on an incomplete run, reschedules the
/// residual work onto the surviving GPUs and finishes it. Throws only when
/// recovery is impossible (no survivors, no residual work) or on invalid
/// input; fault-induced incompleteness is handled, not thrown.
FailoverResult execute_with_failover(const ops::Model& model, const graph::Graph& graph,
                                     const sched::Schedule& schedule,
                                     std::shared_ptr<const cost::CostModel> cost,
                                     const fault::FaultPlan& plan,
                                     const std::map<ops::OpId, ops::Tensor>& inputs = {},
                                     const FailoverOptions& options = {});

}  // namespace hios::runtime
