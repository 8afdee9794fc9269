// Virtual-GPU execution engine — the functional substitute for the paper's
// cuDNN + CUDA-aware-MPI engine (§VI-A).
//
// The engine runs every vGPU's stage list on the calling thread, computing
// real tensors with the CPU reference kernels. Time is *virtual*: a stage
// starts when its vGPU's previous stage has finished and every cross-GPU
// tensor it reads has arrived (producer stage finish plus the modelled
// transfer time), and lasts t(S) under the same cost model the scheduler
// optimised against. That makes the clock a pure function of the schedule,
// so the stages run in one topological order of the stage DAG — the order
// sched::check_schedule returns from its one timing-core load — and the
// result equals the stage-level evaluator's, while the tensors prove the
// schedule computes exactly what sequential execution computes.
//
// Fault injection (fault::FaultPlan) drives fail-stop / straggler / link
// faults deterministically in virtual time. A cross-GPU tensor is either
// delivered at its arrival time or dead: its producer's vGPU stopped before
// the producing stage, or the link's retry budget ran out. A stage that
// reads a dead tensor blocks its vGPU for good (DESIGN.md §6c). Transient
// transfer faults are retried with capped exponential backoff and every
// attempt is recorded in the Timeline.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "cost/cost_model.h"
#include "fault/fault_plan.h"
#include "ops/model.h"
#include "sched/schedule.h"
#include "sim/timeline.h"

namespace hios::runtime {

/// Execution knobs beyond the schedule itself.
struct ExecOptions {
  /// Fault script to inject; nullptr = fault-free run.
  const fault::FaultPlan* faults = nullptr;

  /// When a fault leaves the run incomplete: false (default) throws a
  /// structured hios::Error; true returns the partial ExecutionResult so a
  /// failover layer can reschedule the residual work.
  bool allow_partial = false;

  /// Tensors of ops computed *before* this run (failover residual
  /// execution): a scheduled node whose op id appears here is not executed;
  /// its tensor is injected with readiness at virtual time 0.
  const std::map<ops::OpId, std::shared_ptr<const ops::Tensor>>* boundary = nullptr;
};

/// Result of one engine run.
struct ExecutionResult {
  double latency_ms = 0.0;                    ///< virtual-clock makespan of executed stages
  std::map<ops::OpId, ops::Tensor> outputs;   ///< tensors of graph sink ops
  sim::Timeline timeline;                     ///< per-stage compute + transfers (+ retries)

  // --- fault-run state (trivial on fault-free runs) --------------------
  bool complete = true;                       ///< every scheduled op executed
  std::vector<char> executed;                 ///< per graph node: ran to completion
  std::vector<double> node_finish_ms;         ///< per graph node; -1 when not executed
  std::vector<fault::FaultObservation> fault_events;
  /// Tensor of every executed op, keyed by model op id (populated only on
  /// fault-injected runs — failover feeds these back as boundary inputs).
  std::map<ops::OpId, std::shared_ptr<const ops::Tensor>> computed;
};

/// Executes `schedule` (over the profiled `graph`, whose node tags index
/// into `model`) on virtual GPUs. `inputs` supplies a tensor per model
/// input (by op id); missing inputs are filled with deterministic
/// pseudo-random data.
/// Throws hios::Error, before running anything, on an invalid schedule or
/// a graph that misses a model dependency of a computed op (the op reads a
/// non-input op that is not the source of one of its node's in-edges);
/// passes kernel exceptions through; and — unless `options.allow_partial` —
/// throws on fault-incomplete runs.
ExecutionResult execute_schedule(const ops::Model& model, const graph::Graph& graph,
                                 const sched::Schedule& schedule,
                                 const cost::CostModel& cost,
                                 const std::map<ops::OpId, ops::Tensor>& inputs = {},
                                 const ExecOptions& options = {});

/// Sequential reference execution of the whole model on one "GPU".
/// Returns every compute op's output tensor (keyed by op id).
std::map<ops::OpId, ops::Tensor> execute_reference(
    const ops::Model& model, const std::map<ops::OpId, ops::Tensor>& inputs = {});

/// Deterministic input tensor for a model input op (same everywhere).
ops::Tensor make_input_tensor(const ops::Model& model, ops::OpId input_id);

}  // namespace hios::runtime
