// End-to-end pipeline: model -> profile -> schedule -> simulate/execute.
//
// This is the high-level API a downstream user calls; examples/quickstart
// shows the whole flow in ~30 lines.
#pragma once

#include <string>

#include "cost/analytical_model.h"
#include "ops/model.h"
#include "sched/scheduler.h"
#include "sim/event_sim.h"

namespace hios::core {

struct PipelineOptions {
  cost::Platform platform = cost::make_dual_a40_nvlink();
  sched::SchedulerConfig config;           ///< num_gpus is overridden from platform
  std::string algorithm = "hios-lp";
};

struct PipelineOutput {
  cost::ProfiledModel profiled;
  sched::ScheduleResult result;
  sim::Timeline timeline;                  ///< stage-accurate timeline
};

/// Profiles `model` on the platform, schedules it with the chosen
/// algorithm, and simulates the schedule. Throws on invalid inputs.
PipelineOutput run_pipeline(const ops::Model& model, const PipelineOptions& options = {});

}  // namespace hios::core
