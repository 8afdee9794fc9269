#include "core/pipeline.h"

#include "sched/validate.h"

namespace hios::core {

PipelineOutput run_pipeline(const ops::Model& model, const PipelineOptions& options) {
  PipelineOutput out;
  out.profiled = cost::profile_model(model, options.platform);

  sched::SchedulerConfig config = options.config;
  config.num_gpus = options.platform.num_gpus;

  const auto scheduler = sched::make_scheduler(options.algorithm);
  out.result = scheduler->schedule(out.profiled.graph, *out.profiled.cost, config);
  sched::check_schedule(out.profiled.graph, out.result.schedule);

  auto timeline = sim::simulate_stages(out.profiled.graph, out.result.schedule,
                                       *out.profiled.cost);
  HIOS_ASSERT(timeline.has_value(), "validated schedule must simulate");
  out.timeline = std::move(*timeline);
  return out;
}

}  // namespace hios::core
