#include "runtime/failover.h"

#include <algorithm>
#include <utility>

#include "cost/remap_model.h"

namespace hios::runtime {

namespace {

/// Virtual time the first fatal fault surfaced. Fail-stops and exhausted
/// transfers are the root causes; blocked-peer observations are downstream
/// echoes, so they only matter when no root cause was recorded.
double detection_time(const ExecutionResult& primary) {
  double root = fault::kNever;
  double any = fault::kNever;
  for (const fault::FaultObservation& obs : primary.fault_events) {
    any = std::min(any, obs.at_ms);
    if (obs.kind == fault::FaultObservation::Kind::kFailStop ||
        obs.kind == fault::FaultObservation::Kind::kTransferFailed)
      root = std::min(root, obs.at_ms);
  }
  if (root != fault::kNever) return root;
  if (any != fault::kNever) return any;
  return primary.latency_ms;
}

}  // namespace

FailoverResult execute_with_failover(const ops::Model& model, const graph::Graph& graph,
                                     const sched::Schedule& schedule,
                                     std::shared_ptr<const cost::CostModel> cost,
                                     const fault::FaultPlan& plan,
                                     const std::map<ops::OpId, ops::Tensor>& inputs,
                                     const FailoverOptions& options) {
  HIOS_CHECK(cost != nullptr, "execute_with_failover needs a cost model");

  ExecOptions primary_opts;
  primary_opts.faults = &plan;
  primary_opts.allow_partial = true;

  FailoverResult result;
  result.primary = execute_schedule(model, graph, schedule, *cost, inputs, primary_opts);
  result.metrics.fault_occurred =
      !result.primary.complete || !result.primary.fault_events.empty();

  if (result.primary.complete) {
    result.outputs = result.primary.outputs;
    result.metrics.recovered = true;
    result.total_latency_ms = result.primary.latency_ms;
    return result;
  }

  // A finite fail time means the GPU is permanently dead — even when it
  // drained its stage list before dying, it cannot host recovery work and
  // its tensors are lost.
  std::vector<int> survivors;
  for (int g = 0; g < schedule.num_gpus; ++g) {
    if (plan.fail_time(g) == fault::kNever)
      survivors.push_back(g);
    else
      result.metrics.failed_gpus.push_back(g);
  }
  HIOS_CHECK(!survivors.empty(), "failover impossible: every GPU fail-stopped");
  result.metrics.surviving_gpus = survivors;
  result.metrics.detection_ms = detection_time(result.primary);

  // Residual problem: everything not executed on a surviving GPU must
  // (re)run; surviving tensors become boundary inputs.
  const std::vector<int> gpu_of = schedule.gpu_assignment(graph.num_nodes());
  std::vector<char> available(graph.num_nodes(), 0);
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(graph.num_nodes()); ++v) {
    if (!result.primary.executed[static_cast<std::size_t>(v)]) continue;
    const int g = gpu_of[static_cast<std::size_t>(v)];
    if (plan.fail_time(g) == fault::kNever) available[static_cast<std::size_t>(v)] = 1;
  }
  const sched::ResidualProblem residual = sched::build_residual(graph, available);
  result.metrics.ops_rescheduled = residual.num_residual_ops;

  // Degraded cost model over the survivors: residual ids remapped onto the
  // profiled graph, link faults folded into a compact topology, straggler
  // slowdowns folded into per-GPU speeds.
  auto degraded = std::make_shared<cost::RemappedCostModel>(
      cost, graph, residual.orig_of, residual.is_boundary);
  degraded->set_topology(fault::degraded_topology(cost->topology(), plan, survivors,
                                                  result.metrics.detection_ms));
  std::vector<double> speeds;
  speeds.reserve(survivors.size());
  for (int g : survivors)
    speeds.push_back(cost->speed(g) / plan.compute_scale(g, result.metrics.detection_ms));
  degraded->set_speed_factors(std::move(speeds));

  // Reschedule the residual graph — the paper's problem again, smaller.
  sched::SchedulerConfig config = options.config;
  config.num_gpus = static_cast<int>(survivors.size());
  const sched::ScheduleResult rescheduled =
      sched::make_scheduler(options.algorithm)->schedule(residual.graph, *degraded, config);
  result.metrics.reschedule_wall_ms = rescheduled.scheduling_ms;

  // Live tensors enter the recovery run as boundary inputs.
  std::map<ops::OpId, std::shared_ptr<const ops::Tensor>> boundary;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(residual.graph.num_nodes());
       ++v) {
    if (!residual.is_boundary[static_cast<std::size_t>(v)]) continue;
    const auto op_id = static_cast<ops::OpId>(residual.graph.node_tag(v));
    auto it = result.primary.computed.find(op_id);
    HIOS_CHECK(it != result.primary.computed.end(),
               "boundary tensor for op " << op_id << " was not retained");
    boundary.emplace(op_id, it->second);
  }

  ExecOptions recovery_opts;  // fault-free under the degraded model
  recovery_opts.boundary = &boundary;
  const ExecutionResult recovery = execute_schedule(
      model, residual.graph, rescheduled.schedule, *degraded, inputs, recovery_opts);

  result.metrics.recovered = recovery.complete;
  result.metrics.residual_latency_ms = recovery.latency_ms;
  result.metrics.degraded_makespan_ms =
      result.metrics.detection_ms + recovery.latency_ms;
  result.total_latency_ms = result.metrics.degraded_makespan_ms;
  result.recovery_schedule = sched::lift_residual_schedule(
      residual, rescheduled.schedule, survivors, schedule.num_gpus);

  // Splice outputs: a recomputed sink wins (the primary copy, if any, was
  // on a dead GPU); deterministic kernels make both byte-identical anyway.
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(graph.num_nodes()); ++v) {
    if (graph.out_degree(v) != 0) continue;
    const auto op_id = static_cast<ops::OpId>(graph.node_tag(v));
    auto rec = recovery.outputs.find(op_id);
    if (rec != recovery.outputs.end()) {
      result.outputs.emplace(op_id, rec->second);
      continue;
    }
    auto pri = result.primary.outputs.find(op_id);
    HIOS_CHECK(pri != result.primary.outputs.end(),
               "sink op " << op_id << " missing from both primary and recovery runs");
    result.outputs.emplace(op_id, pri->second);
  }
  return result;
}

}  // namespace hios::runtime
