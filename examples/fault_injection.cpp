// Fault-injection quickstart: script a GPU failure, watch the hardened
// runtime survive it.
//
// A thin Inception-v3 is scheduled across virtual GPUs, then a fail-stop
// is injected halfway through the victim GPU's work. The engine stops the
// dead GPU and blocks every stage that waits on a tensor it never sent;
// the failover layer re-runs HIOS on the surviving GPUs over the residual
// graph, and the merged outputs are verified bit-exact against sequential
// execution.
//
//   ./fault_injection --gpus 3 --fail-gpu auto --algorithm hios-lp
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/hios.h"

using namespace hios;

int main(int argc, char** argv) {
  ArgParser args("Inject a fail-stop fault and recover via rescheduling");
  args.add_flag("gpus", "3", "number of virtual GPUs")
      .add_flag("fail-gpu", "auto", "GPU that fail-stops mid-run (auto = busiest)")
      .add_flag("algorithm", "hios-lp", "scheduling algorithm (primary and recovery)");
  if (!args.parse(argc, argv)) return 0;
  const int gpus = static_cast<int>(args.get_int("gpus"));

  // Model + schedule, as in the engine demo.
  models::InceptionV3Options mopt;
  mopt.image_hw = 96;
  mopt.channel_scale = 16;
  const ops::Model model = models::make_inception_v3(mopt);
  const cost::ProfiledModel pm = cost::profile_model(model, cost::make_a40_server(gpus));
  sched::SchedulerConfig config;
  config.num_gpus = gpus;
  const auto planned =
      sched::make_scheduler(args.get("algorithm"))->schedule(pm.graph, *pm.cost, config);
  std::printf("fault-free plan: %d ops on %d GPUs, %.4f ms predicted\n",
              model.num_compute_ops(), gpus, planned.latency_ms);

  // Script the fault: the victim dies halfway through its own stage list
  // (a stage whose start is at/after the fail time never runs). Plans are
  // plain JSON, so they can be stored and replayed.
  const auto fault_free = sim::simulate_stages(pm.graph, planned.schedule, *pm.cost);
  int victim = -1;
  if (args.get("fail-gpu") == "auto") {
    std::vector<int> work(static_cast<std::size_t>(gpus), 0);
    for (const auto& e : fault_free->events)
      if (e.kind == sim::TimelineEvent::Kind::kCompute) ++work[static_cast<std::size_t>(e.gpu)];
    victim = static_cast<int>(std::max_element(work.begin(), work.end()) - work.begin());
  } else {
    victim = static_cast<int>(args.get_int("fail-gpu"));
    if (victim < 0 || victim >= gpus) {
      std::printf("fail-gpu %d out of range for %d GPUs\n", victim, gpus);
      return 1;
    }
  }
  std::vector<double> victim_starts;
  for (const auto& e : fault_free->events)
    if (e.kind == sim::TimelineEvent::Kind::kCompute && e.gpu == victim)
      victim_starts.push_back(e.start_ms);
  if (victim_starts.empty()) {
    std::printf("GPU %d is idle under this schedule; nothing to kill\n", victim);
    return 1;
  }
  std::printf("victim: GPU %d (%zu stages of work)\n", victim, victim_starts.size());
  std::sort(victim_starts.begin(), victim_starts.end());
  fault::FaultPlan plan;
  plan.fail_stops.push_back(
      fault::FailStop{victim, victim_starts[victim_starts.size() / 2]});
  std::printf("\nfault plan:\n%s\n", plan.to_json().dump(/*pretty=*/true).c_str());

  // Execute with failover: partial primary run, reschedule, recovery run.
  runtime::FailoverOptions fopts;
  fopts.algorithm = args.get("algorithm");
  const runtime::FailoverResult run = runtime::execute_with_failover(
      model, pm.graph, planned.schedule, pm.cost, plan, {}, fopts);

  std::size_t done = 0;
  for (char e : run.primary.executed) done += e ? 1u : 0u;
  std::printf("\nprimary run stopped with %zu/%d ops done; observations:\n", done,
              model.num_compute_ops());
  for (const auto& obs : run.primary.fault_events)
    std::printf("  [%8.4f ms] %s\n", obs.at_ms, obs.detail.c_str());

  std::printf("\nrecovery: %zu ops rescheduled onto %zu surviving GPUs\n",
              run.metrics.ops_rescheduled, run.metrics.surviving_gpus.size());
  std::printf("  detection        %.4f ms (virtual)\n", run.metrics.detection_ms);
  std::printf("  rescheduling     %.4f ms (wall clock)\n", run.metrics.reschedule_wall_ms);
  std::printf("  residual run     %.4f ms (virtual)\n", run.metrics.residual_latency_ms);
  std::printf("  degraded total   %.4f ms vs %.4f ms fault-free (%.2fx)\n",
              run.total_latency_ms, planned.latency_ms,
              run.total_latency_ms / planned.latency_ms);

  // Transparency check: merged outputs == sequential reference, bit for bit.
  const auto reference = runtime::execute_reference(model);
  double max_abs_diff = 0.0;
  std::size_t checked = 0;
  for (const auto& [op_id, tensor] : run.outputs) {
    const ops::Tensor& expect = reference.at(op_id);
    for (std::size_t i = 0; i < tensor.size(); ++i) {
      max_abs_diff = std::max(
          max_abs_diff, static_cast<double>(std::fabs(tensor.data()[i] - expect.data()[i])));
      ++checked;
    }
  }
  std::printf("\nchecked %zu output elements against the reference: max |diff| = %g\n",
              checked, max_abs_diff);
  std::printf("recovered: %s\n", run.metrics.recovered && max_abs_diff == 0.0 ? "yes" : "NO");
  return run.metrics.recovered && max_abs_diff == 0.0 ? 0 : 1;
}
