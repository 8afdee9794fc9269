// Virtual-GPU engine demo: actually *execute* a scheduled model — real
// tensors through the CPU reference kernels, stage by stage on virtual
// GPUs with modelled cross-GPU transfers — and verify bit-exactness against
// sequential execution plus a virtual clock bit-equal to the scheduler's.
// Exits 1 unless both hold.
//
//   ./engine_demo --gpus 2 --algorithm hios-lp
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/hios.h"

using namespace hios;

int main(int argc, char** argv) {
  ArgParser args("Execute a scheduled tiny Inception on virtual GPUs");
  args.add_flag("gpus", "2", "number of virtual GPUs")
      .add_flag("algorithm", "hios-lp", "scheduling algorithm");
  if (!args.parse(argc, argv)) return 0;

  // A thin Inception-v3 so the naive CPU kernels finish in milliseconds.
  models::InceptionV3Options mopt;
  mopt.image_hw = 96;
  mopt.channel_scale = 16;
  const ops::Model model = models::make_inception_v3(mopt);

  const int gpus = static_cast<int>(args.get_int("gpus"));
  const cost::ProfiledModel pm = cost::profile_model(model, cost::make_a40_server(gpus));
  sched::SchedulerConfig config;
  config.num_gpus = gpus;
  const auto result =
      sched::make_scheduler(args.get("algorithm"))->schedule(pm.graph, *pm.cost, config);

  std::printf("executing %d ops on %d virtual GPUs (%s)...\n", model.num_compute_ops(),
              gpus, result.algorithm.c_str());
  const runtime::ExecutionResult run =
      runtime::execute_schedule(model, pm.graph, result.schedule, *pm.cost);

  const auto reference = runtime::execute_reference(model);
  double max_abs_diff = 0.0;
  std::size_t checked = 0;
  for (const auto& [op_id, tensor] : run.outputs) {
    const ops::Tensor& expect = reference.at(op_id);
    for (std::size_t i = 0; i < tensor.size(); ++i) {
      max_abs_diff = std::max(max_abs_diff,
                              static_cast<double>(std::fabs(tensor.data()[i] - expect.data()[i])));
      ++checked;
    }
  }
  std::printf("checked %zu output elements against sequential reference: max |diff| = %g\n",
              checked, max_abs_diff);
  const bool same_clock =
      std::memcmp(&run.latency_ms, &result.latency_ms, sizeof(double)) == 0;
  std::printf("virtual-clock latency: %.4f ms (scheduler predicted %.4f ms, %s)\n",
              run.latency_ms, result.latency_ms, same_clock ? "bit-equal" : "MISMATCH");
  std::printf("\nexecution timeline:\n%s", run.timeline.to_ascii_gantt(90).c_str());
  return max_abs_diff == 0.0 && checked > 0 && same_clock ? 0 : 1;
}
