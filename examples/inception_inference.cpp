// Inception-v3 scheduling study: the paper's first benchmark (§VI-B).
// Profiles Inception-v3 at a chosen input resolution on dual A40 + NVLink,
// compares all six scheduling algorithms, and optionally exports the best
// schedule's Chrome trace and a GPU-coloured DOT of the computation graph.
//
//   ./inception_inference --image_hw 1024 --gpus 2 --trace /tmp/inception_trace.json --dot /tmp/inception.dot
#include <cstdio>
#include <fstream>

#include "core/hios.h"

using namespace hios;

int main(int argc, char** argv) {
  ArgParser args("Inception-v3 scheduling comparison (paper §VI)");
  args.add_flag("image_hw", "1024", "input resolution (>= 75)")
      .add_flag("gpus", "2", "number of virtual GPUs")
      .add_flag("window", "2", "Alg. 2 max window size w")
      .add_flag("trace", "", "write best schedule's Chrome trace JSON here")
      .add_flag("svg", "", "write best schedule's SVG timeline here")
      .add_flag("dot", "", "write GPU-coloured DOT graph here");
  if (!args.parse(argc, argv)) return 0;

  models::InceptionV3Options mopt;
  mopt.image_hw = args.get_int("image_hw");
  const ops::Model model = models::make_inception_v3(mopt);
  const cost::Platform platform = cost::make_a40_server(static_cast<int>(args.get_int("gpus")));
  const cost::ProfiledModel pm = cost::profile_model(model, platform);

  std::printf("Inception-v3 @ %ldx%ld: %d ops, %d deps, %.1f GFLOP, critical path %.2f ms\n\n",
              static_cast<long>(mopt.image_hw), static_cast<long>(mopt.image_hw),
              model.num_compute_ops(), model.num_compute_deps(),
              static_cast<double>(model.total_flops()) / 1e9,
              graph::critical_path_length(pm.graph, false));

  sched::SchedulerConfig config;
  config.num_gpus = platform.num_gpus;
  config.window = static_cast<int>(args.get_int("window"));

  TextTable table;
  table.set_header({"algorithm", "latency_ms", "vs_sequential", "stages", "sched_ms"});
  std::string best_alg;
  double best_latency = 0.0;
  sched::Schedule best_schedule;
  double seq_latency = 0.0;
  for (const std::string& alg : sched::scheduler_names()) {
    const auto r = sched::make_scheduler(alg)->schedule(pm.graph, *pm.cost, config);
    sched::check_schedule(pm.graph, r.schedule);
    if (alg == "sequential") seq_latency = r.latency_ms;
    std::size_t stages = 0;
    for (const auto& gpu : r.schedule.gpus) stages += gpu.size();
    table.add_row({alg, TextTable::num(r.latency_ms, 3),
                   TextTable::num(seq_latency / r.latency_ms, 2) + "x",
                   std::to_string(stages), TextTable::num(r.scheduling_ms, 1)});
    if (best_alg.empty() || r.latency_ms < best_latency) {
      best_alg = alg;
      best_latency = r.latency_ms;
      best_schedule = r.schedule;
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  const auto bounds = sched::latency_lower_bounds(pm.graph, *pm.cost, platform.num_gpus);
  std::printf("\nbest: %s at %.3f ms (lower bound %.3f ms -> gap %.1f%%)\n", best_alg.c_str(),
              best_latency, bounds.combined_ms,
              100.0 * (best_latency / bounds.combined_ms - 1.0));

  // Memory feasibility of the best schedule on 48 GB A40s.
  const auto memory = core::estimate_peak_memory(model, pm.graph, best_schedule, *pm.cost);
  for (std::size_t gpu = 0; gpu < memory.size(); ++gpu) {
    std::printf("GPU %zu peak memory: %.1f MiB params + %.1f MiB activations\n", gpu,
                static_cast<double>(memory[gpu].param_bytes) / (1 << 20),
                static_cast<double>(memory[gpu].peak_activation_bytes) / (1 << 20));
  }

  if (const std::string path = args.get("trace"); !path.empty()) {
    const auto tl = sim::simulate_stages(pm.graph, best_schedule, *pm.cost);
    std::ofstream(path) << tl->to_chrome_trace().dump(true);
    std::printf("wrote Chrome trace to %s (open in chrome://tracing)\n", path.c_str());
  }
  if (const std::string path = args.get("svg"); !path.empty()) {
    const auto tl = sim::simulate_stages(pm.graph, best_schedule, *pm.cost);
    sim::SvgOptions svg_options;
    svg_options.show_labels = false;  // 119 ops: labels would overlap
    std::ofstream(path) << sim::to_svg(*tl, svg_options);
    std::printf("wrote SVG timeline to %s\n", path.c_str());
  }
  if (const std::string path = args.get("dot"); !path.empty()) {
    std::ofstream(path) << graph::to_dot(pm.graph,
                                         best_schedule.gpu_assignment(pm.graph.num_nodes()));
    std::printf("wrote DOT graph to %s\n", path.c_str());
  }
  return 0;
}
