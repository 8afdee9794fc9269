// Fig. 14 reproduction: time cost of scheduling optimization (minutes) for
// IOS, HIOS-LP and HIOS-MR over input image sizes (§VI-F).
//
// As in the paper, the cost counts (i) the on-device measurement of every
// operator, transfer, and candidate concurrent group — simulated as 36
// runs of each distinct quantity the algorithm queried from the cost model
// — plus (ii) the algorithm's own wall-clock runtime.
//
// Besides the sweep, the harness measures the raw scheduling wall-clock of
// HIOS-LP (with the Alg. 2 parallelize pass) on a 512-op / 4-GPU random
// DAG — the regression benchmark for the incremental scheduling core
// (sched/core/, see DESIGN.md §6d) — and, after each repetition, a fixed
// in-process reference operation, so the wall clock can also be read in
// units of the host's speed; together with the deterministic work
// counters of Alg. 1 (paths, path-DP positions, list-state walks and
// ranks) and Alg. 2 (candidates, stage timings, independence-search
// stages) on that DAG, which unlike the wall clock are the same on every
// machine. The full run also sweeps HIOS-LP's wall clock over 256- to
// 8192-op DAGs, split into Alg. 1 and Alg. 2, and prints the process peak
// RSS after the largest (the figures BENCH_sched.json records). Flags:
//   --json <path>       write all results as machine-readable JSON
//   --smoke             skip the image-size sweeps (CI regression mode)
//   --assert-max-ms <b> exit 1 when the 512-op wall-clock exceeds b ms
//   --assert-max-ratio <r>  exit 1 when the 512-op wall-clock exceeds r
//                       times an in-process reference operation's (a bound
//                       in units of the host's own speed)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <unordered_map>

#include "bench_common.h"
#include "sched/hios_lp.h"
#include "util/args.h"
#include "util/json.h"

using namespace hios;

namespace {

void sweep(const std::string& title, const std::vector<int64_t>& sizes,
           const std::function<ops::Model(int64_t)>& build, const std::string& csv_tag,
           Json& out) {
  TextTable table;
  table.set_header({"image_hw", "ios_min", "hios-lp_min", "hios-mr_min"});
  Json rows = Json::array();
  for (int64_t hw : sizes) {
    const ops::Model model = build(hw);
    const cost::ProfiledModel pm = cost::profile_model(model, cost::make_dual_a40_nvlink());
    std::vector<std::string> row{std::to_string(hw)};
    Json jrow = Json::object();
    jrow["image_hw"] = hw;
    for (const char* alg : {"ios", "hios-lp", "hios-mr"}) {
      const core::CountingCostModel counter(*pm.cost);
      sched::SchedulerConfig config;
      config.num_gpus = 2;
      const auto result = sched::make_scheduler(alg)->schedule(pm.graph, counter, config);
      const double minutes =
          core::scheduling_cost_minutes(pm.graph, counter, result.scheduling_ms);
      row.push_back(TextTable::num(minutes, 2));
      jrow[std::string(alg) + "_min"] = minutes;
    }
    table.add_row(std::move(row));
    rows.push_back(std::move(jrow));
    std::fflush(stdout);
  }
  out[csv_tag] = std::move(rows);
  std::printf("%s\n", title.c_str());
  bench::print_table(table, csv_tag);
}

/// One run of a fixed reference operation, built like perfbench's
/// ReferenceStage: sort 32 768 fixed keys, hash-index every fourth and look
/// all of them up. Timing the scheduler in its units makes a bound that
/// holds on fast and slow hosts alike.
struct Reference {
  double ms = 0.0;
  double sink = 0.0;  ///< the operation's result, reported so it is not elided
};

Reference run_reference() {
  std::vector<uint64_t> keys(std::size_t{1} << 15);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < sorted.size(); i += 4) index.emplace(sorted[i], i);
  std::size_t found = 0;
  double acc = 0.0;
  for (uint64_t k : keys) {
    const auto it = index.find(k);
    if (it != index.end()) found += it->second;
    acc += std::sqrt(static_cast<double>(k >> 11));
  }
  Reference ref;
  ref.ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  ref.sink = static_cast<double>(found) + acc;
  return ref;
}

/// Scheduling wall-clock of HIOS-LP + parallelize on the regression DAG
/// (512 ops, 4 GPUs), and of the reference operation run after each call.
/// Best of `reps` to shed scheduler noise; the latency must be independent
/// of the repetition (deterministic algorithm).
Json measure_sched_wallclock(int reps) {
  models::RandomDagParams p;
  p.num_ops = 512;
  p.num_layers = 22;
  p.num_deps = 1024;
  p.seed = 7;
  const graph::Graph g = models::random_dag(p);
  const cost::TableCostModel cost;
  sched::SchedulerConfig config;
  config.num_gpus = 4;

  double best_ms = 0.0, latency_ms = 0.0;
  Reference reference;
  for (int rep = 0; rep < reps; ++rep) {
    const auto r = sched::make_scheduler("hios-lp")->schedule(g, cost, config);
    if (rep == 0 || r.scheduling_ms < best_ms) best_ms = r.scheduling_ms;
    latency_ms = r.latency_ms;
    const Reference ref = run_reference();
    if (rep == 0 || ref.ms < reference.ms) reference.ms = ref.ms;
    reference.sink += ref.sink;
  }

  // Deterministic work counters on the same DAG: HIOS-LP is Alg. 1
  // (inter-lp) followed by parallelize.
  const sched::LongestPathMapping alg1 =
      sched::longest_path_mapping(graph::CompiledGraph(g), config.num_gpus, cost);
  const sched::ParallelizeResult alg2 = sched::parallelize(
      g, alg1.schedule, cost, std::min(config.window, config.max_streams));

  // Wall-clock of the same run before the incremental scheduling core
  // (PR 2), measured on the reference machine: the acceptance bar is a
  // >= 5x reduction, recorded alongside every measurement.
  const double baseline_prerefactor_ms = 82.0;

  Json j = Json::object();
  j["algorithm"] = "hios-lp";
  j["num_ops"] = p.num_ops;
  j["num_gpus"] = config.num_gpus;
  j["seed"] = p.seed;
  j["scheduling_ms"] = best_ms;
  j["latency_ms"] = latency_ms;
  j["baseline_prerefactor_ms"] = baseline_prerefactor_ms;
  j["speedup_vs_baseline"] = baseline_prerefactor_ms / best_ms;
  j["reference_ms"] = reference.ms;
  j["reference_sink"] = reference.sink;
  j["ratio_to_reference"] = best_ms / reference.ms;
  j["alg1_paths"] = alg1.paths;
  j["alg1_positions_visited"] = alg1.positions_visited;
  j["alg1_walks"] = alg1.walks;
  j["alg1_ranks_walked"] = alg1.ranks_walked;
  j["alg2_candidates"] = alg2.candidates_tried;
  j["alg2_stages_retimed"] = alg2.stages_retimed;
  j["alg2_stages_searched"] = alg2.stages_searched;
  std::printf("HIOS-LP 512 ops / 4 GPUs: scheduling %.2f ms "
              "(pre-refactor baseline %.1f ms, %.1fx), latency %.3f ms\n"
              "reference operation %.3f ms: scheduling = %.3f reference units\n"
              "Alg. 1: %zu paths, %zu path-DP positions, %zu walks, %zu list-state ranks\n"
              "Alg. 2: %d candidates, %zu stage timings, %zu stages searched\n\n",
              best_ms, baseline_prerefactor_ms, baseline_prerefactor_ms / best_ms, latency_ms,
              reference.ms, best_ms / reference.ms, alg1.paths, alg1.positions_visited,
              alg1.walks, alg1.ranks_walked, alg2.candidates_tried, alg2.stages_retimed,
              alg2.stages_searched);
  return j;
}

/// HIOS-LP wall clock over growing DAGs (4 GPUs, the 512-op DAG's shape
/// scaled), split into Alg. 1 (the inter-lp scheduler) and Alg. 2
/// (parallelize on its schedule). Medians of `reps` runs, each run timing
/// all three back to back. Also records the process peak RSS after the
/// largest DAG.
void measure_sched_scaling(int reps, Json& out) {
  const cost::TableCostModel cost;
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  const auto median = [](const std::vector<double>& xs) { return percentile(xs, 0.5); };
  TextTable table;
  table.set_header({"num_ops", "hios-lp_ms", "alg1_ms", "alg2_ms"});
  Json rows = Json::array();
  for (int ops : {256, 512, 1024, 2048, 4096, 8192}) {
    models::RandomDagParams p;
    p.num_ops = ops;
    p.num_layers = 22 * ops / 512;
    p.num_deps = 2 * ops;
    p.seed = 7;
    const graph::Graph g = models::random_dag(p);
    std::vector<double> total, alg1, alg2;
    double latency_ms = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const auto r = sched::make_scheduler("hios-lp")->schedule(g, cost, config);
      total.push_back(r.scheduling_ms);
      latency_ms = r.latency_ms;
      const auto placed = sched::make_scheduler("inter-lp")->schedule(g, cost, config);
      alg1.push_back(placed.scheduling_ms);
      const auto t0 = std::chrono::steady_clock::now();
      sched::parallelize(g, placed.schedule, cost, std::min(config.window, config.max_streams));
      alg2.push_back(
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
              .count());
    }
    Json row = Json::object();
    row["num_ops"] = ops;
    row["hios_lp_ms"] = median(total);
    row["alg1_ms"] = median(alg1);
    row["alg2_ms"] = median(alg2);
    row["latency_ms"] = latency_ms;
    table.add_row({std::to_string(ops), TextTable::num(median(total), 2),
                   TextTable::num(median(alg1), 2), TextTable::num(median(alg2), 2)});
    rows.push_back(std::move(row));
  }
  std::printf("HIOS-LP scheduling wall clock, 4 GPUs (median of %d)\n", reps);
  bench::print_table(table, "sched_scaling");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  std::printf("peak RSS after the 8192-op row: %.1f MB\n\n", peak_rss_mb);
  out["sched_scaling"] = std::move(rows);
  out["sched_scaling_peak_rss_mb"] = peak_rss_mb;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("Fig. 14: scheduling-optimization time cost, plus the scheduling "
                 "wall-clock regression check for the incremental core");
  args.add_flag("json", "", "write results as JSON to this path")
      .add_flag("smoke", "false", "skip the image-size sweeps (wall-clock check only)")
      .add_flag("assert-max-ms", "0",
                "exit 1 when the 512-op HIOS-LP scheduling wall-clock exceeds this "
                "bound in ms (0 = no check)")
      .add_flag("assert-max-ratio", "0",
                "exit 1 when the 512-op HIOS-LP scheduling wall-clock exceeds this many "
                "reference operations (0 = no check)")
      .add_flag("golden-write", "", "write the virtual-time golden baseline to this path")
      .add_flag("golden-check", "", "bit-compare the virtual-time results against this golden");
  if (!args.parse(argc, argv)) return 0;

  Json out = Json::object();
  const std::string golden_write = args.get("golden-write");
  const std::string golden_check = args.get("golden-check");
  const bool smoke =
      args.get_bool("smoke") || !golden_write.empty() || !golden_check.empty();

  bench::print_header("Figure 14",
                      "time cost of scheduling optimization (minutes) vs input size");

  if (!smoke) {
    // The scaling rows run first, so the peak RSS they report is the
    // scheduler's own, not the image-size sweeps'.
    measure_sched_scaling(5, out);
    sweep("(a) Inception-v3", {299, 512, 1024, 2048},
          [](int64_t hw) {
            models::InceptionV3Options opt;
            opt.image_hw = hw;
            return models::make_inception_v3(opt);
          },
          "fig14a_inception", out);

    sweep("(b) NASNet-A", {331, 512, 1024, 2048},
          [](int64_t hw) {
            models::NasnetOptions opt;
            opt.image_hw = hw;
            return models::make_nasnet(opt);
          },
          "fig14b_nasnet", out);
  }

  out["sched_wallclock_512x4"] = measure_sched_wallclock(7);

  if (!smoke) {
    bench::print_expectation(
        "scheduling cost of HIOS-LP / HIOS-MR grows much more slowly with input size "
        "than IOS's (paper: HIOS-LP < 20 min for Inception-v3; up to 55.8% cheaper than "
        "IOS for NASNet at large inputs) because IOS must profile far more candidate "
        "concurrent groups.");
  }

  if (const std::string path = args.get("json"); !path.empty()) {
    std::ofstream f(path);
    HIOS_CHECK(f.good(), "cannot open --json path " << path);
    f << out.dump(true) << "\n";
    std::printf("wrote %s\n", path.c_str());
  }

  // Golden baseline: only the virtual-time quantities (the scheduled
  // latency, never the wall clock) are bit-stable, so the golden holds just
  // those. Reuses the shared write/check helper through a BenchArgs shim.
  if (!golden_write.empty() || !golden_check.empty()) {
    bench::BenchArgs golden_args;
    golden_args.golden_write = golden_write;
    golden_args.golden_check = golden_check;
    const Json& wall = out.at("sched_wallclock_512x4");
    Json g = Json::object();
    g["algorithm"] = wall.at("algorithm");
    g["num_ops"] = wall.at("num_ops");
    g["num_gpus"] = wall.at("num_gpus");
    g["seed"] = wall.at("seed");
    g["latency_ms"] = wall.at("latency_ms");
    golden_args.golden["fig14_sched_512x4"] = std::move(g);
    if (const int code = bench::finish_bench(golden_args); code != 0) return code;
  }

  const double bound = args.get_double("assert-max-ms");
  if (bound > 0.0) {
    const double measured = out.at("sched_wallclock_512x4").at("scheduling_ms").as_number();
    if (measured > bound) {
      std::fprintf(stderr, "FAIL: HIOS-LP scheduling wall-clock %.2f ms exceeds bound %.2f ms\n",
                   measured, bound);
      return 1;
    }
    std::printf("wall-clock check passed: %.2f ms <= %.2f ms\n", measured, bound);
  }
  const double max_ratio = args.get_double("assert-max-ratio");
  if (max_ratio > 0.0) {
    const double ratio = out.at("sched_wallclock_512x4").at("ratio_to_reference").as_number();
    if (ratio > max_ratio) {
      std::fprintf(stderr,
                   "FAIL: HIOS-LP scheduling wall-clock is %.3f reference operations, "
                   "above the bound %.3f\n",
                   ratio, max_ratio);
      return 1;
    }
    std::printf("reference-unit check passed: %.3f <= %.3f\n", ratio, max_ratio);
  }
  return 0;
}
