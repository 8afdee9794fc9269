// Shared helpers for the figure-reproduction benchmark harnesses.
//
// Every bench prints: a header naming the paper figure, the reproduced
// series as an aligned table, a CSV block for plotting, and the expected
// qualitative shape from the paper (recorded in EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/hios.h"
#include "util/stats.h"
#include "util/table.h"

namespace hios::bench {

/// Number of random instances per data point. The paper averages 30 runs;
/// default is 5 to keep `for b in build/bench/*; do $b; done` minutes-scale
/// on one core. Override with HIOS_BENCH_INSTANCES=30 for paper-strength
/// statistics.
inline int instances_per_point(int fallback = 5) {
  if (const char* env = std::getenv("HIOS_BENCH_INSTANCES")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

inline void print_header(const std::string& figure, const std::string& description) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("================================================================\n");
}

inline void print_table(const TextTable& table, const std::string& csv_tag) {
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\n--- CSV (%s) ---\n%s--- end CSV ---\n\n", csv_tag.c_str(),
              table.to_csv().c_str());
}

inline void print_expectation(const std::string& text) {
  std::printf("Paper shape: %s\n\n", text.c_str());
}

/// The six §V-B algorithms in presentation order.
inline const std::vector<std::string>& all_algorithms() {
  static const std::vector<std::string> names = {"sequential", "ios",      "hios-lp",
                                                 "hios-mr",    "inter-lp", "inter-mr"};
  return names;
}

/// mean ± std formatted as the paper plots (error bars).
inline std::string mean_std(const RunningStats& s, int precision = 1) {
  return TextTable::num(s.mean(), precision) + "±" + TextTable::num(s.stddev(), precision);
}

// --- golden baselines (tests/golden/*.json) ------------------------------
// Every figure bench accepts:
//   --smoke            reduced deterministic sweep (the CI/golden regime)
//   --golden-write P   regenerate the checked-in golden baseline at P
//   --golden-check P   recompute in-memory and bit-compare against P;
//                      exit 1 on any drift
// Golden content is virtual-time only (latencies under the table/analytical
// cost models), so it is bit-stable across reruns, optimization levels and
// sanitizers; --golden-* implies --smoke and pins the instance count so
// HIOS_BENCH_INSTANCES cannot skew the baseline.
struct BenchArgs {
  bool smoke = false;
  bool help = false;           ///< --help was printed; main should return 0
  std::string golden_write;
  std::string golden_check;
  Json golden = Json::object();

  /// Instances per point: fixed at 2 in smoke/golden mode, env-overridable
  /// otherwise (see instances_per_point).
  int instances() const { return smoke ? 2 : instances_per_point(); }
};

inline BenchArgs parse_bench_args(int argc, char** argv, const std::string& description) {
  ArgParser args(description);
  args.add_flag("smoke", "false", "reduced deterministic sweep (golden/CI regime)")
      .add_flag("golden-write", "", "write the golden JSON baseline to this path")
      .add_flag("golden-check", "", "recompute and bit-compare against this golden");
  BenchArgs out;
  if (!args.parse(argc, argv)) {
    out.help = true;
    return out;
  }
  out.smoke = args.get_bool("smoke");
  out.golden_write = args.get("golden-write");
  out.golden_check = args.get("golden-check");
  if (!out.golden_write.empty() || !out.golden_check.empty()) out.smoke = true;
  return out;
}

/// Prints the table and records its CSV under `tag` in the golden document.
inline void golden_table(BenchArgs& args, const std::string& tag, const TextTable& table) {
  print_table(table, tag);
  args.golden[tag] = table.to_csv();
}

/// Writes/checks the golden baseline as requested; returns the process exit
/// code. A mismatch prints the first differing line of the serialized JSON.
inline int finish_bench(const BenchArgs& args) {
  const std::string produced = args.golden.dump(true) + "\n";
  if (!args.golden_write.empty()) {
    std::ofstream f(args.golden_write);
    HIOS_CHECK(f.good(), "cannot open --golden-write path " << args.golden_write);
    f << produced;
    std::printf("wrote golden %s\n", args.golden_write.c_str());
  }
  if (!args.golden_check.empty()) {
    std::ifstream f(args.golden_check);
    HIOS_CHECK(f.good(), "cannot open --golden-check path " << args.golden_check);
    std::stringstream buffer;
    buffer << f.rdbuf();
    const std::string expected = buffer.str();
    if (expected != produced) {
      std::istringstream e(expected), p(produced);
      std::string eline, pline;
      int line = 1;
      while (std::getline(e, eline) && std::getline(p, pline) && eline == pline) ++line;
      std::fprintf(stderr,
                   "FAIL: golden mismatch vs %s at line %d\n  golden:   %s\n"
                   "  produced: %s\nRegenerate with --golden-write if intended.\n",
                   args.golden_check.c_str(), line, eline.c_str(), pline.c_str());
      return 1;
    }
    std::printf("golden check passed: %s\n", args.golden_check.c_str());
  }
  return 0;
}

/// One simulation data point (§V): `instances` random DAGs from `params`
/// (seeds 1..instances), each scheduled by every algorithm in `algs` on
/// `num_gpus` GPUs under the table cost model. Returns per-algorithm
/// latency statistics.
inline std::map<std::string, RunningStats> run_sim_point(
    const models::RandomDagParams& params, int num_gpus, int instances,
    const std::vector<std::string>& algs = all_algorithms()) {
  std::map<std::string, RunningStats> stats;
  const cost::TableCostModel cost;
  for (int i = 1; i <= instances; ++i) {
    models::RandomDagParams p = params;
    p.seed = static_cast<uint64_t>(i);
    const graph::Graph g = models::random_dag(p);
    sched::SchedulerConfig config;
    config.num_gpus = num_gpus;
    for (const auto& [name, result] : core::run_algorithms(g, cost, config, algs)) {
      stats[name].add(result.latency_ms);
    }
  }
  return stats;
}

}  // namespace hios::bench
