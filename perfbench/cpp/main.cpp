// hios_perfbench: runs one benchmark workload and writes its raw samples.
//
//   hios_perfbench --workload <sched-large|plan-zoo|serve-trace> --seed <n>
//                  --seconds <s> --trace <0|1> --out <raw.json>
//                  [--spans <trace.json>]
//
// The scheduler thread pool is pinned to one lane for the whole run. Set-up
// (input generation, zoo profiling, one prewarmed server) runs first and is
// repeated among the stages, each repetition timed. A fixed reference
// operation of the benchmark's own is timed among the stages too; run.py
// scales the wall-clock figures by it. Exit code 3: a
// correctness check failed. The raw document holds every sample;
// perfbench/run.py computes the metrics from it. With --trace 1 the spans
// recorded around library calls are written to --spans as Chrome trace JSON.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "stages.h"
#include "util/thread_pool.h"

using namespace perfbench;

namespace {

/// Share of --seconds each stage gets; the stage a workload is named after
/// gets most of it. Stages take turns, one operation at a time, so each
/// stage's samples spread over the whole run rather than one window of it.
struct Workload {
  const char* name;
  bool large_dags;
  double share[5];  ///< sched, zoo, serve, set-up, reference
};

constexpr Workload kWorkloads[] = {
    {"sched-large", true, {0.45, 0.25, 0.20, 0.05, 0.05}},
    {"plan-zoo", false, {0.10, 0.60, 0.20, 0.05, 0.05}},
    {"serve-trace", false, {0.10, 0.25, 0.55, 0.05, 0.05}},
};
/// Untraced operations each stage needs whatever its share: each p90 keeps
/// at least ten samples beyond it; the serve, set-up and reference times
/// are medians.
constexpr std::size_t kMinSamples[5] = {100, 150, 5, 5, 50};
/// Traced operations: at least one call per sched input (8 DAGs or 5 zoo
/// graphs), which the byte-for-byte and Alg. 1 replay checks need.
constexpr std::size_t kMinTraced[3] = {8, 4, 2};
constexpr double kCapSeconds = 120.0;

/// Repeats the set-up (inputs plus one prewarmed server) as a stage of its
/// own, so its median covers the same window as the other stages.
class SetupStage final : public Stage {
 public:
  SetupStage(const Workload& w, uint64_t seed, Inputs* first) : w_(w), seed_(seed) {
    *first = setup();
  }
  void step(bool) override { setup(); }
  std::size_t samples(bool) const override { return seconds_.size(); }
  hios::Json finish() override { return numbers(seconds_); }

 private:
  Inputs setup() {
    const auto t0 = Clock::now();
    Inputs in = make_inputs(w_.large_dags, seed_);
    prewarm_server(in);
    seconds_.push_back(ms_since(t0) / 1000.0);
    return in;
  }

  const Workload& w_;
  uint64_t seed_;
  std::vector<double> seconds_;
};

/// A fixed operation of the benchmark's own (sorting, hashing and float
/// math on a fixed array; no library code), timed among the stages. On a
/// shared machine the host's speed moves by up to a third between runs;
/// run.py scales each wall-clock figure by a nominal reference time over
/// this run's median, so those figures follow the program, not the host.
class ReferenceStage final : public Stage {
 public:
  ReferenceStage() : keys_(kKeys) {
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (uint64_t& k : keys_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = x;
    }
    step(false);  // warm-up
    ms_.clear();
  }

  void step(bool) override {
    const auto t0 = Clock::now();
    std::vector<uint64_t> sorted = keys_;
    std::sort(sorted.begin(), sorted.end());
    std::unordered_map<uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < sorted.size(); i += 4) index.emplace(sorted[i], i);
    std::size_t found = 0;
    double acc = 0.0;
    for (uint64_t k : keys_) {
      const auto it = index.find(k);
      if (it != index.end()) found += it->second;
      acc += std::sqrt(static_cast<double>(k >> 11));
    }
    ms_.push_back(ms_since(t0));
    sink_ += static_cast<double>(found) + acc;
  }

  std::size_t samples(bool) const override { return ms_.size(); }
  hios::Json finish() override { return numbers(ms_); }
  double sink() const { return sink_; }

 private:
  static constexpr std::size_t kKeys = 1 << 15;
  std::vector<uint64_t> keys_;
  std::vector<double> ms_;
  double sink_ = 0.0;
};

/// Runs `n` stages in turns for `seconds`: the next operation goes to the
/// stage furthest below its share of the time spent so far, until every
/// stage has its share and `min` operations (or the cap is reached). With
/// `traced`, each stage alternates untraced and traced operations (`min`
/// counts the traced ones), so trace.overhead_pct compares the two over the
/// same stretch of the host's speed.
void interleave(Stage* const stages[], const double share[], const std::size_t min[], int n,
                double seconds, bool traced) {
  std::vector<double> spent(static_cast<std::size_t>(n), 0.0);
  const auto t_start = Clock::now();
  for (;;) {
    int next = -1;
    for (int s = 0; s < n; ++s) {
      const bool done = spent[s] >= share[s] * seconds && stages[s]->samples(traced) >= min[s];
      if (!done && (next < 0 || spent[s] / share[s] < spent[next] / share[next])) next = s;
    }
    if (next < 0 || ms_since(t_start) / 1000.0 > kCapSeconds) return;
    const auto t0 = Clock::now();
    stages[next]->step(traced && stages[next]->samples(true) < stages[next]->samples(false));
    spent[next] += ms_since(t0) / 1000.0;
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: hios_perfbench --workload <sched-large|plan-zoo|serve-trace> "
               "--seed <n> --seconds <s> --trace <0|1> --out <raw.json> [--spans <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_path, spans_path;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(value.c_str());
    else if (flag == "--trace") traced = value == "1";
    else if (flag == "--out") out_path = value;
    else if (flag == "--spans") spans_path = value;
    else return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads)
    if (workload == k.name) w = &k;
  if (!w || out_path.empty() || seconds <= 0.0) return usage();

  try {
    hios::util::set_global_threads(1);
    Run run(traced);

    Inputs in;
    SetupStage setup(*w, seed, &in);
    std::unique_ptr<Stage> owned[3] = {make_sched_stage(run, in), make_zoo_stage(run, in),
                                       make_serve_stage(run, in)};
    ReferenceStage reference;
    Stage* const stages[5] = {owned[0].get(), owned[1].get(), owned[2].get(), &setup, &reference};
    if (traced) {
      interleave(stages, w->share, kMinTraced, 3, seconds, true);
    } else {
      interleave(stages, w->share, kMinSamples, 5, seconds, false);
    }

    hios::Json out = hios::Json::object();
    out["sched"] = stages[0]->finish();
    out["zoo"] = stages[1]->finish();
    out["serve"] = stages[2]->finish();
    out["workload"] = w->name;
    out["seed"] = static_cast<int64_t>(seed);
    out["lanes"] = hios::util::global_pool().num_threads();
    out["setup_s"] = setup.finish();
    out["reference_ms"] = reference.finish();
    out["reference_sink"] = reference.sink();
    out["peak_rss_mb"] = peak_rss_mb();
    out["attempted"] = run.checks.attempted;
    out["failed"] = run.checks.failed;
    hios::Json failures = hios::Json::array();
    for (const std::string& f : run.checks.failures) failures.push_back(f);
    out["failures"] = std::move(failures);
    if (traced) out["spans"] = static_cast<int64_t>(run.spans.size());

    if (traced && !spans_path.empty() && !run.spans.write_chrome(spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
      return 1;
    }
    std::ofstream file(out_path);
    file << out.dump() << "\n";
    if (!file.good()) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    return run.checks.failed == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hios_perfbench: %s\n", e.what());
    return 1;
  }
}
