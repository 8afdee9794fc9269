// The benchmark's three stages and the inputs they run on.
//
//   sched  HIOS-LP schedule() calls, closed loop over a fixed cycle of
//          inputs (1024-op random layered DAGs, or the profiled zoo graphs);
//   zoo    zoo passes: a fresh ScheduleCache + PlanPool, PlanPool::prewarm
//          of the full and every single-GPU-down mask for five CNNs (25
//          cold builds), then a fixed batch of warm ScheduleCache::get;
//   serve  Server::run_trace of an open-loop, virtual-time zoo-mix trace
//          with deadlines and GPU outage windows, plus a ladder of
//          outage-free traces at fixed arrival rates.
//
// Every workload runs all three stages, since each end-to-end metric is
// reported for each workload; the workload picks the sched stage's inputs
// and how the run's time is shared (main.cpp). A stage's constructor runs
// and checks its reference operation (which also warms it up); step() runs
// one timed operation; finish() returns the raw samples run.py reads.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "graph/graph.h"
#include "ops/model.h"
#include "serve/health.h"
#include "serve/request.h"
#include "spans.h"
#include "util/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// A JSON array of the samples, for the raw document.
hios::Json numbers(const std::vector<double>& xs);

/// Correctness tally: each checked operation is one attempt.
struct Checks {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages

  /// Counts one attempted operation; records `what` when !ok.
  void expect(bool ok, const std::string& what);
};

/// One scheduling input: a weighted graph and the cost model timing it.
struct SchedInput {
  std::string label;
  hios::graph::Graph graph;
  std::shared_ptr<const hios::cost::CostModel> cost;
};

struct ZooModel {
  std::string name;
  hios::ops::Model model;
};

/// Every input a run uses, generated from the workload seed.
struct Inputs {
  std::vector<SchedInput> sched;  ///< the sched stage's input cycle
  std::vector<ZooModel> zoo;
  hios::serve::Trace trace;       ///< serve stage: deadlines + outages
  std::vector<hios::serve::GpuOutage> outages;
  double ladder_limit_ms = 0.0;  ///< p99 limit of max_rps_at_p99
  std::vector<double> ladder_rps;
  std::vector<hios::serve::Trace> ladder;  ///< one trace per ladder rate
};

/// Builds every input from `seed`. `large_dags` selects 1024-op random
/// DAGs for the sched stage, else the zoo graphs profiled for 4 A40s.
Inputs make_inputs(bool large_dags, uint64_t seed);

/// Builds (and drops) a server prewarmed with every plan the main trace
/// can reach: the serving part of set-up.
void prewarm_server(const Inputs& in);

struct Run {
  explicit Run(bool traced) : trace(traced), spans(traced) {}
  bool trace;
  Spans spans;
  Checks checks;
};

class Stage {
 public:
  virtual ~Stage() = default;
  /// One timed operation; with `traced`, spans wrap its library calls.
  virtual void step(bool traced) = 0;
  /// Operations run so far with the given tracing.
  virtual std::size_t samples(bool traced) const = 0;
  /// Untimed traced extras, then the raw samples.
  virtual hios::Json finish() = 0;
};

std::unique_ptr<Stage> make_sched_stage(Run& run, const Inputs& in);
std::unique_ptr<Stage> make_zoo_stage(Run& run, const Inputs& in);
std::unique_ptr<Stage> make_serve_stage(Run& run, const Inputs& in);

}  // namespace perfbench
