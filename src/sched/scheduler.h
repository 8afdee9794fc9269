// Common scheduler interface and factory.
//
// All six algorithms the paper evaluates (§V-B) implement Scheduler:
//   sequential  — one GPU, topological order, one op per stage
//   ios         — IOS (Ding et al.): single-GPU DP with schedule pruning
//   hios-lp     — Alg. 1 (longest-path inter-GPU) + Alg. 2 (intra-GPU)
//   hios-mr     — Alg. 3 (mapping-recording inter-GPU) + Alg. 2
//   inter-lp    — Alg. 1 without the intra-GPU pass (ablation)
//   inter-mr    — Alg. 3 without the intra-GPU pass (ablation)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "sched/schedule.h"

namespace hios::sched {

/// Tunables shared by every algorithm.
struct SchedulerConfig {
  int num_gpus = 2;       ///< M (ignored by sequential and ios)
  int window = 2;         ///< w, max ops per merged stage in Alg. 2
  int max_streams = 8;    ///< L, CUDA streams per GPU (§III-A); caps any stage

  // IOS pruning (defaults keep 200-op graphs subsecond; raise for exactness)
  int ios_max_stage_ops = 3;  ///< max ops per stage candidate
  int ios_frontier_cap = 10;  ///< ready-set truncation (by priority)
  int ios_beam_width = 24;    ///< states kept per down-set size

  bool operator==(const SchedulerConfig&) const = default;
};

/// Output of one scheduling run.
struct ScheduleResult {
  Schedule schedule;
  double latency_ms = 0.0;     ///< evaluated latency under the cost model
  /// Wall-clock time of the whole schedule() call, measured on the calling
  /// thread from entry to return. The search runs serially on that thread,
  /// so no pool dispatch or worker wait is in it. Schedules and latency_ms
  /// are bit-identical for every pool lane count; scheduling_ms is the only
  /// field that varies.
  double scheduling_ms = 0.0;
  std::string algorithm;
};

/// Interface implemented by every scheduling algorithm.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;
  /// Produces a valid schedule of g. `cost` supplies t(S); t(v)/t(u,v)
  /// live on the graph itself.
  virtual ScheduleResult schedule(const graph::Graph& g, const cost::CostModel& cost,
                                  const SchedulerConfig& config) const = 0;
};

/// Instantiates a scheduler by name (see list above). Throws on unknown.
std::unique_ptr<Scheduler> make_scheduler(const std::string& name);

/// All registered algorithm names, in the paper's presentation order.
std::vector<std::string> scheduler_names();

}  // namespace hios::sched
