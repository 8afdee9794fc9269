// Fault model & injection plan.
//
// The paper's engine assumes a fault-free NVLink machine; a production
// cluster does not cooperate: GPUs fail-stop, links drop or degrade, and
// stragglers appear mid-inference. FaultPlan is a *deterministic* script of
// such events over virtual time, shared by the threaded engine and the
// fault-aware test oracle so both observe byte-identical post-fault behaviour
// (the repo's determinism guarantee extends to faulty runs). Plans are
// JSON-(de)serialisable so tests and benches can replay them, and can be
// drawn from a seed for randomized studies.
//
// Event classes:
//   * FailStop    — GPU g permanently dies at virtual time t; stages whose
//                   start time is >= t never run (fail-stop at stage
//                   granularity: a stage that started before t completes).
//   * Straggler   — GPU g runs compute `slowdown`× slower from time t on.
//   * LinkFault   — the (a, b) link is degraded (bandwidth scale + extra
//                   latency) or fully down over a time window [from, to).
//                   A transfer attempted while the link is down is retried
//                   with capped exponential backoff (RetryPolicy); a
//                   transient outage is survivable within the budget, a
//                   permanent one exhausts it and the transfer fails.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "cost/topology.h"
#include "util/json.h"

namespace hios::fault {

inline constexpr double kNever = std::numeric_limits<double>::infinity();

/// GPU `gpu` permanently fails at virtual time `at_ms`.
struct FailStop {
  int gpu = 0;
  double at_ms = 0.0;
};

/// GPU `gpu` computes `slowdown`x slower for stages starting at/after `from_ms`.
struct Straggler {
  int gpu = 0;
  double from_ms = 0.0;
  double slowdown = 1.0;  ///< >= 1; multiplies stage durations
};

/// Degradation or outage of the (gpu_a, gpu_b) link over [from_ms, to_ms).
struct LinkFault {
  int gpu_a = 0;
  int gpu_b = 1;
  double from_ms = 0.0;
  double to_ms = kNever;        ///< kNever = permanent
  bool down = false;            ///< true: no transfer completes in the window
  double bw_scale = 1.0;        ///< multiplies transfer time when !down
  double extra_latency_ms = 0.0;///< added per transfer when !down
};

/// Capped exponential backoff budget for transient transfer faults.
struct RetryPolicy {
  /// Largest max_attempts a policy may ask for: resolve_transfer records
  /// every attempt, so this bounds one transfer's record.
  static constexpr int kMaxAttempts = 1000;

  int max_attempts = 4;            ///< total attempts (first try included), <= kMaxAttempts
  double initial_backoff_ms = 0.25;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 4.0;
};

/// One delivery attempt of a transfer (failed attempts precede the success).
struct TransferAttempt {
  double at_ms = 0.0;      ///< when the attempt was made
  bool ok = false;
  double backoff_ms = 0.0; ///< wait before the next attempt (failed only)
};

/// Outcome of pushing one tensor across a (possibly faulty) link.
struct TransferResolution {
  bool delivered = true;
  double arrival_ms = 0.0;  ///< delivery time, or time the budget ran out
  std::vector<TransferAttempt> attempts;
};

/// What the runtime / simulator observed while executing under a plan.
struct FaultObservation {
  enum class Kind {
    kFailStop,        ///< a GPU hit its fail-stop time
    kBlocked,         ///< a GPU stopped: a dependency will never arrive
    kTransferFailed,  ///< retry budget exhausted on a link
  };
  Kind kind = Kind::kFailStop;
  int gpu = -1;        ///< observing / failing GPU
  int peer_gpu = -1;   ///< transfer faults: the other endpoint
  double at_ms = 0.0;  ///< virtual time of the observation
  std::string detail;
};

/// A deterministic, replayable script of fault events.
class FaultPlan {
 public:
  uint64_t seed = 0;  ///< provenance when generated via random()
  RetryPolicy retry;
  std::vector<FailStop> fail_stops;
  std::vector<Straggler> stragglers;
  std::vector<LinkFault> link_faults;

  bool empty() const {
    return fail_stops.empty() && stragglers.empty() && link_faults.empty();
  }

  /// Virtual time GPU `gpu` fail-stops, or kNever.
  double fail_time(int gpu) const;

  /// Product of straggler slowdowns active on `gpu` at time `t` (>= 1).
  double compute_scale(int gpu, double t) const;

  /// True when any down-window on the (a, b) link covers time `t`.
  bool link_down(int a, int b, double t) const;

  /// Combined degradation of the (a, b) link at time `t`:
  /// product of bw scales and sum of extra latencies of active faults.
  cost::LinkClass link_degradation(int a, int b, double t) const;

  /// Resolves one transfer departing `src_gpu` -> `dst_gpu` at `depart_ms`
  /// whose fault-free duration is `base_ms`. Applies down-windows with the
  /// retry/backoff budget and degradation scaling at the attempt time.
  TransferResolution resolve_transfer(int src_gpu, int dst_gpu, double depart_ms,
                                      double base_ms) const;

  Json to_json() const;
  static FaultPlan from_json(const Json& json);

  /// Parameters for random plan generation (benchmark studies).
  struct RandomParams {
    int num_gpus = 2;
    double horizon_ms = 10.0;     ///< events drawn in [0, horizon)
    int num_fail_stops = 1;       ///< distinct GPUs fail-stop
    int num_link_faults = 0;
    int num_stragglers = 0;
    double down_probability = 0.5;///< link fault is an outage vs degradation
  };

  /// Deterministic plan drawn from `seed` (same seed = same plan).
  static FaultPlan random(const RandomParams& params, uint64_t seed);
};

/// Topology over the surviving GPUs (compact indices `0..survivors.size()`),
/// with every link fault active at `at_ms` folded in. Links that are down at
/// `at_ms` get a prohibitive extra latency so reschedulers route around
/// them. `base` may be empty (symmetric machine).
cost::Topology degraded_topology(const cost::Topology& base, const FaultPlan& plan,
                                 std::span<const int> survivors, double at_ms);

}  // namespace hios::fault
