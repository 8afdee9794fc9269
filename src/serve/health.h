// GPU health tracking for degraded-mode serving (DESIGN.md §6f).
//
// runtime::execute_with_failover is strictly per-request: every request
// that trips over a dead GPU re-discovers it, pays a fresh residual
// reschedule, and the next request does it all again. A serving system
// must own fault state *once*: the first failure marks the GPU down for
// everyone, later requests are planned around it, and a probing loop
// brings it back when it recovers. The server therefore never runs
// failover; its faults are GpuOutage windows in server virtual time.
//
// HealthTracker is that shared state machine. It consumes the evidence
// Server::run_trace observes — a GPU fail-stopped (an outage victim) and
// the outcome of each probe — and keeps one per-GPU state machine:
//
//              (fail-stop)
//   Healthy ---------------> Down
//      ^                      | (probe backoff elapses)
//      | (probe succeeds)     v
//      +----------------- Probing
//            (probe fails: Down again, backoff doubles)
//
// Down and Probing GPUs are excluded from `up_mask()`; a GPU only
// re-enters the serving set when a probe succeeds.
//
// Probe scheduling is *seeded-deterministic*: backoff grows exponentially
// with a jitter factor drawn from a per-GPU hios::Rng stream, so two runs
// with the same seed probe at bit-identical virtual times (the determinism
// contract, DESIGN.md §6e) while distinct GPUs still decorrelate.
//
// generation() bumps whenever up_mask() changes (GPU membership); the
// server prewarms survivor plans each time it moves (§6f).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/json.h"
#include "util/rng.h"

namespace hios::serve {

/// Health of one GPU. See the state diagram above.
enum class HealthState { kHealthy, kDown, kProbing };

const char* health_state_name(HealthState state);

/// Knobs of the health state machine. All times are virtual milliseconds.
struct HealthOptions {
  /// Backoff before the first probe of a freshly Down GPU.
  double probe_backoff_ms = 2.0;
  /// Backoff growth per failed probe, capped at probe_max_backoff_ms.
  double probe_backoff_multiplier = 2.0;
  double probe_max_backoff_ms = 16.0;
  /// Deterministic jitter: each probe delay is scaled by a factor drawn
  /// uniformly from [1 - jitter, 1 + jitter) out of a per-GPU seeded Rng.
  double probe_jitter = 0.25;
  uint64_t seed = 0;

  /// Throws hios::Error naming the offending field on invalid values.
  void validate() const;
};

/// One piece of structured fault evidence fed to the tracker.
struct FaultEvidence {
  enum class Kind {
    kFailStop,      ///< the GPU fail-stopped (it is gone)
    kProbeSuccess,  ///< probe outcome: the GPU answered
    kProbeFailure,  ///< probe outcome: still dead
  };
  Kind kind = Kind::kFailStop;
  int gpu = -1;        ///< subject GPU
  double at_ms = 0.0;  ///< virtual time the evidence was observed
};

/// A server-virtual-time window during which one GPU is dead. This is the
/// serving-level chaos script (the per-request fault::FaultPlan replays in
/// each request's own virtual time; an outage lives in the *server's*
/// shared virtual time, so one request's failure is everyone's failure).
struct GpuOutage {
  int gpu = 0;
  double from_ms = 0.0;
  double to_ms = std::numeric_limits<double>::infinity();  ///< inf = never recovers
};

/// Shared per-GPU health state machine. Not internally locked: only the
/// single-threaded trace path mutates it.
class HealthTracker {
 public:
  explicit HealthTracker(int num_gpus, HealthOptions options = {});

  /// Feeds one piece of evidence through the state machine.
  void observe(const FaultEvidence& evidence);

  /// Moves every Down GPU whose probe is due at/before `now_ms` to
  /// Probing and returns them ordered by (due time, gpu). The caller
  /// performs the probe and reports kProbeSuccess / kProbeFailure.
  std::vector<int> take_due_probes(double now_ms);

  /// Earliest scheduled probe over all Down GPUs (kNever when none).
  double next_probe_due_ms() const;
  /// Scheduled probe time of one GPU (kNever unless Down/Probing).
  double next_probe_ms(int gpu) const;

  HealthState gpu_state(int gpu) const;

  int num_gpus() const { return static_cast<int>(gpus_.size()); }
  /// Bit g set iff GPU g may serve traffic (Healthy).
  uint32_t up_mask() const { return up_mask_; }
  /// True when every GPU may serve traffic.
  bool all_up() const;

  /// Bumps whenever up_mask() changes.
  uint64_t generation() const { return generation_; }

  /// State transitions the tracker performed so far.
  std::size_t transitions() const { return transitions_; }

  std::size_t probes_sent() const { return probes_sent_; }
  std::size_t probes_succeeded() const { return probes_succeeded_; }

  /// Deterministic dump: per-GPU states, mask, generation, transition and
  /// probe counts (virtual-time quantities only).
  Json to_json() const;

 private:
  struct Node {
    HealthState state = HealthState::kHealthy;
    double next_probe_ms = std::numeric_limits<double>::infinity();
    double backoff_ms = 0.0;  ///< current (pre-jitter) probe backoff
  };

  void transition(int gpu, HealthState to);
  void schedule_probe(int gpu, double at_ms);
  double jittered(double backoff_ms, int gpu);
  void refresh_mask();

  HealthOptions options_;
  std::vector<Node> gpus_;
  std::vector<Rng> probe_rngs_;  ///< per-GPU deterministic jitter streams
  uint32_t up_mask_ = 0;
  uint64_t generation_ = 0;
  std::size_t transitions_ = 0;
  std::size_t probes_sent_ = 0;
  std::size_t probes_succeeded_ = 0;
};

}  // namespace hios::serve
