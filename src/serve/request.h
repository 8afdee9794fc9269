// Request/response model of the serving layer.
//
// A Request names a model registered with the serve::Server and carries its
// *virtual* arrival time and (absolute) deadline — serving time is the same
// modelled virtual time the engine and simulators use, so every admission
// decision and latency sample is deterministic and replayable. A Trace is a
// deterministic request stream drawn from a seed (the serving analogue of
// fault::FaultPlan::random).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "ops/tensor.h"

namespace hios::serve {

using RequestId = int64_t;

inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// Topology mask meaning "every GPU up" (normalised: plans for the full
/// platform always use kFullMask regardless of num_gpus).
inline constexpr uint32_t kFullMask = 0xFFFFFFFFu;

/// Bit g set for every GPU g in [0, num_gpus). Throws hios::Error, prefixed
/// with `what` (the caller and field), unless num_gpus is in [1, 32]: the
/// widths a uint32_t mask can name.
uint32_t gpu_width_mask(int num_gpus, const char* what);

/// One inference request against a registered model.
struct Request {
  RequestId id = -1;
  std::string model;           ///< name registered via Server::register_model
  double arrival_ms = 0.0;     ///< virtual arrival time
  double deadline_ms = kNoDeadline;  ///< absolute virtual deadline
};

/// Terminal state of a request. Conservation invariant (see serve::Metrics):
/// submitted = admitted + rejected + breaker_rejected and
/// admitted = completed + dropped + failed.
enum class Verdict {
  kCompleted,  ///< executed in time (trace mode: possibly after retries)
  kRejected,   ///< bounced at admission: the queue was full
  kDropped,    ///< admitted but the deadline was not met (trace mode: never executed)
  kFailed,     ///< execution failed (unrecoverable fault, engine error)
  kBreakerRejected,  ///< shed at admission: no survivor plan can meet the deadline
};

const char* verdict_name(Verdict verdict);

/// What the caller gets back for one request.
struct Response {
  RequestId id = -1;
  Verdict verdict = Verdict::kFailed;
  int lane = -1;              ///< stream slot that executed the request
  int concurrency = 1;        ///< in-flight requests (this one included) at start
  double queue_ms = 0.0;      ///< virtual wait between arrival and dispatch
  double start_ms = 0.0;      ///< virtual dispatch time
  double finish_ms = 0.0;     ///< virtual completion time
  double latency_ms = 0.0;    ///< finish - arrival (queueing + execution)
  double base_ms = 0.0;       ///< single-request latency of the cached schedule
  double contention_scale = 1.0;  ///< stream-slot slowdown applied to base_ms
  int attempts = 1;           ///< dispatch attempts (1 = no retry was needed)
  bool hedged = false;        ///< a hedged second dispatch was issued
  bool hedge_won = false;     ///< the hedge finished before the primary
  uint32_t topo_mask = kFullMask;  ///< survivor mask the final plan targeted
  std::string error;          ///< failure detail (kFailed only)
  std::map<int, ops::Tensor> outputs;  ///< graph-sink tensors by op id (engine mode)
};

/// Parameters of a random request stream.
struct TraceParams {
  std::vector<std::string> models;   ///< drawn uniformly per request
  int num_requests = 64;
  /// Mean of the exponential inter-arrival gap; 0 = every request at t = 0
  /// (closed-loop saturation, the throughput-benchmark regime).
  double mean_interarrival_ms = 0.0;
  /// Relative deadline added to each arrival; kNoDeadline = none.
  double deadline_slack_ms = kNoDeadline;
};

/// A deterministic, replayable request stream.
struct Trace {
  std::vector<Request> requests;

  /// Draws a trace from `seed` (same seed = same trace, any platform).
  static Trace random(const TraceParams& params, uint64_t seed);
};

}  // namespace hios::serve
