#include "serve/request.h"

#include <cmath>

#include "util/error.h"
#include "util/rng.h"

namespace hios::serve {

uint32_t gpu_width_mask(int num_gpus, const char* what) {
  HIOS_CHECK(num_gpus >= 1 && num_gpus <= 32,
             what << " must be in [1, 32] (got " << num_gpus << ")");
  return num_gpus == 32 ? kFullMask : (1u << num_gpus) - 1u;
}

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kCompleted: return "completed";
    case Verdict::kRejected: return "rejected";
    case Verdict::kDropped: return "dropped";
    case Verdict::kFailed: return "failed";
    case Verdict::kBreakerRejected: return "breaker_rejected";
  }
  return "unknown";
}

Trace Trace::random(const TraceParams& params, uint64_t seed) {
  HIOS_CHECK(!params.models.empty(), "TraceParams.models must not be empty");
  HIOS_CHECK(params.num_requests >= 0, "TraceParams.num_requests must be >= 0");
  HIOS_CHECK(params.mean_interarrival_ms >= 0.0,
             "TraceParams.mean_interarrival_ms must be >= 0");

  Rng rng(seed);
  Trace trace;
  trace.requests.reserve(static_cast<std::size_t>(params.num_requests));
  double clock = 0.0;
  for (int i = 0; i < params.num_requests; ++i) {
    Request request;
    request.id = i;
    request.model = params.models[rng.index(params.models.size())];
    if (params.mean_interarrival_ms > 0.0 && i > 0) {
      // Inverse-CDF exponential draw; 1 - canonical() is in (0, 1], so the
      // log argument never hits zero.
      clock += -params.mean_interarrival_ms * std::log(1.0 - rng.canonical());
    }
    request.arrival_ms = clock;
    if (params.deadline_slack_ms != kNoDeadline) {
      request.deadline_ms = request.arrival_ms + params.deadline_slack_ms;
    }
    trace.requests.push_back(std::move(request));
  }
  return trace;
}

}  // namespace hios::serve
