#include "serve/health.h"

#include <algorithm>
#include <utility>

#include "serve/request.h"
#include "util/error.h"

namespace hios::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

const char* health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDown: return "down";
    case HealthState::kProbing: return "probing";
  }
  return "unknown";
}

void HealthOptions::validate() const {
  HIOS_CHECK(probe_backoff_ms > 0.0,
             "HealthOptions.probe_backoff_ms must be > 0 (got " << probe_backoff_ms << ")");
  HIOS_CHECK(probe_backoff_multiplier >= 1.0,
             "HealthOptions.probe_backoff_multiplier must be >= 1 (got "
                 << probe_backoff_multiplier << ")");
  HIOS_CHECK(probe_max_backoff_ms >= probe_backoff_ms,
             "HealthOptions.probe_max_backoff_ms must be >= probe_backoff_ms (got "
                 << probe_max_backoff_ms << " < " << probe_backoff_ms << ")");
  HIOS_CHECK(probe_jitter >= 0.0 && probe_jitter < 1.0,
             "HealthOptions.probe_jitter must be in [0, 1) (got " << probe_jitter << ")");
}

HealthTracker::HealthTracker(int num_gpus, HealthOptions options)
    : options_(std::move(options)) {
  HIOS_CHECK(num_gpus >= 1 && num_gpus <= 32,
             "HealthTracker: num_gpus must be in [1, 32] (got " << num_gpus << ")");
  options_.validate();
  gpus_.resize(static_cast<std::size_t>(num_gpus));
  probe_rngs_.reserve(static_cast<std::size_t>(num_gpus));
  for (int g = 0; g < num_gpus; ++g) {
    // Per-GPU jitter streams: deterministic under the seed, decorrelated
    // across GPUs (SplitMix64-style odd-multiplier spread).
    probe_rngs_.emplace_back(options_.seed ^
                             (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(g + 1)));
  }
  refresh_mask();
  generation_ = 0;  // the initial mask computation is not a transition
}

void HealthTracker::refresh_mask() {
  uint32_t mask = 0;
  for (std::size_t g = 0; g < gpus_.size(); ++g) {
    if (gpus_[g].state == HealthState::kHealthy) mask |= (1u << g);
  }
  if (mask != up_mask_) {
    up_mask_ = mask;
    ++generation_;
  }
}

void HealthTracker::transition(int gpu, HealthState to) {
  Node& node = gpus_[static_cast<std::size_t>(gpu)];
  if (node.state == to) return;
  ++transitions_;
  node.state = to;
  refresh_mask();
}

double HealthTracker::jittered(double backoff_ms, int gpu) {
  const double j = options_.probe_jitter;
  if (j <= 0.0) return backoff_ms;
  Rng& rng = probe_rngs_[static_cast<std::size_t>(gpu)];
  return backoff_ms * (1.0 - j + 2.0 * j * rng.canonical());
}

void HealthTracker::schedule_probe(int gpu, double at_ms) {
  Node& node = gpus_[static_cast<std::size_t>(gpu)];
  node.next_probe_ms = at_ms + jittered(node.backoff_ms, gpu);
}

void HealthTracker::observe(const FaultEvidence& evidence) {
  const int g = evidence.gpu;
  HIOS_CHECK(g >= 0 && g < num_gpus(), "FaultEvidence: gpu " << g << " out of range");
  Node& node = gpus_[static_cast<std::size_t>(g)];
  switch (evidence.kind) {
    case FaultEvidence::Kind::kFailStop:
      if (node.state == HealthState::kDown) return;
      transition(g, HealthState::kDown);
      node.backoff_ms = options_.probe_backoff_ms;
      schedule_probe(g, evidence.at_ms);
      break;
    case FaultEvidence::Kind::kProbeSuccess:
      ++probes_succeeded_;
      transition(g, HealthState::kHealthy);
      node.backoff_ms = 0.0;
      node.next_probe_ms = kInf;
      break;
    case FaultEvidence::Kind::kProbeFailure:
      transition(g, HealthState::kDown);
      node.backoff_ms = std::min(node.backoff_ms * options_.probe_backoff_multiplier,
                                 options_.probe_max_backoff_ms);
      if (node.backoff_ms <= 0.0) node.backoff_ms = options_.probe_backoff_ms;
      schedule_probe(g, evidence.at_ms);
      break;
  }
}

std::vector<int> HealthTracker::take_due_probes(double now_ms) {
  std::vector<std::pair<double, int>> due;
  for (int g = 0; g < num_gpus(); ++g) {
    Node& node = gpus_[static_cast<std::size_t>(g)];
    if (node.state == HealthState::kDown && node.next_probe_ms <= now_ms) {
      due.emplace_back(node.next_probe_ms, g);
    }
  }
  std::sort(due.begin(), due.end());
  std::vector<int> out;
  out.reserve(due.size());
  for (const auto& entry : due) {
    transition(entry.second, HealthState::kProbing);
    ++probes_sent_;
    out.push_back(entry.second);
  }
  return out;
}

double HealthTracker::next_probe_due_ms() const {
  double next = kInf;
  for (const Node& node : gpus_) {
    if (node.state == HealthState::kDown) next = std::min(next, node.next_probe_ms);
  }
  return next;
}

double HealthTracker::next_probe_ms(int gpu) const {
  HIOS_CHECK(gpu >= 0 && gpu < num_gpus(), "next_probe_ms: gpu " << gpu << " out of range");
  const Node& node = gpus_[static_cast<std::size_t>(gpu)];
  if (node.state != HealthState::kDown && node.state != HealthState::kProbing) return kInf;
  return node.next_probe_ms;
}

HealthState HealthTracker::gpu_state(int gpu) const {
  HIOS_CHECK(gpu >= 0 && gpu < num_gpus(), "gpu_state: gpu " << gpu << " out of range");
  return gpus_[static_cast<std::size_t>(gpu)].state;
}

bool HealthTracker::all_up() const {
  return up_mask_ == gpu_width_mask(num_gpus(), "HealthTracker: num_gpus");
}

Json HealthTracker::to_json() const {
  Json j = Json::object();
  Json gpus = Json::array();
  for (int g = 0; g < num_gpus(); ++g) {
    Json e = Json::object();
    e["gpu"] = g;
    e["state"] = health_state_name(gpus_[static_cast<std::size_t>(g)].state);
    gpus.push_back(std::move(e));
  }
  j["gpus"] = std::move(gpus);
  j["up_mask"] = static_cast<int64_t>(up_mask_);
  j["generation"] = static_cast<int64_t>(generation_);
  j["transitions"] = static_cast<int64_t>(transitions_);
  j["probes_sent"] = static_cast<int64_t>(probes_sent_);
  j["probes_succeeded"] = static_cast<int64_t>(probes_succeeded_);
  return j;
}

}  // namespace hios::serve
