#include "serve/health.h"

#include <algorithm>

#include "serve/request.h"
#include "util/error.h"

namespace hios::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

const char* health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kSuspect: return "suspect";
    case HealthState::kDown: return "down";
    case HealthState::kProbing: return "probing";
  }
  return "unknown";
}

const char* evidence_kind_name(FaultEvidence::Kind kind) {
  switch (kind) {
    case FaultEvidence::Kind::kFailStop: return "fail_stop";
    case FaultEvidence::Kind::kWatchdog: return "watchdog";
    case FaultEvidence::Kind::kLinkDown: return "link_down";
    case FaultEvidence::Kind::kRetryExhausted: return "retry_exhausted";
    case FaultEvidence::Kind::kProbeSuccess: return "probe_success";
    case FaultEvidence::Kind::kProbeFailure: return "probe_failure";
  }
  return "unknown";
}

void HealthOptions::validate() const {
  HIOS_CHECK(suspect_strikes >= 1,
             "HealthOptions.suspect_strikes must be >= 1 (got " << suspect_strikes << ")");
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
    const HealthState s = gpus_[g].state;
    if (s == HealthState::kHealthy || s == HealthState::kSuspect) {
      mask |= (1u << g);
    }
  }
  if (mask != up_mask_) {
    up_mask_ = mask;
    ++generation_;
  }
}

void HealthTracker::transition(Node& node, int gpu, int peer, HealthState to,
                               double at_ms, FaultEvidence::Kind cause) {
  if (node.state == to) return;
  transitions_.push_back(Transition{gpu, peer, node.state, to, at_ms, cause});
  const bool was_down = node.state == HealthState::kDown;
  node.state = to;
  if (peer >= 0) {
    // Link transitions version the topology: any plan computed before a
    // link went down (or came back) must not be served after.
    const bool is_down = to == HealthState::kDown;
    if (was_down != is_down) ++epoch_;
  } else {
    refresh_mask();
  }
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

void HealthTracker::mark_gpu_down(int gpu, double at_ms, FaultEvidence::Kind cause) {
  Node& node = gpus_[static_cast<std::size_t>(gpu)];
  if (node.state == HealthState::kDown) return;
  transition(node, gpu, -1, HealthState::kDown, at_ms, cause);
  node.strikes = 0;
  node.backoff_ms = options_.probe_backoff_ms;
  schedule_probe(gpu, at_ms);
}

HealthTracker::Node& HealthTracker::link_node(int a, int b) {
  HIOS_CHECK(a != b, "HealthTracker: link endpoints must differ (got " << a << ")");
  return links_[{std::min(a, b), std::max(a, b)}];
}

void HealthTracker::observe(const FaultEvidence& evidence) {
  const int g = evidence.gpu;
  const bool gpu_in_range = g >= 0 && g < num_gpus();
  switch (evidence.kind) {
    case FaultEvidence::Kind::kFailStop: {
      HIOS_CHECK(gpu_in_range, "FaultEvidence.kFailStop: gpu " << g << " out of range");
      mark_gpu_down(g, evidence.at_ms, evidence.kind);
      break;
    }
    case FaultEvidence::Kind::kWatchdog: {
      if (!gpu_in_range) return;  // unattributed watchdog: no state to update
      Node& node = gpus_[static_cast<std::size_t>(g)];
      if (node.state == HealthState::kDown || node.state == HealthState::kProbing) return;
      if (++node.strikes >= options_.suspect_strikes) {
        mark_gpu_down(g, evidence.at_ms, evidence.kind);
      } else {
        transition(node, g, -1, HealthState::kSuspect, evidence.at_ms, evidence.kind);
      }
      break;
    }
    case FaultEvidence::Kind::kLinkDown:
    case FaultEvidence::Kind::kRetryExhausted: {
      HIOS_CHECK(gpu_in_range && evidence.peer_gpu >= 0 && evidence.peer_gpu < num_gpus(),
                 "link evidence: endpoints (" << g << "," << evidence.peer_gpu
                                              << ") out of range");
      Node& node = link_node(g, evidence.peer_gpu);
      if (node.state == HealthState::kDown) return;
      const bool hard = evidence.kind == FaultEvidence::Kind::kLinkDown;
      if (hard || ++node.strikes >= options_.suspect_strikes) {
        transition(node, std::min(g, evidence.peer_gpu), std::max(g, evidence.peer_gpu),
                   HealthState::kDown, evidence.at_ms, evidence.kind);
        node.strikes = 0;
      } else {
        transition(node, std::min(g, evidence.peer_gpu), std::max(g, evidence.peer_gpu),
                   HealthState::kSuspect, evidence.at_ms, evidence.kind);
      }
      break;
    }
    case FaultEvidence::Kind::kProbeSuccess: {
      if (evidence.peer_gpu >= 0) {
        Node& node = link_node(g, evidence.peer_gpu);
        transition(node, std::min(g, evidence.peer_gpu), std::max(g, evidence.peer_gpu),
                   HealthState::kHealthy, evidence.at_ms, evidence.kind);
        node.strikes = 0;
        return;
      }
      HIOS_CHECK(gpu_in_range, "FaultEvidence.kProbeSuccess: gpu " << g << " out of range");
      Node& node = gpus_[static_cast<std::size_t>(g)];
      ++probes_succeeded_;
      transition(node, g, -1, HealthState::kHealthy, evidence.at_ms, evidence.kind);
      node.strikes = 0;
      node.backoff_ms = 0.0;
      node.next_probe_ms = kInf;
      break;
    }
    case FaultEvidence::Kind::kProbeFailure: {
      HIOS_CHECK(gpu_in_range, "FaultEvidence.kProbeFailure: gpu " << g << " out of range");
      Node& node = gpus_[static_cast<std::size_t>(g)];
      transition(node, g, -1, HealthState::kDown, evidence.at_ms, evidence.kind);
      node.backoff_ms = std::min(node.backoff_ms * options_.probe_backoff_multiplier,
                                 options_.probe_max_backoff_ms);
      if (node.backoff_ms <= 0.0) node.backoff_ms = options_.probe_backoff_ms;
      schedule_probe(g, evidence.at_ms);
      break;
    }
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
  for (const auto& [at, g] : due) {
    transition(gpus_[static_cast<std::size_t>(g)], g, -1, HealthState::kProbing, at,
               FaultEvidence::Kind::kProbeFailure);
    ++probes_sent_;
    out.push_back(g);
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

HealthState HealthTracker::link_state(int a, int b) const {
  auto it = links_.find({std::min(a, b), std::max(a, b)});
  return it == links_.end() ? HealthState::kHealthy : it->second.state;
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
  Json links = Json::array();
  for (const auto& [key, node] : links_) {
    Json e = Json::object();
    e["gpu_a"] = key.first;
    e["gpu_b"] = key.second;
    e["state"] = health_state_name(node.state);
    links.push_back(std::move(e));
  }
  j["links"] = std::move(links);
  j["up_mask"] = static_cast<int64_t>(up_mask_);
  j["generation"] = static_cast<int64_t>(generation_);
  j["topology_epoch"] = static_cast<int64_t>(epoch_);
  j["transitions"] = static_cast<int64_t>(transitions_.size());
  j["probes_sent"] = static_cast<int64_t>(probes_sent_);
  j["probes_succeeded"] = static_cast<int64_t>(probes_succeeded_);
  return j;
}

}  // namespace hios::serve
