#include "serve/metrics.h"

#include <algorithm>

namespace hios::serve {

void Metrics::on_submitted() {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.submitted;
}

void Metrics::on_admitted(std::size_t queue_depth_after) {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.admitted;
  s_.queue_high_watermark = std::max(s_.queue_high_watermark, queue_depth_after);
}

void Metrics::on_finished(const Response& response) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (response.verdict) {
    case Verdict::kRejected: ++s_.rejected; break;
    case Verdict::kBreakerRejected: ++s_.breaker_rejected; break;
    case Verdict::kCompleted:
      ++s_.completed;
      latency_samples_.push_back(response.latency_ms);
      queue_wait_samples_.push_back(response.queue_ms);
      break;
    case Verdict::kDropped: ++s_.dropped; break;
    case Verdict::kFailed: ++s_.failed; break;
  }
  s_.retried += response.attempts - 1;
  if (response.hedged) ++s_.hedged;
  if (response.hedge_won) ++s_.hedge_won;
}

void Metrics::on_pool_result(CacheOutcome outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  outcome == CacheOutcome::kMiss ? ++s_.pool_misses : ++s_.pool_hits;
}

void Metrics::on_pool_prewarm(std::size_t cold_builds) {
  std::lock_guard<std::mutex> lock(mu_);
  s_.pool_prewarm_builds += static_cast<int64_t>(cold_builds);
}

void Metrics::record_health(const HealthTracker& health) {
  std::lock_guard<std::mutex> lock(mu_);
  s_.health_transitions = static_cast<int64_t>(health.transitions());
  s_.probes_sent = static_cast<int64_t>(health.probes_sent());
  s_.probes_succeeded = static_cast<int64_t>(health.probes_succeeded());
}

void Metrics::on_cache_result(CacheOutcome outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  ++s_.cache_lookups;
  switch (outcome) {
    case CacheOutcome::kHit: ++s_.cache_hits; break;
    case CacheOutcome::kMiss: ++s_.cache_misses; break;
    case CacheOutcome::kCoalesced: ++s_.cache_coalesced; break;
  }
}

void Metrics::set_queue_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  s_.queue_capacity = capacity;
}

void Metrics::record_queue_depth(std::size_t depth) {
  std::lock_guard<std::mutex> lock(mu_);
  s_.queue_high_watermark = std::max(s_.queue_high_watermark, depth);
}

void Metrics::set_makespan(double makespan_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  s_.makespan_ms = makespan_ms;
}

double Metrics::Snapshot::throughput_rps() const {
  if (makespan_ms <= 0.0) return 0.0;
  return 1000.0 * static_cast<double>(completed) / makespan_ms;
}

bool Metrics::Snapshot::conserved() const {
  return submitted == admitted + rejected + breaker_rejected &&
         admitted == completed + dropped + failed && hedge_won <= hedged &&
         cache_lookups == cache_hits + cache_misses + cache_coalesced;
}

Metrics::Snapshot Metrics::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot out = s_;
  out.latency = summarize_quantiles(latency_samples_);
  out.queue_wait = summarize_quantiles(queue_wait_samples_);
  return out;
}

Json Metrics::to_json() const {
  const Snapshot s = snapshot();
  Json j = Json::object();

  Json counters = Json::object();
  counters["submitted"] = s.submitted;
  counters["admitted"] = s.admitted;
  counters["rejected"] = s.rejected;
  counters["completed"] = s.completed;
  counters["dropped"] = s.dropped;
  counters["failed"] = s.failed;
  counters["breaker_rejected"] = s.breaker_rejected;
  counters["retried"] = s.retried;
  counters["hedged"] = s.hedged;
  counters["hedge_won"] = s.hedge_won;
  j["counters"] = std::move(counters);

  Json cache = Json::object();
  cache["hits"] = s.cache_hits;
  cache["misses"] = s.cache_misses;
  cache["coalesced"] = s.cache_coalesced;
  j["schedule_cache"] = std::move(cache);

  Json pool = Json::object();
  pool["hits"] = s.pool_hits;
  pool["misses"] = s.pool_misses;
  pool["prewarm_builds"] = s.pool_prewarm_builds;
  j["plan_pool"] = std::move(pool);

  Json health = Json::object();
  health["transitions"] = s.health_transitions;
  health["probes_sent"] = s.probes_sent;
  health["probes_succeeded"] = s.probes_succeeded;
  j["health"] = std::move(health);

  Json queue = Json::object();
  queue["capacity"] = s.queue_capacity;
  queue["high_watermark"] = s.queue_high_watermark;
  j["queue"] = std::move(queue);

  auto quantiles = [](const QuantileSummary& q) {
    Json out = Json::object();
    out["count"] = q.count;
    out["mean"] = q.mean;
    out["p50"] = q.p50;
    out["p95"] = q.p95;
    out["p99"] = q.p99;
    out["max"] = q.max;
    return out;
  };
  j["latency_ms"] = quantiles(s.latency);
  j["queue_wait_ms"] = quantiles(s.queue_wait);

  Json throughput = Json::object();
  throughput["makespan_ms"] = s.makespan_ms;
  throughput["req_per_s"] = s.throughput_rps();
  j["throughput"] = std::move(throughput);

  return j;
}

}  // namespace hios::serve
