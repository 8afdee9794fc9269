#include "fault/fault_plan.h"

#include <algorithm>
#include <limits>
#include <string>

#include "util/rng.h"

namespace hios::fault {

namespace {

/// Prohibitive latency standing in for "no link" when building a degraded
/// topology: any schedule using such a link is dominated by any that avoids
/// it, without making the evaluation arithmetic non-finite.
constexpr double kDownPenaltyMs = 1e9;

bool same_pair(const LinkFault& f, int a, int b) {
  return (f.gpu_a == a && f.gpu_b == b) || (f.gpu_a == b && f.gpu_b == a);
}

bool active(const LinkFault& f, double t) { return t >= f.from_ms && t < f.to_ms; }

Json retry_to_json(const RetryPolicy& r) {
  Json j = Json::object();
  j["max_attempts"] = r.max_attempts;
  j["initial_backoff_ms"] = r.initial_backoff_ms;
  j["backoff_multiplier"] = r.backoff_multiplier;
  j["max_backoff_ms"] = r.max_backoff_ms;
  return j;
}

/// Rejects unknown keys: a typoed field ("at_m" for "at_ms") silently
/// falling back to a default is exactly how a fault script stops injecting
/// faults without anyone noticing.
void check_keys(const Json& j, const char* context,
                std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : j.as_object()) {
    const bool known =
        std::any_of(allowed.begin(), allowed.end(),
                    [&key](const char* a) { return key == a; });
    HIOS_CHECK(known, "fault plan: unknown key '" << key << "' in " << context);
  }
}

/// GPU id `field` of event `index` in `section`: an integer in [0, INT_MAX].
int gpu_id(const Json& j, const char* section, std::size_t index, const char* field) {
  const std::string what =
      std::string("fault plan: ") + section + "[" + std::to_string(index) + "]." + field;
  return static_cast<int>(j.as_int_in(0, std::numeric_limits<int>::max(), what.c_str()));
}

RetryPolicy retry_from_json(const Json& j) {
  check_keys(j, "retry",
             {"max_attempts", "initial_backoff_ms", "backoff_multiplier",
              "max_backoff_ms"});
  RetryPolicy r;
  r.max_attempts = static_cast<int>(j.at("max_attempts").as_int_in(
      1, RetryPolicy::kMaxAttempts, "fault plan: retry.max_attempts"));
  r.initial_backoff_ms = j.at("initial_backoff_ms").as_number();
  r.backoff_multiplier = j.at("backoff_multiplier").as_number();
  r.max_backoff_ms = j.at("max_backoff_ms").as_number();
  HIOS_CHECK(r.initial_backoff_ms >= 0.0,
             "fault plan: retry.initial_backoff_ms must be >= 0 (got "
                 << r.initial_backoff_ms << ")");
  HIOS_CHECK(r.backoff_multiplier >= 1.0,
             "fault plan: retry.backoff_multiplier must be >= 1 (got "
                 << r.backoff_multiplier << ")");
  HIOS_CHECK(r.max_backoff_ms >= 0.0,
             "fault plan: retry.max_backoff_ms must be >= 0 (got " << r.max_backoff_ms
                                                                   << ")");
  return r;
}

}  // namespace

double FaultPlan::fail_time(int gpu) const {
  double t = kNever;
  for (const FailStop& f : fail_stops)
    if (f.gpu == gpu) t = std::min(t, f.at_ms);
  return t;
}

double FaultPlan::compute_scale(int gpu, double t) const {
  double scale = 1.0;
  for (const Straggler& s : stragglers)
    if (s.gpu == gpu && t >= s.from_ms) scale *= s.slowdown;
  return scale;
}

bool FaultPlan::link_down(int a, int b, double t) const {
  for (const LinkFault& f : link_faults)
    if (f.down && same_pair(f, a, b) && active(f, t)) return true;
  return false;
}

cost::LinkClass FaultPlan::link_degradation(int a, int b, double t) const {
  cost::LinkClass link;  // bw_scale 1, extra 0
  for (const LinkFault& f : link_faults) {
    if (f.down || !same_pair(f, a, b) || !active(f, t)) continue;
    link.bw_scale *= f.bw_scale;
    link.extra_latency_ms += f.extra_latency_ms;
  }
  return link;
}

TransferResolution FaultPlan::resolve_transfer(int src_gpu, int dst_gpu, double depart_ms,
                                               double base_ms) const {
  TransferResolution res;
  if (link_faults.empty()) {  // fast path: nothing can go wrong
    res.arrival_ms = depart_ms + base_ms;
    res.attempts.push_back(TransferAttempt{depart_ms, true, 0.0});
    return res;
  }
  HIOS_CHECK(retry.max_attempts >= 1 && retry.max_attempts <= RetryPolicy::kMaxAttempts,
             "retry policy needs 1.." << RetryPolicy::kMaxAttempts << " attempts, got "
                                      << retry.max_attempts);
  double t = depart_ms;
  double backoff = retry.initial_backoff_ms;
  for (int attempt = 0; attempt < retry.max_attempts; ++attempt) {
    if (!link_down(src_gpu, dst_gpu, t)) {
      const cost::LinkClass deg = link_degradation(src_gpu, dst_gpu, t);
      res.arrival_ms = t + base_ms * deg.bw_scale + deg.extra_latency_ms;
      res.attempts.push_back(TransferAttempt{t, true, 0.0});
      return res;
    }
    res.attempts.push_back(TransferAttempt{t, false, backoff});
    t += backoff;
    backoff = std::min(backoff * retry.backoff_multiplier, retry.max_backoff_ms);
  }
  res.delivered = false;
  res.arrival_ms = t;
  return res;
}

Json FaultPlan::to_json() const {
  Json j = Json::object();
  j["seed"] = static_cast<int64_t>(seed);
  j["retry"] = retry_to_json(retry);
  Json fails = Json::array();
  for (const FailStop& f : fail_stops) {
    Json e = Json::object();
    e["gpu"] = f.gpu;
    e["at_ms"] = f.at_ms;
    fails.push_back(std::move(e));
  }
  j["fail_stops"] = std::move(fails);
  Json strag = Json::array();
  for (const Straggler& s : stragglers) {
    Json e = Json::object();
    e["gpu"] = s.gpu;
    e["from_ms"] = s.from_ms;
    e["slowdown"] = s.slowdown;
    strag.push_back(std::move(e));
  }
  j["stragglers"] = std::move(strag);
  Json links = Json::array();
  for (const LinkFault& f : link_faults) {
    Json e = Json::object();
    e["gpu_a"] = f.gpu_a;
    e["gpu_b"] = f.gpu_b;
    e["from_ms"] = f.from_ms;
    // JSON has no infinity; encode "permanent" as a missing to_ms.
    if (f.to_ms != kNever) e["to_ms"] = f.to_ms;
    e["down"] = f.down;
    e["bw_scale"] = f.bw_scale;
    e["extra_latency_ms"] = f.extra_latency_ms;
    links.push_back(std::move(e));
  }
  j["link_faults"] = std::move(links);
  return j;
}

FaultPlan FaultPlan::from_json(const Json& json) {
  check_keys(json, "plan",
             {"seed", "retry", "fail_stops", "stragglers", "link_faults"});
  // Every section is optional: a hand-written chaos script can name just
  // the events it injects (missing sections keep their defaults).
  FaultPlan plan;
  if (json.contains("seed"))
    plan.seed = static_cast<uint64_t>(json.at("seed").as_int());
  if (json.contains("retry")) plan.retry = retry_from_json(json.at("retry"));
  const Json empty = Json::array();
  auto section = [&](const char* key) -> const Json& {
    return json.contains(key) ? json.at(key) : empty;
  };
  std::size_t i = 0;
  for (const Json& e : section("fail_stops").as_array()) {
    check_keys(e, "fail_stops", {"gpu", "at_ms"});
    FailStop f;
    f.gpu = gpu_id(e.at("gpu"), "fail_stops", i, "gpu");
    f.at_ms = e.at("at_ms").as_number();
    HIOS_CHECK(f.at_ms >= 0.0, "fault plan: fail_stops[" << i
                                                         << "].at_ms must be >= 0 (got "
                                                         << f.at_ms << ")");
    plan.fail_stops.push_back(f);
    ++i;
  }
  i = 0;
  for (const Json& e : section("stragglers").as_array()) {
    check_keys(e, "stragglers", {"gpu", "from_ms", "slowdown"});
    Straggler s;
    s.gpu = gpu_id(e.at("gpu"), "stragglers", i, "gpu");
    s.from_ms = e.at("from_ms").as_number();
    s.slowdown = e.at("slowdown").as_number();
    HIOS_CHECK(s.from_ms >= 0.0, "fault plan: stragglers["
                                     << i << "].from_ms must be >= 0 (got " << s.from_ms
                                     << ")");
    HIOS_CHECK(s.slowdown >= 1.0, "fault plan: stragglers["
                                      << i << "].slowdown must be >= 1 (got "
                                      << s.slowdown << ")");
    plan.stragglers.push_back(s);
    ++i;
  }
  i = 0;
  for (const Json& e : section("link_faults").as_array()) {
    check_keys(e, "link_faults",
               {"gpu_a", "gpu_b", "from_ms", "to_ms", "down", "bw_scale",
                "extra_latency_ms"});
    LinkFault f;
    f.gpu_a = gpu_id(e.at("gpu_a"), "link_faults", i, "gpu_a");
    f.gpu_b = gpu_id(e.at("gpu_b"), "link_faults", i, "gpu_b");
    f.from_ms = e.at("from_ms").as_number();
    f.to_ms = e.contains("to_ms") ? e.at("to_ms").as_number() : kNever;
    f.down = e.at("down").as_bool();
    f.bw_scale = e.at("bw_scale").as_number();
    f.extra_latency_ms = e.at("extra_latency_ms").as_number();
    HIOS_CHECK(f.gpu_a != f.gpu_b,
               "fault plan: link_faults[" << i << "] endpoints must differ");
    HIOS_CHECK(f.from_ms >= 0.0, "fault plan: link_faults["
                                     << i << "].from_ms must be >= 0 (got " << f.from_ms
                                     << ")");
    HIOS_CHECK(f.from_ms <= f.to_ms,
               "fault plan: link_faults[" << i << "].to_ms must be >= from_ms");
    HIOS_CHECK(f.bw_scale > 0.0, "fault plan: link_faults["
                                     << i << "].bw_scale must be > 0 (got " << f.bw_scale
                                     << ")");
    HIOS_CHECK(f.extra_latency_ms >= 0.0,
               "fault plan: link_faults[" << i << "].extra_latency_ms must be >= 0 (got "
                                          << f.extra_latency_ms << ")");
    plan.link_faults.push_back(f);
    ++i;
  }
  return plan;
}

FaultPlan FaultPlan::random(const RandomParams& params, uint64_t seed) {
  HIOS_CHECK(params.num_gpus >= 2, "random fault plan needs >= 2 GPUs");
  HIOS_CHECK(params.num_fail_stops < params.num_gpus,
             "at least one GPU must survive");
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(seed);
  // Distinct victims: shuffle GPU ids and take a prefix.
  std::vector<int> gpus(static_cast<std::size_t>(params.num_gpus));
  for (int g = 0; g < params.num_gpus; ++g) gpus[static_cast<std::size_t>(g)] = g;
  rng.shuffle(gpus);
  for (int i = 0; i < params.num_fail_stops; ++i) {
    plan.fail_stops.push_back(
        FailStop{gpus[static_cast<std::size_t>(i)], rng.uniform(0.0, params.horizon_ms)});
  }
  for (int i = 0; i < params.num_stragglers; ++i) {
    plan.stragglers.push_back(Straggler{static_cast<int>(rng.index(
                                            static_cast<std::size_t>(params.num_gpus))),
                                        rng.uniform(0.0, params.horizon_ms),
                                        rng.uniform(1.5, 4.0)});
  }
  for (int i = 0; i < params.num_link_faults; ++i) {
    LinkFault f;
    f.gpu_a = static_cast<int>(rng.index(static_cast<std::size_t>(params.num_gpus)));
    f.gpu_b = (f.gpu_a + 1 + static_cast<int>(rng.index(
                                 static_cast<std::size_t>(params.num_gpus - 1)))) %
              params.num_gpus;
    f.from_ms = rng.uniform(0.0, params.horizon_ms);
    f.down = rng.flip(params.down_probability);
    if (f.down) {
      // Transient outage roughly sized to the retry budget.
      f.to_ms = f.from_ms + rng.uniform(0.5, 2.0);
    } else {
      f.to_ms = kNever;
      f.bw_scale = rng.uniform(2.0, 8.0);
      f.extra_latency_ms = rng.uniform(0.0, 0.5);
    }
    plan.link_faults.push_back(f);
  }
  return plan;
}

cost::Topology degraded_topology(const cost::Topology& base, const FaultPlan& plan,
                                 std::span<const int> survivors, double at_ms) {
  const int n = static_cast<int>(survivors.size());
  HIOS_CHECK(n >= 1, "degraded topology needs at least one survivor");
  cost::Topology topo = cost::Topology::uniform(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const int a = survivors[static_cast<std::size_t>(i)];
      const int b = survivors[static_cast<std::size_t>(j)];
      cost::LinkClass link = base.empty() ? cost::LinkClass{} : base.between(a, b);
      const cost::LinkClass deg = plan.link_degradation(a, b, at_ms);
      link.bw_scale *= deg.bw_scale;
      link.extra_latency_ms += deg.extra_latency_ms;
      if (plan.link_down(a, b, at_ms)) link.extra_latency_ms += kDownPenaltyMs;
      topo.set(i, j, link);
    }
  }
  return topo;
}

}  // namespace hios::fault
