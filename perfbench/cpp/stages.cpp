#include "stages.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "cost/analytical_model.h"
#include "cost/gpu_spec.h"
#include "cost/stage_cache.h"
#include "cost/table_model.h"
#include "graph/compiled_graph.h"
#include "graph/longest_path.h"
#include "models/inception.h"
#include "models/nasnet.h"
#include "models/random_dag.h"
#include "models/randwire.h"
#include "models/resnet.h"
#include "models/squeezenet.h"
#include "sched/core/list_state.h"
#include "sched/parallelize.h"
#include "sched/scheduler.h"
#include "sched/validate.h"
#include "serve/server.h"
#include "sim/event_sim.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace hios;

namespace {

constexpr int kGpus = 4;
constexpr int kWindow = 2;
constexpr int kDagOps = 1024;
constexpr int kDagDeps = 2048;
constexpr int kDagLayers = 32;
constexpr int kDagCycle = 8;       ///< distinct DAGs the sched stage cycles over
constexpr int kWarmGets = 200;     ///< warm lookups per model per zoo pass
constexpr int kFingerprints = 50;  ///< traced fingerprint calls per model per pass
constexpr int kTraceRequests = 10000;
/// The zoo mix saturates this server (hedging on, no outages) at about
/// 415 req/s: 1000 requests, all at t = 0, through a queue that holds them
/// all. The main trace arrives at 0.9 of that, so the queue drains while all
/// four GPUs are up, but outruns the 3/4 left while one is down, so each
/// outage queues, sheds and retries.
constexpr double kTraceRps = 375.0;
/// Relative deadline of every main-trace request, and the ladder's p99
/// limit. At 25 ms, failed_share (the tail that misses it while queued)
/// had a quartile spread over ten seeds above 0.25 in 38% of resamples; at
/// 15 ms the median request runs unqueued, so req_ms_p50 is one plan's
/// latency. At 20 ms the median request queues and that spread is 0.13.
constexpr double kDeadlineMs = 20.0;
/// Each GPU's outage spans 30%..60% of its own quarter of the trace, the
/// down/up points of bench_serve's degraded run; quarters never overlap.
constexpr double kOutageFrom = 0.3;
constexpr double kOutageTo = 0.6;
/// Ladder: 0.3..0.9 of the saturation rate, in 10 req/s steps, every rung
/// drawn from one fixed seed for every workload seed, so max_rps_at_p99
/// belongs to the server and the zoo, not to one arrival draw. With seeded
/// rungs (and a 25 ms limit) it ranged over 210..310 req/s, as the p99
/// crosses its limit where it rises slowly with the rate.
constexpr double kLadderMinRps = 125.0;
constexpr double kLadderMaxRps = 375.0;
constexpr double kLadderStepRps = 10.0;
constexpr uint64_t kLadderSeed = 1;
constexpr int kLadderRequests = 1500;  ///< the least a p99 with 10 beyond needs, +50%
constexpr int kLanePasses = 8;  ///< traced zoo passes per lane count

const char* const kAlgorithm = "hios-lp";

sched::SchedulerConfig scheduler_config() {
  sched::SchedulerConfig c;
  c.num_gpus = kGpus;
  c.window = kWindow;
  return c;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }


bool same_schedule(const sched::Schedule& a, const sched::Schedule& b) {
  if (a.num_gpus != b.num_gpus || a.gpus.size() != b.gpus.size()) return false;
  for (std::size_t g = 0; g < a.gpus.size(); ++g) {
    if (a.gpus[g].size() != b.gpus[g].size()) return false;
    for (std::size_t s = 0; s < a.gpus[g].size(); ++s)
      if (a.gpus[g][s].ops != b.gpus[g][s].ops) return false;
  }
  return true;
}

/// validate_schedule passes and the stage simulator reproduces `latency`.
bool schedule_checks_out(const graph::Graph& g, const sched::Schedule& s,
                         const cost::CostModel& cost, double latency, std::string* why) {
  const auto violations = sched::validate_schedule(g, s);
  if (!violations.empty()) {
    *why = "invalid schedule: " + violations.front();
    return false;
  }
  const auto timeline = sim::simulate_stages(g, s, cost);
  if (!timeline || !same_bits(timeline->latency_ms, latency)) {
    *why = "simulate_stages does not reproduce latency_ms";
    return false;
  }
  return true;
}

/// One outage per GPU, in seeded order, each inside its own quarter of the
/// horizon so at most one GPU is down at a time.
std::vector<serve::GpuOutage> make_outages(double horizon_ms, Rng& rng) {
  std::vector<int> order{0, 1, 2, 3};
  rng.shuffle(order);
  std::vector<serve::GpuOutage> out;
  for (int k = 0; k < kGpus; ++k) {
    const double quarter = horizon_ms / kGpus;
    out.push_back(serve::GpuOutage{order[static_cast<std::size_t>(k)],
                                   (k + kOutageFrom) * quarter, (k + kOutageTo) * quarter});
  }
  return out;
}

/// The full mask and every single-GPU-down mask: what a zoo pass prewarms.
std::vector<uint32_t> prewarm_masks() {
  std::vector<uint32_t> masks{serve::kFullMask};
  for (int g = 0; g < kGpus; ++g) masks.push_back(0xFu & ~(1u << g));
  return masks;
}

serve::ServerOptions server_options(const std::vector<serve::GpuOutage>& outages) {
  serve::ServerOptions o;
  o.platform = cost::make_a40_server(kGpus);
  o.algorithm = kAlgorithm;
  o.config = scheduler_config();
  o.use_engine = false;
  o.outages = outages;
  // Hedge a dispatch projected past 0.99 x the p99 of earlier ones. Without
  // the engine a dispatch takes one fixed time per model and plan, so at 1.0
  // nothing is ever hedged; below it, every dispatch of the slowest model is
  // (about a fifth of the trace). Slots, queue, retries, breaker: defaults.
  o.hedge_multiplier = 0.99;
  return o;
}

/// Server with the zoo registered and every plan a trace can reach already
/// built: the full mask and, when outages are scripted, each single-GPU-down
/// mask with its own single-down subsets (health transitions prewarm those).
std::unique_ptr<serve::Server> make_server(const Inputs& in, bool with_outages) {
  auto server = std::make_unique<serve::Server>(
      server_options(with_outages ? in.outages : std::vector<serve::GpuOutage>{}));
  for (const ZooModel& z : in.zoo) {
    server->register_model(z.name, z.model);
    for (uint32_t mask : prewarm_masks()) {
      server->plan_pool().prewarm(z.model, mask, 0);
      if (!with_outages) break;
    }
  }
  return server;
}

}  // namespace

Json numbers(const std::vector<double>& xs) {
  Json out = Json::array();
  for (double x : xs) out.push_back(x);
  return out;
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

Inputs make_inputs(bool large_dags, uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  models::RandwireOptions rw;
  rw.seed = rng.next_u64();
  in.zoo.push_back({"nasnet", models::make_nasnet()});
  in.zoo.push_back({"inception_v3", models::make_inception_v3()});
  in.zoo.push_back({"resnet50", models::make_resnet50()});
  in.zoo.push_back({"squeezenet", models::make_squeezenet()});
  in.zoo.push_back({"randwire", models::make_randwire(rw)});

  if (large_dags) {
    auto table = std::make_shared<const cost::TableCostModel>();
    for (int k = 0; k < kDagCycle; ++k) {
      models::RandomDagParams p;
      p.num_ops = kDagOps;
      p.num_deps = kDagDeps;
      p.num_layers = kDagLayers;
      p.seed = rng.next_u64();
      in.sched.push_back({"dag" + std::to_string(k), models::random_dag(p), table});
    }
  } else {
    // The zoo graphs, but with the library's default RandWire: its call is
    // the cycle's median, so sched_ms_p50 would otherwise follow the seed's
    // RandWire draw rather than the scheduler.
    const cost::Platform platform = cost::make_a40_server(kGpus);
    for (const ZooModel& z : in.zoo) {
      cost::ProfiledModel pm = cost::profile_model(
          z.name == "randwire" ? models::make_randwire() : z.model, platform);
      in.sched.push_back({z.name, std::move(pm.graph), pm.cost});
    }
  }

  serve::TraceParams params;
  for (const ZooModel& z : in.zoo) params.models.push_back(z.name);

  params.num_requests = kTraceRequests;
  params.mean_interarrival_ms = 1000.0 / kTraceRps;
  params.deadline_slack_ms = kDeadlineMs;
  in.trace = serve::Trace::random(params, rng.next_u64());
  in.outages = make_outages(in.trace.requests.back().arrival_ms, rng);

  // Every rung draws from the same seed, so its arrivals are the same
  // Poisson draw scaled to its rate and the p99 moves with the rate, not
  // with each rung's own arrival noise. No deadlines: a late request still
  // completes, and its latency counts against the p99 limit.
  in.ladder_limit_ms = kDeadlineMs;
  params.num_requests = kLadderRequests;
  params.deadline_slack_ms = serve::kNoDeadline;
  for (double rps = kLadderMinRps; rps <= kLadderMaxRps; rps += kLadderStepRps) {
    in.ladder_rps.push_back(rps);
    params.mean_interarrival_ms = 1000.0 / rps;
    in.ladder.push_back(serve::Trace::random(params, kLadderSeed));
  }
  return in;
}

void prewarm_server(const Inputs& in) { make_server(in, true); }

// --- sched stage -----------------------------------------------------------

namespace {

class SchedStage final : public Stage {
 public:
  SchedStage(Run& run, const Inputs& in)
      : run_(run),
        in_(in),
        hios_lp_(sched::make_scheduler("hios-lp")),
        inter_lp_(sched::make_scheduler("inter-lp")),
        config_(scheduler_config()),
        alg1_mapping_(in.sched.size()) {
    // Reference call per input (also the warm-up): checked in full; every
    // later call must reproduce it exactly.
    for (const SchedInput& x : in.sched) {
      ref_.push_back(hios_lp_->schedule(x.graph, *x.cost, config_));
      std::string why;
      run.checks.expect(schedule_checks_out(x.graph, ref_.back().schedule, *x.cost,
                                            ref_.back().latency_ms, &why),
                        "sched " + x.label + ": " + why);
    }
  }

  std::size_t samples(bool traced) const override { return traced ? traced_calls_ : ms_.size(); }

  void step(bool traced) override {
    if (run_.trace) return split_step(traced);
    const std::size_t k = ms_.size() % in_.sched.size();
    const SchedInput& x = in_.sched[k];
    const auto t0 = Clock::now();
    const sched::ScheduleResult r = hios_lp_->schedule(x.graph, *x.cost, config_);
    ms_.push_back(ms_since(t0));
    run_.checks.expect(same_bits(r.latency_ms, ref_[k].latency_ms) &&
                           same_schedule(r.schedule, ref_[k].schedule),
                       "sched " + x.label + ": schedule differs from its first call");
  }

  Json finish() override {
    Json out = Json::object();
    Json latency = Json::array();
    for (const auto& r : ref_) latency.push_back(r.latency_ms);
    out["ms"] = numbers(ms_);
    out["plan_latency_ms"] = std::move(latency);
    if (!run_.trace) return out;

    for (std::size_t k = 0; k < in_.sched.size(); ++k) replay_alg1(k);
    Json t = Json::object();
    t["calls"] = static_cast<int64_t>(traced_calls_);
    t["candidates_tried"] = candidates_;
    t["merges_accepted"] = merges_;
    t["stage_cache_hits"] = cache_hits_;
    t["stage_cache_misses"] = cache_misses_;
    out["traced"] = std::move(t);
    return out;
  }

 private:
  /// The call split into Alg. 1 (inter-lp) and Alg. 2 (parallelize on a
  /// fresh stage cache), which together must reproduce hios-lp exactly. A
  /// traced run does its untraced operations in this form too, timed into
  /// ms_, so trace.overhead_pct compares the same work with spans off and on.
  void split_step(bool traced) {
    std::size_t& calls = traced ? traced_calls_ : untraced_calls_;
    const std::size_t k = calls % in_.sched.size();
    const SchedInput& x = in_.sched[k];
    Spans off(false);
    Spans& spans = traced ? run_.spans : off;
    sched::ScheduleResult a;
    sched::ParallelizeResult p;
    const auto t0 = Clock::now();
    {
      Scope root(spans, "bench.sched_call", static_cast<int64_t>(calls));
      {
        Scope s(spans, "sched.alg1");
        a = inter_lp_->schedule(x.graph, *x.cost, config_);
      }
      const cost::StageTimeCache cache(*x.cost);
      std::optional<graph::CompiledGraph> cg;
      {
        Scope s(spans, "graph.compile");
        cg.emplace(x.graph);
      }
      {
        Scope s(spans, "sched.alg2");
        p = sched::parallelize(*cg, a.schedule, cache,
                               std::min(config_.window, config_.max_streams));
      }
      if (traced) {
        cache_hits_ += static_cast<int64_t>(cache.hits());
        cache_misses_ += static_cast<int64_t>(cache.misses());
      }
    }
    if (!traced) ms_.push_back(ms_since(t0));
    const sched::ScheduleResult& want = ref_[k];
    if (traced) {
      candidates_ += p.candidates_tried;
      merges_ += p.merges_accepted;
    }
    if (traced && calls < in_.sched.size()) {
      alg1_mapping_[k] = a.schedule.gpu_assignment(x.graph.num_nodes());
      run_.checks.expect(same_bits(p.latency_ms, want.latency_ms) &&
                             p.schedule.to_json(x.graph).dump() ==
                                 want.schedule.to_json(x.graph).dump(),
                         "sched " + x.label + ": inter-lp + parallelize != hios-lp");
    } else {
      run_.checks.expect(same_bits(p.latency_ms, want.latency_ms) &&
                             same_schedule(p.schedule, want.schedule),
                         "sched " + x.label + ": split call differs from hios-lp");
    }
    ++calls;
  }

  /// Alg. 1 rebuilt from the library's public pieces (CompiledGraph,
  /// longest_valid_path, ListScheduleState), one span per call, mirroring
  /// HiosLpScheduler's loop; it must reproduce inter-lp's GPU mapping.
  void replay_alg1(std::size_t k) {
    const SchedInput& x = in_.sched[k];
    Spans& spans = run_.spans;
    Scope root(spans, "bench.alg1_replay", static_cast<int64_t>(k));
    std::optional<graph::CompiledGraph> cg;
    {
      Scope s(spans, "graph.compile");
      cg.emplace(x.graph);
    }
    const cost::StageTimeCache cached(*x.cost);
    sched::ListScheduleState state(*cg, kGpus, cached);
    const std::size_t n = x.graph.num_nodes();
    DynBitset scheduled(n);
    std::vector<double> latency(kGpus);
    while (scheduled.count() < n) {
      std::optional<graph::ValidPath> path;
      {
        Scope s(spans, "graph.longest_path");
        path = graph::longest_valid_path(x.graph, scheduled, cg->topo_order());
      }
      if (!path) break;
      for (graph::NodeId v : path->nodes) scheduled.set(static_cast<std::size_t>(v));
      for (int gpu = 0; gpu < kGpus; ++gpu) {
        Scope s(spans, "sched.list_trial");
        for (graph::NodeId v : path->nodes) state.set_gpu(v, gpu);
        latency[static_cast<std::size_t>(gpu)] = state.latency();
      }
      int best = 0;
      for (int gpu = 1; gpu < kGpus; ++gpu)
        if (latency[static_cast<std::size_t>(gpu)] < latency[static_cast<std::size_t>(best)])
          best = gpu;
      for (graph::NodeId v : path->nodes) state.set_gpu(v, best);
    }
    run_.checks.expect(state.mapping() == alg1_mapping_[k],
                       "sched " + x.label + ": Alg. 1 replay != inter-lp mapping");
  }

  Run& run_;
  const Inputs& in_;
  std::unique_ptr<sched::Scheduler> hios_lp_, inter_lp_;
  sched::SchedulerConfig config_;
  std::vector<sched::ScheduleResult> ref_;
  std::vector<double> ms_;
  std::size_t traced_calls_ = 0, untraced_calls_ = 0;
  int64_t candidates_ = 0, merges_ = 0, cache_hits_ = 0, cache_misses_ = 0;
  std::vector<std::vector<int>> alg1_mapping_;
};

// --- zoo stage -------------------------------------------------------------

struct PassResult {
  double prewarm_ms = 0.0;
  double warm_get_us = 0.0;
  std::size_t builds = 0;
  std::size_t hits = 0, misses = 0, coalesced = 0;
  std::vector<std::shared_ptr<const serve::CachedPlan>> plans;  ///< model-major, per mask
};

class ZooStage final : public Stage {
 public:
  ZooStage(Run& run, const Inputs& in)
      : run_(run), in_(in), builds_per_pass_(in.zoo.size() * prewarm_masks().size()),
        gets_per_pass_(in.zoo.size() * kWarmGets), ref_(pass(nullptr, 0)) {
    // Reference pass (also the warm-up): every plan checked in full.
    for (const auto& plan : ref_.plans) {
      std::string why;
      run.checks.expect(schedule_checks_out(plan->profiled.graph, plan->schedule,
                                            *plan->profiled.cost, plan->latency_ms, &why),
                        "zoo plan: " + why);
    }
  }

  std::size_t samples(bool traced) const override {
    return traced ? traced_.size() : prewarm_ms_.size();
  }

  void step(bool traced) override {
    if (traced) {
      const PassResult r = pass(&run_.spans, static_cast<int64_t>(traced_.size()));
      // The timed cold get builds each full-mask plan, so prewarm builds the
      // single-GPU-down masks only and finds the full mask warm (one hit).
      run_.checks.expect(as_expected(r, builds_per_pass_ - in_.zoo.size(),
                                     gets_per_pass_ + in_.zoo.size()),
                         "traced zoo pass: unexpected builds, hits or plans");
      double profile_ms = 0.0;
      for (const auto& plan : r.plans) profile_ms += plan->build_ms - plan->scheduling_ms;
      Json p = Json::object();
      p["prewarm_builds"] = r.builds;
      p["hits"] = r.hits;
      p["misses"] = r.misses;
      p["coalesced"] = r.coalesced;
      p["profile_ms"] = profile_ms / static_cast<double>(r.plans.size());
      traced_.push_back(std::move(p));
      return;
    }
    const PassResult r = pass(nullptr, static_cast<int64_t>(prewarm_ms_.size()));
    prewarm_ms_.push_back(r.prewarm_ms);
    warm_get_us_.push_back(r.warm_get_us);
    run_.checks.expect(as_expected(r, builds_per_pass_, gets_per_pass_),
                       "zoo pass: unexpected builds, hits or plans");
  }

  Json finish() override {
    Json out = Json::object();
    Json latency = Json::array();
    for (const auto& plan : ref_.plans) latency.push_back(plan->latency_ms);
    out["prewarm_ms"] = numbers(prewarm_ms_);
    out["warm_get_us"] = numbers(warm_get_us_);
    out["plan_latency_ms"] = std::move(latency);
    if (!run_.trace) return out;

    // Prewarm at 1 and 2 pool lanes, interleaved: the only place the
    // benchmark leaves one lane.
    std::vector<double> lane_ms[2];
    for (int i = 0; i < kLanePasses; ++i) {
      for (int lanes : {1, 2}) {
        util::set_global_threads(lanes);
        const PassResult r = pass(nullptr, i);
        run_.checks.expect(as_expected(r, builds_per_pass_, gets_per_pass_),
                           "zoo pass at " + std::to_string(lanes) + " lanes differs");
        lane_ms[lanes - 1].push_back(r.prewarm_ms);
      }
    }
    util::set_global_threads(1);
    Json t = Json::object();
    t["passes"] = std::move(traced_);
    t["prewarm_1lane_ms"] = numbers(lane_ms[0]);
    t["prewarm_2lane_ms"] = numbers(lane_ms[1]);
    t["fingerprints_per_model"] = kFingerprints;
    t["warm_gets_per_model"] = kWarmGets;
    out["traced"] = std::move(t);
    return out;
  }

 private:
  /// One zoo pass on a fresh cache and pool. A traced pass also times a
  /// cold full-mask get before each prewarm, and the fingerprint alone.
  PassResult pass(Spans* spans, int64_t call) const {
    Spans off(false);
    Spans& sp = spans ? *spans : off;
    const sched::SchedulerConfig config = scheduler_config();
    PassResult r;
    serve::ScheduleCache cache(cost::make_a40_server(kGpus));
    serve::PlanPool pool(cache, kAlgorithm, config);
    {
      Scope root(sp, "bench.zoo_pass", call);
      const auto t0 = Clock::now();
      for (const ZooModel& z : in_.zoo) {
        if (spans) {
          Scope s(sp, "serve.cache.cold_get");
          cache.get(z.model, kAlgorithm, config);
        }
        Scope s(sp, "serve.pool.prewarm");
        r.builds += pool.prewarm(z.model, serve::kFullMask, 0);
      }
      r.prewarm_ms = ms_since(t0);
      if (spans) {
        for (const ZooModel& z : in_.zoo) {
          Scope s(sp, "ops.fingerprint");
          for (int j = 0; j < kFingerprints; ++j) (void)z.model.fingerprint();
        }
      }
      const auto t1 = Clock::now();
      for (const ZooModel& z : in_.zoo) {
        Scope s(sp, "serve.cache.warm_get");
        for (int j = 0; j < kWarmGets; ++j) cache.get(z.model, kAlgorithm, config);
      }
      r.warm_get_us = ms_since(t1) * 1000.0 / static_cast<double>(gets_per_pass_);
    }
    r.hits = cache.hits();
    r.misses = cache.misses();
    r.coalesced = cache.coalesced();
    for (const ZooModel& z : in_.zoo)
      for (uint32_t mask : prewarm_masks()) r.plans.push_back(pool.plan_for(z.model, mask, 0));
    return r;
  }

  /// Build and hit counts as given, and the reference pass's plans exactly.
  bool as_expected(const PassResult& r, std::size_t builds, std::size_t hits) const {
    if (r.builds != builds || r.hits != hits || r.plans.size() != ref_.plans.size())
      return false;
    for (std::size_t i = 0; i < r.plans.size(); ++i) {
      if (!same_bits(r.plans[i]->latency_ms, ref_.plans[i]->latency_ms) ||
          !same_schedule(r.plans[i]->schedule, ref_.plans[i]->schedule))
        return false;
    }
    return true;
  }

  Run& run_;
  const Inputs& in_;
  const std::size_t builds_per_pass_;
  const std::size_t gets_per_pass_;
  const PassResult ref_;
  std::vector<double> prewarm_ms_, warm_get_us_;
  Json traced_ = Json::array();
};

// --- serve stage -----------------------------------------------------------

struct TraceRun {
  double wall_ms = 0.0;
  serve::ServeReport report;
  serve::Metrics::Snapshot snapshot;
  std::size_t builds = 0;  ///< cold cache builds during run_trace
};

/// Serves `trace` on a freshly built and prewarmed server; only run_trace
/// is timed (and traced, when `spans` is given).
TraceRun serve_once(const Inputs& in, const serve::Trace& trace, bool with_outages, Spans* spans,
                    int64_t call) {
  const auto server = make_server(in, with_outages);
  TraceRun r;
  const std::size_t misses = server->cache().misses();
  {
    Spans off(false);
    Scope root(spans ? *spans : off, "bench.serve_trace", call);
    Scope s(spans ? *spans : off, "serve.run_trace");
    const auto t0 = Clock::now();
    r.report = server->run_trace(trace);
    r.wall_ms = ms_since(t0);
  }
  r.snapshot = server->metrics().snapshot();
  r.builds = server->cache().misses() - misses;
  return r;
}

/// Per-request virtual-time spans of one served trace, on their own track.
void add_request_spans(Spans& spans, const serve::Trace& trace, const serve::ServeReport& rep) {
  for (std::size_t i = 0; i < rep.responses.size(); ++i) {
    const serve::Response& r = rep.responses[i];
    const double arrival = trace.requests[i].arrival_ms;
    const bool ran = r.verdict == serve::Verdict::kCompleted;
    const int root = spans.add_virtual("request", arrival, ran ? r.finish_ms : arrival, r.id, -1);
    if (!ran) continue;
    spans.add_virtual("serve.queue", arrival, r.start_ms, r.id, root);
    spans.add_virtual("serve.exec", r.start_ms, r.finish_ms, r.id, root);
  }
}

class ServeStage final : public Stage {
 public:
  ServeStage(Run& run, const Inputs& in)
      : run_(run), in_(in), ref_(serve_once(in, in.trace, true, nullptr, 0)),
        ref_metrics_(ref_.report.metrics.dump()) {
    // Reference run (also the warm-up); every later run must match it.
    run.checks.expect(conserved(ref_), "serve: metrics not conserved or cold build in trace");
  }

  std::size_t samples(bool traced) const override {
    return traced ? traced_runs_ : us_per_req_.size();
  }

  void step(bool traced) override {
    const std::size_t i = samples(traced);
    const TraceRun r =
        serve_once(in_, in_.trace, true, traced ? &run_.spans : nullptr, static_cast<int64_t>(i));
    run_.checks.expect(conserved(r) && r.report.metrics.dump() == ref_metrics_,
                       "serve: trace run differs from the reference run");
    if (!traced) {
      us_per_req_.push_back(r.wall_ms * 1000.0 / static_cast<double>(in_.trace.requests.size()));
      return;
    }
    ++traced_runs_;
    if (i == 0) add_request_spans(run_.spans, in_.trace, r.report);
  }

  Json finish() override {
    Json out = Json::object();
    Json latency = Json::array();
    for (const serve::Response& resp : ref_.report.responses)
      if (resp.verdict == serve::Verdict::kCompleted) latency.push_back(resp.latency_ms);
    out["us_per_req"] = numbers(us_per_req_);
    out["submitted"] = static_cast<int64_t>(in_.trace.requests.size());
    out["completed_latency_ms"] = std::move(latency);
    out["metrics"] = ref_.report.metrics;  // Metrics::to_json of the reference run
    out["builds_in_trace"] = ref_.builds;

    // Plan latency of what the server serves: the full and survivor plans.
    const auto server = make_server(in_, true);
    Json plans = Json::array();
    for (const ZooModel& z : in_.zoo)
      for (uint32_t mask : prewarm_masks())
        plans.push_back(server->plan_pool().plan_for(z.model, mask, 0)->latency_ms);
    out["plan_latency_ms"] = std::move(plans);

    // Outage-free ladder of arrival rates: per request, in arrival order,
    // latency and queue wait (-1 when the request did not complete).
    Json ladder = Json::array();
    for (std::size_t k = 0; k < in_.ladder.size(); ++k) {
      const TraceRun r = serve_once(in_, in_.ladder[k], false, nullptr, static_cast<int64_t>(k));
      run_.checks.expect(r.snapshot.conserved() && r.builds == 0,
                         "serve ladder: metrics not conserved or cold build");
      Json lat = Json::array(), queue = Json::array();
      for (const serve::Response& resp : r.report.responses) {
        const bool done = resp.verdict == serve::Verdict::kCompleted;
        lat.push_back(done ? resp.latency_ms : -1.0);
        queue.push_back(done ? resp.queue_ms : -1.0);
      }
      Json rung = Json::object();
      rung["rps"] = in_.ladder_rps[k];
      rung["latency_ms"] = std::move(lat);
      rung["queue_ms"] = std::move(queue);
      ladder.push_back(std::move(rung));
    }
    out["ladder"] = std::move(ladder);
    out["ladder_limit_ms"] = in_.ladder_limit_ms;
    return out;
  }

 private:
  bool conserved(const TraceRun& r) const {
    return r.snapshot.conserved() && r.builds == 0 &&
           r.report.responses.size() == in_.trace.requests.size();
  }

  Run& run_;
  const Inputs& in_;
  const TraceRun ref_;
  const std::string ref_metrics_;
  std::vector<double> us_per_req_;
  std::size_t traced_runs_ = 0;
};

}  // namespace

std::unique_ptr<Stage> make_sched_stage(Run& run, const Inputs& in) {
  return std::make_unique<SchedStage>(run, in);
}
std::unique_ptr<Stage> make_zoo_stage(Run& run, const Inputs& in) {
  return std::make_unique<ZooStage>(run, in);
}
std::unique_ptr<Stage> make_serve_stage(Run& run, const Inputs& in) {
  return std::make_unique<ServeStage>(run, in);
}

}  // namespace perfbench
