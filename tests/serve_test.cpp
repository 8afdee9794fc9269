// Unit tests of the serving building blocks: contention scale, schedule
// cache, metrics conservation, and virtual-time admission.
#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "cost/cost_model.h"
#include "models/examples.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "util/error.h"

namespace hios::serve {
namespace {

ops::Model tiny_model(const std::string& name = "tiny") {
  using namespace ops;
  Model m(name);
  const OpId in = m.add_input("x", TensorShape{1, 4, 8, 8});
  const OpId c1 = m.add_op(Op(OpKind::kConv2d, "c1", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  const OpId c2 = m.add_op(Op(OpKind::kConv2d, "c2", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  m.add_op(Op(OpKind::kConcat, "cat"), {c1, c2});
  return m;
}

TEST(ContentionScale, MatchesMalleableTaskFormula) {
  const double kappa = 0.12;
  // Under saturation (k*r <= 1) concurrent requests are free.
  EXPECT_DOUBLE_EQ(stream_contention_scale(1, 0.2, kappa), 1.0);
  EXPECT_DOUBLE_EQ(stream_contention_scale(4, 0.2, kappa), 1.0);
  // Beyond saturation: k*r work through a unit-speed GPU + kappa penalty.
  const double expected6 = 6 * 0.2 * (1.0 + kappa * (6 * 0.2 - 1.0));
  EXPECT_DOUBLE_EQ(stream_contention_scale(6, 0.2, kappa), expected6);
  // Monotone in concurrency.
  EXPECT_LE(stream_contention_scale(5, 0.2, kappa),
            stream_contention_scale(6, 0.2, kappa));
}

TEST(ScheduleCache, SecondLookupIsAHit) {
  ScheduleCache cache(cost::make_a40_server(2));
  const ops::Model m = tiny_model();
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const CacheLookup cold = cache.get(m, "hios-lp", config);
  EXPECT_EQ(cold.outcome, CacheOutcome::kMiss);
  const CacheLookup warm = cache.get(m, "hios-lp", config);
  EXPECT_EQ(warm.outcome, CacheOutcome::kHit);
  EXPECT_EQ(cold.plan.get(), warm.plan.get());  // same immutable plan
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GT(cold.plan->latency_ms, 0.0);
}

TEST(ScheduleCache, KeyDistinguishesConfigAndStructure) {
  ScheduleCache cache(cost::make_a40_server(4));
  const ops::Model m = tiny_model();
  sched::SchedulerConfig two, four;
  two.num_gpus = 2;
  four.num_gpus = 4;
  cache.get(m, "hios-lp", two);
  cache.get(m, "hios-lp", four);       // different nGPU -> new entry
  cache.get(m, "hios-mr", two);        // different algorithm -> new entry
  const ops::Model renamed = tiny_model("other");  // same structure, new name
  EXPECT_EQ(cache.get(renamed, "hios-lp", two).outcome,
            CacheOutcome::kHit);       // fingerprint ignores the name
  EXPECT_EQ(cache.size(), 3u);
}

// tiny_model with conv c1 `c1_out` channels wide, then an unused (1, 1, h, w)
// input placeholder: the last values its fingerprint mixes are h, w, the
// placeholder's input count (0) and the op count.
ops::Model padded_model(int64_t c1_out, int64_t h, int64_t w) {
  using namespace ops;
  Model m("padded");
  const OpId in = m.add_input("x", TensorShape{1, 4, 8, 8});
  const OpId c1 =
      m.add_op(Op(OpKind::kConv2d, "c1", Conv2dAttr{c1_out, 3, 3, 1, 1, 1, 1, 1}), {in});
  const OpId c2 = m.add_op(Op(OpKind::kConv2d, "c2", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  m.add_op(Op(OpKind::kConcat, "cat"), {c1, c2});
  m.add_input("pad", TensorShape{1, 1, h, w});
  return m;
}

// The FNV-1a value the padded placeholder's `w` was xor-ed into, recovered by
// undoing the last three mixes (op count, input count 0, the w step's
// multiply). The FNV prime is odd, so it is invertible mod 2^64.
uint64_t fnv_state_before_w_multiply(const ops::Model& m) {
  constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t inv = kPrime;
  for (int i = 0; i < 5; ++i) inv *= 2 - kPrime * inv;  // Newton: 3 -> 96 bits
  uint64_t s = (m.fingerprint() * inv) ^ static_cast<uint64_t>(m.num_ops());
  s = (s * inv) ^ 0;  // the placeholder's input count
  return s * inv;
}

// Two different structures with equal fingerprint(): model A and B differ
// in c1's width, and B's placeholder width is solved so that FNV-1a's state
// after the `w` mix equals A's. The key's second hash must turn that into a
// miss, not A's plan.
TEST(ScheduleCache, CraftedFingerprintCollisionIsAMiss) {
  const ops::Model a = padded_model(4, 1, 1);
  const uint64_t target = fnv_state_before_w_multiply(a);
  std::optional<ops::Model> b;
  for (int64_t c1_out = 5; !b && c1_out <= 64; ++c1_out) {
    for (int64_t h = 1; !b && h <= 64; ++h) {
      // With w = 1 the state is x ^ 1; w_b = x ^ target lands on A's state.
      const uint64_t x = fnv_state_before_w_multiply(padded_model(c1_out, h, 1)) ^ 1;
      const auto w = static_cast<int64_t>(x ^ target);
      // Positive, and h * w elements of float stay inside int64.
      if (w > 0 && w <= std::numeric_limits<int64_t>::max() / (4 * h))
        b = padded_model(c1_out, h, w);
    }
  }
  ASSERT_TRUE(b.has_value()) << "no collision found in the search range";
  ASSERT_EQ(a.fingerprint(), b->fingerprint());  // the collision is real
  EXPECT_NE(a.fingerprint_check(), b->fingerprint_check());
  EXPECT_NE(a.op(1).conv_attr().out_channels, b->op(1).conv_attr().out_channels);

  ScheduleCache cache(cost::make_a40_server(2));
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const CacheLookup plan_a = cache.get(a, "hios-lp", config);
  const CacheLookup plan_b = cache.get(*b, "hios-lp", config);
  EXPECT_EQ(plan_b.outcome, CacheOutcome::kMiss);
  EXPECT_NE(plan_a.plan.get(), plan_b.plan.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get(*b, "hios-lp", config).plan.get(), plan_b.plan.get());
}

// Every SchedulerConfig field is part of the key, and so is the algorithm:
// "inter-lp" (HIOS-LP without Alg. 2) must not be served the cached
// "hios-lp" plan.
TEST(ScheduleCache, KeyCoversEverySchedulerConfigField) {
  ScheduleCache cache(cost::make_a40_server(1));
  const ops::Model m = tiny_model();
  sched::SchedulerConfig intra;
  intra.num_gpus = 1;
  const CacheLookup merged = cache.get(m, "hios-lp", intra);
  EXPECT_EQ(merged.outcome, CacheOutcome::kMiss);
  const CacheLookup unmerged = cache.get(m, "inter-lp", intra);
  EXPECT_EQ(unmerged.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_NE(merged.plan->schedule.to_json(merged.plan->profiled.graph).dump(),
            unmerged.plan->schedule.to_json(unmerged.plan->profiled.graph).dump());

  // The remaining fields each open their own entry too.
  sched::SchedulerConfig streams = intra, stage_ops = intra, frontier = intra, beam = intra;
  streams.max_streams = 4;
  stage_ops.ios_max_stage_ops = 2;
  frontier.ios_frontier_cap = 5;
  beam.ios_beam_width = 12;
  for (const sched::SchedulerConfig& c : {streams, stage_ops, frontier, beam}) {
    EXPECT_EQ(cache.get(m, "hios-lp", c).outcome, CacheOutcome::kMiss);
  }
  EXPECT_EQ(cache.size(), 6u);
}

TEST(ScheduleCache, TopologyMaskKeysSurvivorPlans) {
  ScheduleCache cache(cost::make_a40_server(4));
  const ops::Model m = tiny_model();
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  const CacheLookup full = cache.get(m, "hios-lp", config);
  EXPECT_EQ(full.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(full.plan->topo_mask, kFullMask);
  EXPECT_EQ(full.plan->gpus, (std::vector<int>{0, 1, 2, 3}));

  // A survivor mask builds (and caches) a distinct plan on fewer GPUs.
  const CacheLookup degraded = cache.get(m, "hios-lp", config, TopologyVersion{0b0111u, 0});
  EXPECT_EQ(degraded.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(degraded.plan->topo_mask, 0b0111u);
  EXPECT_EQ(degraded.plan->gpus, (std::vector<int>{0, 1, 2}));
  EXPECT_NE(degraded.plan.get(), full.plan.get());
  EXPECT_EQ(cache.get(m, "hios-lp", config, TopologyVersion{0b0111u, 0}).outcome,
            CacheOutcome::kHit);

  // The default TopologyVersion is exactly the full-mask entry, and an
  // explicit all-up mask normalises onto it regardless of how it is spelled.
  const CacheLookup again = cache.get(m, "hios-lp", config);
  EXPECT_EQ(again.outcome, CacheOutcome::kHit);
  EXPECT_EQ(again.plan.get(), full.plan.get());
  EXPECT_EQ(cache.get(m, "hios-lp", config, TopologyVersion{0b1111u, 0}).outcome,
            CacheOutcome::kHit);

  // A link-topology generation bump opens a fresh plan space: no stale
  // survivor plan can be served across a topology change.
  EXPECT_EQ(cache.get(m, "hios-lp", config, TopologyVersion{0b0111u, 1}).outcome,
            CacheOutcome::kMiss);

  EXPECT_THROW(cache.get(m, "hios-lp", config, TopologyVersion{0u, 0}), Error);
}

TEST(PlanPool, PrewarmMakesDegradedLookupsWarm) {
  ScheduleCache cache(cost::make_a40_server(4));
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  PlanPool pool(cache, "hios-lp", config);
  const ops::Model m = tiny_model();

  // Prewarm builds the full plan + every single-GPU-down survivor set.
  EXPECT_EQ(pool.prewarm(m, kFullMask, 0), 5u);
  EXPECT_EQ(cache.misses(), 5u);

  auto plan = pool.plan_for(m, 0b1011u, 0);  // GPU 2 down
  EXPECT_EQ(plan->gpus, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(cache.hits(), 1u);  // warm: prewarm already built it
  EXPECT_EQ(cache.misses(), 5u);

  // A mask prewarm did not cover (two GPUs down) is cold exactly once.
  pool.plan_for(m, 0b0011u, 0);
  EXPECT_EQ(cache.misses(), 6u);
  pool.plan_for(m, 0b0011u, 0);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 6u);

  // Re-prewarming an already-warm pool performs no builds.
  EXPECT_EQ(pool.prewarm(m, kFullMask, 0), 0u);
  EXPECT_EQ(cache.misses(), 6u);
}

// Survivor masks are uint32_t: a platform width outside [1, 32] is a
// structured error at construction, not an out-of-range shift in prewarm.
TEST(PlanPool, RejectsUnrepresentableGpuCounts) {
  ScheduleCache cache(cost::make_a40_server(4));
  for (int num_gpus : {0, -1, 33}) {
    sched::SchedulerConfig config;
    config.num_gpus = num_gpus;
    EXPECT_THROW(PlanPool(cache, "hios-lp", config), Error) << num_gpus;
    EXPECT_THROW(cache.get(tiny_model(), "hios-lp", config), Error) << num_gpus;
  }
  sched::SchedulerConfig widest;
  widest.num_gpus = 32;
  EXPECT_NO_THROW(PlanPool(cache, "hios-lp", widest));
}

TEST(ServerOptions, ValidateRejectsBadFields) {
  ServerOptions opt;
  opt.platform = cost::make_a40_server(2);
  EXPECT_NO_THROW(opt.validate());

  auto expect_invalid = [&](auto mutate) {
    ServerOptions bad = opt;
    mutate(bad);
    EXPECT_THROW(bad.validate(), Error);
  };
  expect_invalid([](ServerOptions& o) { o.slots_per_gpu = 0; });
  expect_invalid([](ServerOptions& o) { o.queue_capacity = 0; });
  expect_invalid([](ServerOptions& o) { o.platform.name.clear(); });
  expect_invalid([](ServerOptions& o) { o.algorithm.clear(); });
  expect_invalid([](ServerOptions& o) { o.request_demand = 0.0; });
  expect_invalid([](ServerOptions& o) { o.request_demand = 1.5; });
  expect_invalid([](ServerOptions& o) { o.max_retries = -1; });
  expect_invalid([](ServerOptions& o) { o.retry_backoff_ms = -1.0; });
  expect_invalid([](ServerOptions& o) { o.retry_backoff_multiplier = 0.5; });
  expect_invalid([](ServerOptions& o) { o.hedge_min_samples = 0; });
  expect_invalid([](ServerOptions& o) { o.health.probe_backoff_ms = 0.0; });
}

/// A terminal response for Metrics::on_finished.
Response finished(Verdict verdict, double latency_ms = 0.0, double queue_ms = 0.0) {
  Response r;
  r.verdict = verdict;
  r.latency_ms = latency_ms;
  r.queue_ms = queue_ms;
  return r;
}

TEST(Metrics, DegradedModeCountersConserve) {
  Metrics m;
  for (int i = 0; i < 4; ++i) m.on_submitted();
  m.on_finished(finished(Verdict::kBreakerRejected));
  for (int i = 0; i < 3; ++i) m.on_admitted(1);
  Response hedged = finished(Verdict::kCompleted, 5.0, 0.5);
  hedged.hedged = true;
  hedged.hedge_won = true;
  m.on_finished(hedged);
  Response retried = finished(Verdict::kCompleted, 6.0, 0.5);
  retried.attempts = 2;
  m.on_finished(retried);
  m.on_finished(finished(Verdict::kFailed));
  m.on_pool_result(CacheOutcome::kHit);
  m.on_pool_result(CacheOutcome::kMiss);
  m.on_pool_prewarm(3);
  // GPU 0 fail-stops, its first probe fails, the second succeeds: five
  // transitions (Down, Probing, Down, Probing, Healthy) and two probes.
  HealthTracker health(2);
  using Kind = FaultEvidence::Kind;
  health.observe({Kind::kFailStop, 0, 0.0});
  for (const Kind kind : {Kind::kProbeFailure, Kind::kProbeSuccess}) {
    const double due = health.next_probe_due_ms();
    ASSERT_EQ(health.take_due_probes(due), std::vector<int>{0});
    health.observe({kind, 0, due});
  }
  m.record_health(health);

  const Metrics::Snapshot s = m.snapshot();
  EXPECT_TRUE(s.conserved()) << "submitted = admitted + rejected + breaker_rejected";
  EXPECT_EQ(s.breaker_rejected, 1);
  EXPECT_EQ(s.retried, 1);
  EXPECT_EQ(s.hedged, 1);
  EXPECT_EQ(s.hedge_won, 1);
  EXPECT_EQ(s.pool_hits, 1);
  EXPECT_EQ(s.pool_misses, 1);
  EXPECT_EQ(s.pool_prewarm_builds, 3);
  EXPECT_EQ(s.health_transitions, 5);
  EXPECT_EQ(s.probes_sent, 2);
  EXPECT_EQ(s.probes_succeeded, 1);

  const std::string dump = m.to_json().dump();
  EXPECT_NE(dump.find("\"breaker_rejected\":1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"plan_pool\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"health\""), std::string::npos) << dump;

  // A coalesced survivor lookup did not pay a build: it counts as a hit.
  m.on_pool_result(CacheOutcome::kCoalesced);
  EXPECT_EQ(m.snapshot().pool_hits, 2);
  EXPECT_EQ(m.snapshot().pool_misses, 1);

  // hedge_won > hedged is a broken invariant, not a countable state.
  Metrics broken;
  Response won_unhedged = finished(Verdict::kCompleted);
  won_unhedged.hedge_won = true;
  broken.on_finished(won_unhedged);
  EXPECT_FALSE(broken.snapshot().conserved());
}

TEST(Metrics, ConservationAndJson) {
  Metrics m;
  m.set_queue_capacity(8);
  for (int i = 0; i < 5; ++i) m.on_submitted();
  m.on_finished(finished(Verdict::kRejected));
  for (int i = 0; i < 4; ++i) m.on_admitted(1);
  m.on_finished(finished(Verdict::kCompleted, 10.0, 1.0));
  m.on_finished(finished(Verdict::kCompleted, 20.0, 2.0));
  m.on_finished(finished(Verdict::kDropped));
  m.on_finished(finished(Verdict::kFailed));
  m.set_makespan(100.0);
  const Metrics::Snapshot s = m.snapshot();
  EXPECT_TRUE(s.conserved());
  EXPECT_EQ(s.completed, 2);
  EXPECT_EQ(s.failed, 1);
  EXPECT_DOUBLE_EQ(s.latency.mean, 15.0);
  EXPECT_DOUBLE_EQ(s.throughput_rps(), 2 / 0.1);
  const std::string dump = m.to_json().dump();
  EXPECT_NE(dump.find("\"completed\":2"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"failed\":1"), std::string::npos) << dump;

  Metrics unbalanced;
  unbalanced.on_submitted();
  EXPECT_FALSE(unbalanced.snapshot().conserved());
}

ServerOptions sim_options(int num_gpus, int slots) {
  ServerOptions opt;
  opt.platform = cost::make_a40_server(num_gpus);
  opt.slots_per_gpu = slots;
  opt.use_engine = false;  // virtual-time only: admission-logic tests
  return opt;
}

TEST(Server, SaturationTraceKeepsLanesBusy) {
  Server server(sim_options(2, 2));
  server.register_model("tiny", tiny_model());
  TraceParams params;
  params.models = {"tiny"};
  params.num_requests = 8;  // all arrive at t = 0
  const ServeReport report = server.run_trace(Trace::random(params, 7));
  ASSERT_EQ(report.responses.size(), 8u);
  const double base = report.responses[0].base_ms;
  ASSERT_GT(base, 0.0);
  for (const Response& r : report.responses) {
    EXPECT_EQ(r.verdict, Verdict::kCompleted);
    EXPECT_DOUBLE_EQ(r.base_ms, base);
    EXPECT_DOUBLE_EQ(r.contention_scale, 1.0);  // 2 slots * 0.2 demand < 1
  }
  // Two lanes, eight equal requests arriving together: 4 rounds.
  EXPECT_DOUBLE_EQ(report.makespan_ms, 4 * base);
  EXPECT_DOUBLE_EQ(report.throughput_rps, 8 / (4 * base / 1000.0));
}

TEST(Server, FullQueueRejectsAndDeadlinesDrop) {
  ServerOptions opt = sim_options(2, 1);
  opt.queue_capacity = 2;
  Server server(opt);
  server.register_model("tiny", tiny_model());
  Trace trace;
  // 5 requests at t = 0 on one lane with capacity 2: the first dispatches
  // immediately, two queue, two bounce.
  for (int i = 0; i < 5; ++i) trace.requests.push_back({i, "tiny", 0.0, kNoDeadline});
  // A late request with an impossible deadline is admitted then dropped.
  trace.requests.push_back({5, "tiny", 1000.0, 1000.0});
  const ServeReport report = server.run_trace(trace);
  int completed = 0, rejected = 0, dropped = 0;
  for (const Response& r : report.responses) {
    completed += r.verdict == Verdict::kCompleted;
    rejected += r.verdict == Verdict::kRejected;
    dropped += r.verdict == Verdict::kDropped;
  }
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(dropped, 1);
  const Metrics::Snapshot s = server.metrics().snapshot();
  EXPECT_TRUE(s.conserved());
  EXPECT_EQ(s.queue_high_watermark, 2u);
}

TEST(Server, ContentionSlowsOverloadedLanes) {
  // 8 slots on one GPU, demand 0.2: 8 overlapping requests need 1.6 GPUs
  // of work, so overlapped requests must run slower than solo ones.
  ServerOptions opt = sim_options(1, 8);
  Server server(opt);
  server.register_model("tiny", tiny_model());
  TraceParams params;
  params.models = {"tiny"};
  params.num_requests = 8;
  const ServeReport report = server.run_trace(Trace::random(params, 3));
  double max_scale = 0.0;
  for (const Response& r : report.responses) {
    EXPECT_EQ(r.verdict, Verdict::kCompleted);
    max_scale = std::max(max_scale, r.contention_scale);
  }
  const double kappa = opt.platform.gpu.contention_kappa;
  EXPECT_DOUBLE_EQ(max_scale, stream_contention_scale(8, 0.2, kappa));
  EXPECT_GT(max_scale, 1.0);
}

TEST(Server, EngineModeProducesTensorsAndTimeline) {
  ServerOptions opt;
  opt.platform = cost::make_a40_server(2);
  opt.slots_per_gpu = 2;
  Server server(opt);  // use_engine = true
  server.register_model("tiny", tiny_model());
  TraceParams params;
  params.models = {"tiny"};
  params.num_requests = 4;
  const ServeReport report = server.run_trace(Trace::random(params, 11));
  for (const Response& r : report.responses) {
    ASSERT_EQ(r.verdict, Verdict::kCompleted);
    EXPECT_FALSE(r.outputs.empty());  // real tensors came back
  }
  EXPECT_FALSE(report.timeline.events.empty());
  EXPECT_GE(report.timeline.latency_ms, report.makespan_ms - 1e-9);
}

TEST(Server, UnknownModelFailsTheRequestNotTheServer) {
  // run_trace resolves every plan before admission, so an unregistered
  // model fails the whole call with a structured error, never the server.
  Server server(sim_options(2, 1));
  server.register_model("tiny", tiny_model());
  Trace bad;
  bad.requests.push_back({0, "nope", 0.0, kNoDeadline});
  try {
    server.run_trace(bad);
    FAIL() << "a trace naming an unregistered model must throw";
  } catch (const hios::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown model 'nope'"), std::string::npos)
        << e.what();
  }
  // The server still serves registered models afterwards.
  TraceParams params;
  params.models = {"tiny"};
  params.num_requests = 4;
  const ServeReport report = server.run_trace(Trace::random(params, 1));
  for (const Response& r : report.responses) EXPECT_EQ(r.verdict, Verdict::kCompleted);
  EXPECT_TRUE(server.metrics().snapshot().conserved());
}

TEST(Server, RepeatedRunTraceCountsEachTransitionOnce) {
  // The first trace marks GPU 0 down; the probe that brings it back is
  // only due during the second trace. Neither run recounts the other's
  // transitions.
  ServerOptions opt = sim_options(2, 2);
  opt.outages.push_back(GpuOutage{0, 0.0, 0.05});
  Server server(opt);
  server.register_model("tiny", tiny_model());
  TraceParams params;
  params.models = {"tiny"};
  params.num_requests = 40;
  Trace trace = Trace::random(params, 5);
  server.run_trace(trace);
  for (Request& r : trace.requests) r.arrival_ms += 10.0;
  server.run_trace(trace);
  EXPECT_EQ(server.health().transitions(), 3u);
  EXPECT_EQ(server.metrics().snapshot().health_transitions,
            static_cast<int64_t>(server.health().transitions()));
}

}  // namespace
}  // namespace hios::serve
