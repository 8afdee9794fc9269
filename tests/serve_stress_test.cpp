// Stress/soak: 64 mixed-model requests arriving together, and a run_trace
// soak with a GPU killed and probed back mid-trace. Pins the serving
// layer's liveness contract:
//   * the run terminates,
//   * no response is lost or duplicated (every request id resolves once),
//   * metrics conserve: submitted = admitted + rejected + breaker_rejected
//     and admitted = completed + dropped + failed.
// Runs under TSan in CI (label: stress), where run_trace's engine lanes
// and the shared model registry race for real.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "models/examples.h"
#include "models/squeezenet.h"
#include "serve/server.h"
#include "util/thread_pool.h"

namespace hios::serve {
namespace {

ops::Model branchy_model() {
  using namespace ops;
  Model m("branchy");
  const OpId in = m.add_input("x", TensorShape{1, 4, 8, 8});
  const OpId c1 = m.add_op(Op(OpKind::kConv2d, "c1", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  const OpId c2 = m.add_op(Op(OpKind::kConv2d, "c2", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  const OpId p1 = m.add_op(Op(OpKind::kPool2d, "p1", Pool2dAttr{PoolMode::kMax, 2, 2, 2, 2, 0, 0}), {c1});
  const OpId p2 = m.add_op(Op(OpKind::kPool2d, "p2", Pool2dAttr{PoolMode::kAvg, 2, 2, 2, 2, 0, 0}), {c2});
  const OpId cat = m.add_op(Op(OpKind::kConcat, "cat"), {p1, p2});
  m.add_op(Op(OpKind::kGlobalPool, "gp"), {cat});
  return m;
}

ops::Model small_squeezenet() {
  models::SqueezenetOptions opt;
  opt.image_hw = 48;
  opt.channel_scale = 4;
  return models::make_squeezenet(opt);
}

TEST(ServeStress, SoakMixedModels) {
  // 64 requests over two models, all arriving at t = 0, on 4 slots: the
  // engine lanes of run_trace prove every admitted request's tensors
  // concurrently.
  ServerOptions opt;
  opt.platform = cost::make_a40_server(2);
  opt.slots_per_gpu = 4;
  opt.queue_capacity = 64;
  Server server(opt);
  server.register_model("branchy", branchy_model());
  server.register_model("squeezenet", small_squeezenet());

  constexpr int kRequests = 64;
  Trace trace;
  for (int i = 0; i < kRequests; ++i) {
    trace.requests.push_back({i, i % 3 == 0 ? "squeezenet" : "branchy", 0.0, kNoDeadline});
  }
  const ServeReport report = server.run_trace(trace);

  ASSERT_EQ(report.responses.size(), static_cast<std::size_t>(kRequests));
  std::set<RequestId> ids;
  for (const Response& r : report.responses) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate response id " << r.id;
    EXPECT_EQ(r.verdict, Verdict::kCompleted) << verdict_name(r.verdict) << ": " << r.error;
    EXPECT_FALSE(r.outputs.empty());
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kRequests));

  const Metrics::Snapshot s = server.metrics().snapshot();
  EXPECT_TRUE(s.conserved()) << "submitted=" << s.submitted
                             << " admitted=" << s.admitted
                             << " rejected=" << s.rejected
                             << " completed=" << s.completed
                             << " dropped=" << s.dropped << " failed=" << s.failed;
  EXPECT_EQ(s.submitted, kRequests);
}

TEST(ServeStress, MidSoakGpuKillAndRecoveryConserves) {
  // Degraded-mode soak (DESIGN.md §6f): GPU 1 dies a quarter into the
  // trace and probes back up, with per-request deadlines making every
  // resilience verdict reachable (retry, drop, breaker shed, failure).
  // Pins exactly-once resolution and conservation *including* the new
  // verdicts while the real engine races underneath.
  constexpr int kRequests = 64;
  ServerOptions opt;
  opt.platform = cost::make_a40_server(2);
  opt.slots_per_gpu = 4;
  opt.queue_capacity = 64;

  TraceParams params;
  params.models = {"branchy"};
  params.num_requests = kRequests;
  params.mean_interarrival_ms = 0.02;
  Trace trace = Trace::random(params, 2026);

  // Calibrate the fault-free virtual makespan so the outage window, the
  // deadlines, and the probe/retry backoffs all scale with the model.
  double makespan = 0.0;
  {
    ServerOptions calib = opt;
    calib.use_engine = false;
    Server server(calib);
    server.register_model("branchy", branchy_model());
    makespan = server.run_trace(trace).makespan_ms;
  }
  ASSERT_GT(makespan, 0.0);
  for (Request& r : trace.requests) r.deadline_ms = r.arrival_ms + 0.5 * makespan;
  opt.outages.push_back(GpuOutage{1, 0.25 * makespan, 0.45 * makespan});
  opt.retry_backoff_ms = 0.01 * makespan;
  opt.health.probe_backoff_ms = 0.02 * makespan;
  opt.health.probe_max_backoff_ms = 0.08 * makespan;

  Server server(opt);
  server.register_model("branchy", branchy_model());
  const ServeReport report = server.run_trace(trace);
  const Metrics::Snapshot s = server.metrics().snapshot();

  // Exactly-once: every id resolves to one terminal verdict, and the
  // per-verdict tallies in the responses equal the metric counters.
  ASSERT_EQ(report.responses.size(), static_cast<std::size_t>(kRequests));
  std::set<RequestId> ids;
  std::map<Verdict, int64_t> tally;
  for (const Response& r : report.responses) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate response id " << r.id;
    ++tally[r.verdict];
  }
  EXPECT_EQ(tally[Verdict::kCompleted], s.completed);
  EXPECT_EQ(tally[Verdict::kRejected], s.rejected);
  EXPECT_EQ(tally[Verdict::kDropped], s.dropped);
  EXPECT_EQ(tally[Verdict::kFailed], s.failed);
  EXPECT_EQ(tally[Verdict::kBreakerRejected], s.breaker_rejected);

  EXPECT_TRUE(s.conserved()) << "submitted=" << s.submitted
                             << " admitted=" << s.admitted
                             << " breaker_rejected=" << s.breaker_rejected;
  EXPECT_EQ(s.submitted, kRequests);
  EXPECT_GT(s.completed, 0);

  // The kill visibly bit and the health layer reacted to it.
  EXPECT_GE(s.health_transitions, 1);
  EXPECT_GT(s.retried + s.dropped + s.failed + s.breaker_rejected, 0);
  EXPECT_EQ(s.pool_misses, 0) << "survivor plans must come prewarmed";
}

TEST(ServeStress, SingleFlightCacheBuildsOnce) {
  // 8 racing cold lookups of the same key: exactly one build runs; the
  // rest either hit (build already done) or coalesce onto the in-flight
  // future. Every caller gets the same plan object. Under TSan this also
  // races the build-outside-the-lock path against warm readers.
  ScheduleCache cache(cost::make_a40_server(4));
  const ops::Model model = small_squeezenet();
  sched::SchedulerConfig config;
  config.num_gpus = 4;

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const CachedPlan>> plans(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      plans[static_cast<std::size_t>(t)] = cache.get(model, "hios-lp", config).plan;
    });
  }
  for (auto& t : threads) t.join();

  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(plans[static_cast<std::size_t>(t)], plans[0]);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits() + cache.coalesced(), static_cast<std::size_t>(kThreads - 1));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeStress, PooledColdPathsMatchSequential) {
  // 8-lane pool: cold schedule builds, their nested search parallelism,
  // and concurrent prewarm all fan out on the shared pool while the trace
  // replays. The deterministic-replay contract must survive: verdict
  // counts, cache totals, and the virtual makespan equal the 1-lane run,
  // and conservation (including the cache-lookup law) holds throughout.
  auto run = [](int threads) {
    util::ScopedThreads pool(threads);
    ServerOptions opt;
    opt.platform = cost::make_a40_server(4);
    opt.slots_per_gpu = 2;
    opt.queue_capacity = 64;
    opt.use_engine = false;
    Server server(opt);
    server.register_model("branchy", branchy_model());
    server.register_model("squeezenet", small_squeezenet());
    TraceParams params;
    params.models = {"branchy", "squeezenet"};
    params.num_requests = 48;
    params.mean_interarrival_ms = 0.02;
    const ServeReport report = server.run_trace(Trace::random(params, 11));
    const Metrics::Snapshot s = server.metrics().snapshot();
    EXPECT_TRUE(s.conserved()) << "threads=" << threads;
    return std::tuple(s.completed, s.dropped, s.failed, s.cache_hits, s.cache_misses,
                      report.makespan_ms);
  };
  EXPECT_EQ(run(1), run(8));
}

}  // namespace
}  // namespace hios::serve
