// Chaos soak (label: chaos, run under ASan + TSan in CI): a seeded outage
// kills one GPU mid-trace and recovers it. Pins the degraded-mode serving
// contract (DESIGN.md §6f):
//   * every admitted request gets exactly one terminal verdict,
//   * conservation holds with the new verdicts:
//     submitted = admitted + rejected + breaker_rejected,
//   * after the health transition no request pays a cold residual
//     reschedule (the plan pool serves every survivor plan warm),
//   * the whole run — metrics JSON, timeline JSON, responses — is
//     byte-identical across reruns and across engine on/off.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "models/examples.h"
#include "serve/server.h"

namespace hios::serve {
namespace {

ops::Model branchy_model() {
  using namespace ops;
  Model m("branchy");
  const OpId in = m.add_input("x", TensorShape{1, 4, 8, 8});
  const OpId c1 = m.add_op(Op(OpKind::kConv2d, "c1", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  const OpId c2 = m.add_op(Op(OpKind::kConv2d, "c2", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  const OpId cat = m.add_op(Op(OpKind::kConcat, "cat"), {c1, c2});
  m.add_op(Op(OpKind::kGlobalPool, "gp"), {cat});
  return m;
}

struct ChaosRun {
  ServeReport report;
  Metrics::Snapshot snapshot;
};

ChaosRun serve_chaos(const ServerOptions& options, const Trace& trace) {
  Server server(options);
  server.register_model("branchy", branchy_model());
  ChaosRun out;
  out.report = server.run_trace(trace);
  out.snapshot = server.metrics().snapshot();
  return out;
}

/// Closed-loop saturation trace: every request at t = 0, so the lanes stay
/// busy across the whole makespan and the outage window is guaranteed to
/// catch in-flight work.
Trace saturated_trace(int n) {
  TraceParams params;
  params.models = {"branchy"};
  params.num_requests = n;
  params.mean_interarrival_ms = 0.0;
  return Trace::random(params, 7);
}

/// Virtual makespan of the fault-free run, used to place the outage
/// mid-trace without hard-coding model latencies.
double calibrate_makespan(ServerOptions options, const Trace& trace) {
  options.outages.clear();
  options.use_engine = false;
  return serve_chaos(options, trace).report.makespan_ms;
}

/// Kill GPU 1 a quarter into the trace, recover it at 40%: plenty of
/// in-flight work to victimise, plenty of tail to probe it back up. Every
/// time constant (probe backoff, retry backoff) scales with the calibrated
/// makespan so the scenario is independent of the model's absolute latency.
ServerOptions chaos_options(const Trace& trace) {
  ServerOptions opt;
  opt.platform = cost::make_a40_server(2);
  opt.slots_per_gpu = 2;
  opt.queue_capacity = 64;
  const double makespan = calibrate_makespan(opt, trace);
  EXPECT_GT(makespan, 0.0);
  opt.retry_backoff_ms = 0.01 * makespan;
  opt.health.probe_backoff_ms = 0.02 * makespan;
  opt.health.probe_max_backoff_ms = 0.08 * makespan;
  opt.outages.push_back(GpuOutage{1, 0.25 * makespan, 0.40 * makespan});
  return opt;
}

TEST(ServeChaos, KillAndRecoverMidTraceExactlyOnce) {
  constexpr int kRequests = 24;
  const Trace trace = saturated_trace(kRequests);

  const ServerOptions opt = chaos_options(trace);
  const ChaosRun run = serve_chaos(opt, trace);
  const Metrics::Snapshot& s = run.snapshot;

  // Exactly-once: every submitted id resolves to one terminal verdict.
  ASSERT_EQ(run.report.responses.size(), static_cast<std::size_t>(kRequests));
  std::set<RequestId> ids;
  for (const Response& r : run.report.responses) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate response id " << r.id;
  }

  // Conservation with the new verdicts.
  EXPECT_TRUE(s.conserved());
  EXPECT_EQ(s.submitted, kRequests);
  EXPECT_EQ(s.admitted, kRequests) << "no deadlines: nothing sheds";
  EXPECT_EQ(s.completed, kRequests)
      << "every victim must retry onto the survivor plan and complete";
  EXPECT_EQ(s.failed, 0);
  EXPECT_EQ(s.dropped, 0);

  // The outage actually bit: victims retried, health went down, three
  // probes failed inside the window and the fourth brought the GPU back up
  // (Down, then three Probing/Down rounds, then Probing/Healthy).
  EXPECT_GT(s.retried, 0);
  EXPECT_EQ(s.health_transitions, 9);
  EXPECT_EQ(s.probes_sent, 4);
  EXPECT_EQ(s.probes_succeeded, 1) << "the GPU must probe back to healthy";
  EXPECT_EQ(run.report.health.at("up_mask").as_int(), 0b11)
      << "trace must end with the GPU recovered";

  // Plan-pool contract: the transition prewarmed the survivor plans, so no
  // request after it pays a cold residual reschedule.
  EXPECT_GT(s.pool_prewarm_builds, 0);
  EXPECT_GT(s.pool_hits, 0);
  EXPECT_EQ(s.pool_misses, 0) << "a cold on-path build means prewarm failed";

  // Degraded-mode traffic is visible in the responses.
  int degraded = 0;
  for (const Response& r : run.report.responses) {
    if (r.verdict == Verdict::kCompleted && r.topo_mask != kFullMask) ++degraded;
    if (r.attempts > 1) {
      EXPECT_EQ(r.verdict, Verdict::kCompleted);
    }
  }
  EXPECT_GT(degraded, 0) << "some requests must have completed on the survivor plan";
}

TEST(ServeChaos, ByteIdenticalAcrossRerunsAndEngineOnOff) {
  constexpr int kRequests = 24;
  const Trace trace = saturated_trace(kRequests);
  const ServerOptions opt = chaos_options(trace);
  const ChaosRun a = serve_chaos(opt, trace);
  const ChaosRun b = serve_chaos(opt, trace);
  EXPECT_EQ(a.report.metrics.dump(), b.report.metrics.dump());
  EXPECT_EQ(a.report.health.dump(), b.report.health.dump());
  EXPECT_EQ(a.report.timeline.to_chrome_trace().dump(),
            b.report.timeline.to_chrome_trace().dump());
  ASSERT_EQ(a.report.responses.size(), b.report.responses.size());
  for (std::size_t i = 0; i < a.report.responses.size(); ++i) {
    const Response& x = a.report.responses[i];
    const Response& y = b.report.responses[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.verdict, y.verdict);
    EXPECT_EQ(x.attempts, y.attempts);
    EXPECT_EQ(x.topo_mask, y.topo_mask);
    // Bit-exact, not approximately equal: the determinism contract.
    EXPECT_EQ(x.start_ms, y.start_ms);
    EXPECT_EQ(x.finish_ms, y.finish_ms);
    EXPECT_EQ(x.latency_ms, y.latency_ms);
    EXPECT_EQ(x.contention_scale, y.contention_scale);
  }

  // Engine execution (real worker pool, real tensors) cannot leak into the
  // virtual-time metrics.
  ServerOptions sim = opt;
  sim.use_engine = false;
  const ChaosRun c = serve_chaos(sim, trace);
  EXPECT_EQ(a.report.metrics.dump(), c.report.metrics.dump());
  EXPECT_EQ(a.report.health.dump(), c.report.health.dump());
}

TEST(ServeChaos, BreakerShedsUnmeetableDeadlinesWhileDegraded) {
  // Hand-built scenario on a permanent outage of GPU 1 (of 2):
  //   req 0 @ 0    no deadline   -> victim at t=0, retries onto survivor
  //   req 1 @ 1e-4 deadline+1e-9 -> health already degraded: breaker sheds
  //   req 2 @ 2    deadline+1e-9 -> breaker sheds
  //   req 3 @ 2    no deadline   -> completes on the survivor plan
  ServerOptions opt;
  opt.platform = cost::make_a40_server(2);
  opt.slots_per_gpu = 2;
  opt.outages.push_back(GpuOutage{1, 0.0});  // to_ms = inf: never recovers

  Trace trace;
  trace.requests.push_back(Request{0, "branchy", 0.0, kNoDeadline});
  trace.requests.push_back(Request{1, "branchy", 1e-4, 1e-4 + 1e-9});
  trace.requests.push_back(Request{2, "branchy", 2.0, 2.0 + 1e-9});
  trace.requests.push_back(Request{3, "branchy", 2.0, kNoDeadline});

  const ChaosRun run = serve_chaos(opt, trace);
  const Metrics::Snapshot& s = run.snapshot;
  ASSERT_EQ(run.report.responses.size(), 4u);

  const Response& r0 = run.report.responses[0];
  EXPECT_EQ(r0.verdict, Verdict::kCompleted);
  EXPECT_EQ(r0.attempts, 2) << "first dispatch was a victim of the outage";
  EXPECT_NE(r0.topo_mask, kFullMask);

  EXPECT_EQ(run.report.responses[1].verdict, Verdict::kBreakerRejected);
  EXPECT_EQ(run.report.responses[2].verdict, Verdict::kBreakerRejected);

  const Response& r3 = run.report.responses[3];
  EXPECT_EQ(r3.verdict, Verdict::kCompleted);
  EXPECT_EQ(r3.attempts, 1);
  EXPECT_NE(r3.topo_mask, kFullMask);

  EXPECT_TRUE(s.conserved());
  EXPECT_EQ(s.submitted, 4);
  EXPECT_EQ(s.breaker_rejected, 2);
  EXPECT_EQ(s.admitted, 2);
  EXPECT_EQ(s.completed, 2);
  EXPECT_EQ(s.retried, 1);
  EXPECT_EQ(s.pool_misses, 0);
}

TEST(ServeChaos, ValidationRejectsBadChaosConfigs) {
  ServerOptions opt;
  opt.platform = cost::make_a40_server(2);

  ServerOptions bad = opt;
  bad.outages.push_back(GpuOutage{5, 0.0, 1.0});
  EXPECT_THROW(Server{bad}, Error);

  bad = opt;
  bad.outages.push_back(GpuOutage{0, 2.0, 1.0});  // to <= from
  EXPECT_THROW(Server{bad}, Error);

  bad = opt;  // both GPUs down at once: no survivor
  bad.outages.push_back(GpuOutage{0, 1.0, 3.0});
  bad.outages.push_back(GpuOutage{1, 2.0, 4.0});
  EXPECT_THROW(Server{bad}, Error);
}

}  // namespace
}  // namespace hios::serve
