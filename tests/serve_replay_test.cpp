// Deterministic replay: the same trace + seed served twice must produce
// byte-identical metrics JSON and timeline JSON — the serving layer's
// determinism contract (DESIGN.md §6e). Everything user-visible is virtual
// time, so thread scheduling, machine load, and rerun count cannot leak in.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "models/examples.h"
#include "models/resnet.h"
#include "models/squeezenet.h"
#include "serve/server.h"
#include "util/thread_pool.h"

namespace hios::serve {
namespace {

ops::Model tiny_model() {
  using namespace ops;
  Model m("tiny");
  const OpId in = m.add_input("x", TensorShape{1, 4, 8, 8});
  const OpId c1 = m.add_op(Op(OpKind::kConv2d, "c1", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  const OpId c2 = m.add_op(Op(OpKind::kConv2d, "c2", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  const OpId cat = m.add_op(Op(OpKind::kConcat, "cat"), {c1, c2});
  m.add_op(Op(OpKind::kGlobalPool, "gp"), {cat});
  return m;
}

ops::Model chain_model() {
  using namespace ops;
  Model m("chain");
  const OpId in = m.add_input("x", TensorShape{1, 4, 16, 16});
  OpId prev = m.add_op(Op(OpKind::kConv2d, "c0", Conv2dAttr{8, 3, 3, 1, 1, 1, 1, 1}), {in});
  prev = m.add_op(Op(OpKind::kActivation, "r0"), {prev});
  prev = m.add_op(Op(OpKind::kPool2d, "p0", Pool2dAttr{PoolMode::kMax, 2, 2, 2, 2, 0, 0}), {prev});
  m.add_op(Op(OpKind::kGlobalPool, "gp"), {prev});
  return m;
}

struct ReplayResult {
  std::string metrics_json;
  std::string timeline_json;
  std::vector<Response> responses;
};

ReplayResult serve_once(const ServerOptions& options, const Trace& trace) {
  Server server(options);
  server.register_model("tiny", tiny_model());
  server.register_model("chain", chain_model());
  ServeReport report = server.run_trace(trace);
  ReplayResult out;
  out.metrics_json = report.metrics.dump();
  out.timeline_json = report.timeline.to_chrome_trace().dump();
  out.responses = std::move(report.responses);
  return out;
}

Trace make_trace() {
  TraceParams params;
  params.models = {"tiny", "chain"};
  params.num_requests = 24;
  params.mean_interarrival_ms = 0.05;
  params.deadline_slack_ms = 50.0;
  return Trace::random(params, 1234);
}

void expect_identical(const ReplayResult& a, const ReplayResult& b) {
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.timeline_json, b.timeline_json);
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const Response& x = a.responses[i];
    const Response& y = b.responses[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.verdict, y.verdict);
    EXPECT_EQ(x.lane, y.lane);
    EXPECT_EQ(x.concurrency, y.concurrency);
    // Bit-exact, not approximately equal: the determinism contract.
    EXPECT_EQ(x.start_ms, y.start_ms);
    EXPECT_EQ(x.finish_ms, y.finish_ms);
    EXPECT_EQ(x.latency_ms, y.latency_ms);
    EXPECT_EQ(x.contention_scale, y.contention_scale);
  }
}

TEST(ServeReplay, SameTraceSameSeedIsByteIdentical) {
  ServerOptions opt;
  opt.platform = cost::make_a40_server(2);
  opt.slots_per_gpu = 2;
  const Trace trace = make_trace();
  expect_identical(serve_once(opt, trace), serve_once(opt, trace));
}

TEST(ServeReplay, TraceGenerationIsSeedDeterministic) {
  TraceParams params;
  params.models = {"a", "b"};
  params.num_requests = 100;
  params.mean_interarrival_ms = 1.0;
  const Trace t1 = Trace::random(params, 9);
  const Trace t2 = Trace::random(params, 9);
  const Trace t3 = Trace::random(params, 10);
  ASSERT_EQ(t1.requests.size(), t2.requests.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < t1.requests.size(); ++i) {
    EXPECT_EQ(t1.requests[i].model, t2.requests[i].model);
    EXPECT_EQ(t1.requests[i].arrival_ms, t2.requests[i].arrival_ms);
    any_diff |= t1.requests[i].arrival_ms != t3.requests[i].arrival_ms;
  }
  EXPECT_TRUE(any_diff);  // a different seed gives a different trace
}

TEST(ServeReplay, ThreadCountCannotLeakIntoMetrics) {
  // Same trace, different lane-worker pressure on the *execution* pool via
  // use_engine off/on: the virtual-time metrics must be identical because
  // execution wall clock is excluded from the JSON by design.
  ServerOptions sim;
  sim.platform = cost::make_a40_server(2);
  sim.slots_per_gpu = 2;
  sim.use_engine = false;
  ServerOptions engine = sim;
  engine.use_engine = true;
  const Trace trace = make_trace();
  const ReplayResult a = serve_once(sim, trace);
  const ReplayResult b = serve_once(engine, trace);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

struct HedgedRun {
  std::string metrics_json;
  Metrics::Snapshot snapshot;
  uint64_t response_hash = 0;
};

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

/// FNV-1a over `size` bytes at `data`, continuing from `h`.
uint64_t fnv1a(uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over each response's (verdict, lane, start_ms, finish_ms) bytes.
uint64_t hash_responses(const std::vector<Response>& responses) {
  uint64_t h = kFnvOffset;
  auto mix = [&h](const void* data, std::size_t size) { h = fnv1a(h, data, size); };
  for (const Response& r : responses) {
    const int verdict = static_cast<int>(r.verdict);
    mix(&verdict, sizeof verdict);
    mix(&r.lane, sizeof r.lane);
    mix(&r.start_ms, sizeof r.start_ms);
    mix(&r.finish_ms, sizeof r.finish_ms);
  }
  return h;
}

/// Two real CNNs on 4 GPUs with a mid-trace outage and the hedge trigger
/// on: every dispatch past the warm-up reads the running p99.
HedgedRun serve_hedged(int threads) {
  util::ScopedThreads pool(threads);
  ServerOptions opt;
  opt.platform = cost::make_a40_server(4);
  opt.use_engine = false;
  opt.outages.push_back(GpuOutage{0, 1000.0, 2000.0});
  opt.hedge_multiplier = 0.99;
  Server server(opt);
  server.register_model("squeezenet", models::make_squeezenet());
  server.register_model("resnet50", models::make_resnet50());

  TraceParams params;
  params.models = {"squeezenet", "resnet50"};
  params.num_requests = 2000;
  params.mean_interarrival_ms = 2.0;
  params.deadline_slack_ms = 20.0;
  const ServeReport report = server.run_trace(Trace::random(params, 4242));
  HedgedRun out;
  out.metrics_json = report.metrics.dump();
  out.snapshot = server.metrics().snapshot();
  out.response_hash = hash_responses(report.responses);
  return out;
}

TEST(ServeReplay, HedgedTraceIsByteIdentical) {
  const HedgedRun a = serve_hedged(1);
  const HedgedRun b = serve_hedged(1);
  const HedgedRun c = serve_hedged(8);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.metrics_json, c.metrics_json);
  EXPECT_EQ(a.response_hash, b.response_hash);
  EXPECT_EQ(a.response_hash, c.response_hash);
  // Pinned: the hedge trigger's decisions and every response's placement
  // must not move when the running p99 changes implementation.
  EXPECT_EQ(a.snapshot.hedged, 671);
  EXPECT_EQ(a.snapshot.hedge_won, 0);
  EXPECT_EQ(a.snapshot.retried, 0);
  EXPECT_EQ(a.response_hash, 13832109692724739846ull);
  // Pinned: the outage's health life cycle (down, probes, back up) and the
  // survivor prewarm it triggers, then every metric at once.
  EXPECT_EQ(a.snapshot.health_transitions, 133);
  EXPECT_EQ(a.snapshot.probes_sent, 66);
  EXPECT_EQ(a.snapshot.probes_succeeded, 1);
  EXPECT_EQ(a.snapshot.pool_prewarm_builds, 14);
  EXPECT_EQ(fnv1a(kFnvOffset, a.metrics_json.data(), a.metrics_json.size()),
            989376703364754645ull);
}

}  // namespace
}  // namespace hios::serve
