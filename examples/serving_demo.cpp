// Serving-layer walkthrough: register models and serve a deterministic
// virtual-time trace through Server::run_trace.
//
//   build/examples/serving_demo
//
// Shows: stream-slot concurrency, deadline drops, the schedule cache, and
// the metrics JSON the server emits (the same document the deterministic-
// replay test pins byte-for-byte). Exits 1 unless the trace dropped at
// least one request and every request got exactly one verdict.
#include <cstdio>

#include "core/hios.h"

using namespace hios;

int main() {
  // 2 vGPUs, 2 stream slots: up to 2 requests execute concurrently, each
  // scheduled by HIOS-LP across both GPUs.
  serve::ServerOptions options;
  options.platform = cost::make_a40_server(2);
  options.slots_per_gpu = 2;
  options.queue_capacity = 16;
  options.algorithm = "hios-lp";
  serve::Server server(options);
  // Small inputs keep the demo subsecond: the engine runs real tensors
  // through CPU kernels.
  {
    models::SqueezenetOptions opt;
    opt.image_hw = 64;
    server.register_model("squeezenet", models::make_squeezenet(opt));
  }
  {
    models::InceptionV3Options opt;
    opt.image_hw = 96;
    opt.channel_scale = 8;
    server.register_model("inception", models::make_inception_v3(opt));
  }

  // --- deterministic trace serving -------------------------------------
  serve::TraceParams params;
  params.models = {"squeezenet", "inception"};
  params.num_requests = 12;
  params.mean_interarrival_ms = 0.3;   // Poisson-ish arrivals
  params.deadline_slack_ms = 1.5;      // tight deadlines: some requests drop
  const serve::Trace trace = serve::Trace::random(params, 2024);

  const serve::ServeReport report = server.run_trace(trace);
  std::printf("trace: %zu requests, makespan %.2f ms, throughput %.1f req/s\n",
              report.responses.size(), report.makespan_ms, report.throughput_rps);
  int dropped = 0;
  for (const serve::Response& r : report.responses) {
    if (r.verdict == serve::Verdict::kDropped) ++dropped;
    std::printf("  #%-2lld %-10s lane %d k=%d queue %.2f ms latency %.2f ms (x%.2f)\n",
                static_cast<long long>(r.id), serve::verdict_name(r.verdict), r.lane,
                r.concurrency, r.queue_ms, r.latency_ms, r.contention_scale);
  }
  std::printf("schedule cache: %zu entries, %zu hits / %zu misses\n\n",
              server.cache().size(), server.cache().hits(), server.cache().misses());

  std::printf("metrics JSON:\n%s\n", server.metrics().to_json().dump(true).c_str());
  const bool conserved = server.metrics().snapshot().conserved();
  std::printf("trace drops: %d, metrics conserve: %s\n", dropped, conserved ? "yes" : "NO");
  return dropped > 0 && conserved ? 0 : 1;
}
