// Guard that the pool's lane count cannot leak into plans (DESIGN.md §6g).
//
// The schedulers' search loops are serial, so their output must not depend
// on util::global_pool()'s lane count. This suite pins it: over 100+
// random DAGs, HIOS-LP, HIOS-MR, IOS, and the parallelize pass must emit
// byte-identical schedules (serialized form compared as strings) and
// bit-identical latencies at 1, 2, and 8 lanes. Runs under TSan in CI
// (label: stress).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cost/stage_cache.h"
#include "cost/table_model.h"
#include "models/random_dag.h"
#include "sched/parallelize.h"
#include "sched/scheduler.h"
#include "util/thread_pool.h"

namespace hios::sched {
namespace {

const cost::TableCostModel kCost;

graph::Graph make_dag(uint64_t seed) {
  models::RandomDagParams p;
  p.num_ops = 6 + static_cast<int>(seed % 25);  // 6..30 ops
  p.num_layers = std::max(2, p.num_ops / 3);
  p.num_deps = p.num_ops * 2;
  p.seed = seed;
  return models::random_dag(p);
}

/// Canonical byte representation of a schedule (op names per stage per
/// GPU), so "byte-identical" is a plain string comparison.
std::string dump(const graph::Graph& g, const Schedule& s) { return s.to_json(g).dump(); }

struct SchedRun {
  std::string schedule;
  double latency = 0.0;
};

SchedRun run_scheduler(const graph::Graph& g, const std::string& algorithm,
                  const SchedulerConfig& config, int threads) {
  util::ScopedThreads pool(threads);
  const ScheduleResult r = make_scheduler(algorithm)->schedule(g, kCost, config);
  return SchedRun{dump(g, r.schedule), r.latency_ms};
}

// 102 DAGs x {hios-lp, hios-mr, ios}: the 2- and 8-lane runs must
// reproduce the single-lane schedule byte for byte and its latency bit for
// bit (EXPECT_EQ on doubles is exact equality, not a tolerance).
TEST(SchedParallel, SchedulersByteIdenticalAcrossThreadCounts) {
  for (uint64_t seed = 1; seed <= 102; ++seed) {
    const graph::Graph g = make_dag(seed);
    SchedulerConfig config;
    config.num_gpus = 2 + static_cast<int>(seed % 3);  // 2..4 GPUs
    config.window = 2 + static_cast<int>(seed % 3);    // 2..4 ops
    for (const char* algorithm : {"hios-lp", "hios-mr", "ios"}) {
      const SchedRun reference = run_scheduler(g, algorithm, config, 1);
      for (int threads : {2, 8}) {
        const SchedRun run = run_scheduler(g, algorithm, config, threads);
        EXPECT_EQ(run.schedule, reference.schedule)
            << algorithm << " seed=" << seed << " threads=" << threads;
        EXPECT_EQ(run.latency, reference.latency)
            << algorithm << " seed=" << seed << " threads=" << threads;
      }
    }
  }
}

// The parallelize pass alone (driven on an inter-GPU schedule with
// singleton stages): identical merges, identical candidate count, and a
// byte-identical merged schedule at every lane count.
TEST(SchedParallel, ParallelizeByteIdenticalAcrossThreadCounts) {
  for (uint64_t seed = 1; seed <= 102; ++seed) {
    const graph::Graph g = make_dag(seed * 613);
    SchedulerConfig config;
    config.num_gpus = 2 + static_cast<int>(seed % 3);
    const ScheduleResult base = make_scheduler("inter-lp")->schedule(g, kCost, config);
    const int window = 2 + static_cast<int>(seed % 4);  // 2..5 ops

    ParallelizeResult reference;
    {
      util::ScopedThreads pool(1);
      reference = parallelize(g, base.schedule, kCost, window);
    }
    for (int threads : {2, 8}) {
      util::ScopedThreads pool(threads);
      const ParallelizeResult run = parallelize(g, base.schedule, kCost, window);
      EXPECT_EQ(dump(g, run.schedule), dump(g, reference.schedule))
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(run.latency_ms, reference.latency_ms)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(run.merges_accepted, reference.merges_accepted)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(run.candidates_tried, reference.candidates_tried)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

// The stage-time cache must return what the inner model returns, and its
// hit/miss totals must be exact: one miss to fill each stage, one hit to
// read it back.
TEST(SchedParallel, StageCacheMatchesInnerModel) {
  const graph::Graph g = make_dag(99);
  const cost::StageTimeCache cached(kCost);
  std::vector<graph::NodeId> stage;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes()); ++v) {
    stage.push_back(v);
    const auto span = std::span<const graph::NodeId>(stage);
    const double direct = kCost.stage_time(g, span);
    EXPECT_EQ(cached.stage_time(g, span), direct) << "fill v=" << v;
    EXPECT_EQ(cached.stage_time(g, span), direct) << "hit v=" << v;
  }
  EXPECT_EQ(cached.hits(), g.num_nodes());
  EXPECT_EQ(cached.misses(), g.num_nodes());
}

}  // namespace
}  // namespace hios::sched
