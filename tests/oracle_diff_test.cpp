// Oracle-differential suite: every scheduler vs brute-force optima.
//
// Over 200+ random small DAGs, every scheduler must (a) produce a valid
// schedule, (b) report a latency that bit-matches the reference evaluator,
// and (c) never beat the applicable brute-force bound:
//   * single-GPU schedulers (sequential, ios) >= the exact single-GPU
//     stage-partition optimum at the same stage-size cap;
//   * singleton-stage multi-GPU schedulers (inter-lp, inter-mr) >= the
//     exact inter-GPU mapping/ordering optimum.
// Grouped multi-GPU schedules (hios-lp/hios-mr, which run Alg. 2) can
// legitimately beat the singleton-stage inter-GPU oracle, so for those only
// (a)/(b) plus the trivial critical-path lower bound apply. Finally, IOS
// with pruning disabled must *equal* the single-GPU optimum — the
// differential that pins the DP against an independent implementation.
//
// The reported latencies are checked against the from-scratch evaluator in
// tests/oracles/, and the two simulators, which walk the production core's
// stage order, against the oracle copies with their own Kahn passes.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <random>
#include <tuple>

#include "cost/table_model.h"
#include "graph/algorithms.h"
#include "models/random_dag.h"
#include "oracles/oracles.h"
#include "sched/bounds.h"
#include "sched/scheduler.h"
#include "sched/validate.h"
#include "sim/event_sim.h"
#include "sim/pipeline_sim.h"
#include "util/thread_pool.h"

namespace hios::sched {
namespace {

const cost::TableCostModel kCost;

graph::Graph small_dag(uint64_t seed, int num_ops) {
  models::RandomDagParams p;
  p.num_ops = num_ops;
  p.num_layers = std::max(2, num_ops / 3);
  p.num_deps = num_ops * 2;
  p.seed = seed;
  return models::random_dag(p);
}

// Checks (a) validity and (b) evaluator agreement for one scheduler run;
// returns the evaluated latency.
double check_and_evaluate(const graph::Graph& g, const std::string& algorithm,
                          const SchedulerConfig& config) {
  const ScheduleResult r = make_scheduler(algorithm)->schedule(g, kCost, config);
  const auto violations = validate_schedule(g, r.schedule);
  EXPECT_TRUE(violations.empty())
      << algorithm << ": " << (violations.empty() ? "" : violations.front());
  const auto eval = oracle::evaluate_schedule(g, r.schedule, kCost);
  EXPECT_TRUE(eval.has_value()) << algorithm << ": schedule deadlocks";
  if (eval.has_value()) {
    EXPECT_EQ(eval->latency_ms, r.latency_ms) << algorithm;
  }
  return r.latency_ms;
}

// N DAGs x 6 schedulers: validity, evaluator agreement, and the
// single-GPU oracle bound where it applies.
void run_single_gpu_oracle_suite(uint64_t num_seeds) {
  SchedulerConfig config;
  config.num_gpus = 2;
  for (uint64_t seed = 1; seed <= num_seeds; ++seed) {
    const int num_ops = 5 + static_cast<int>(seed % 6);  // 5..10 ops
    const graph::Graph g = small_dag(seed, num_ops);
    // Same stage-size cap as the schedulers' default ios_max_stage_ops.
    const double single_oracle =
        oracle::optimal_single_gpu_latency(g, kCost, config.ios_max_stage_ops);
    const double lower_bound =
        latency_lower_bounds(g, kCost, config.num_gpus).combined_ms;
    for (const std::string& algorithm : scheduler_names()) {
      const double latency = check_and_evaluate(g, algorithm, config);
      EXPECT_GE(latency + 1e-9, lower_bound) << algorithm << " seed=" << seed;
      if (algorithm == "sequential" || algorithm == "ios") {
        EXPECT_GE(latency + 1e-9, single_oracle) << algorithm << " seed=" << seed;
      }
    }
  }
}

TEST(OracleDiff, AllSchedulersRespectSingleGpuOracle) { run_single_gpu_oracle_suite(140); }

// The same suite through the 8-lane pool: the parallel search paths must
// respect the identical oracle bounds (and, per sched_parallel_test,
// produce the identical schedules).
TEST(OracleDiff, AllSchedulersRespectSingleGpuOraclePooled) {
  util::ScopedThreads pool(8);
  run_single_gpu_oracle_suite(60);
}

// 60 DAGs small enough for the exponential inter-GPU oracle: the
// singleton-stage schedulers can never beat the exact mapping optimum.
TEST(OracleDiff, SingletonSchedulersRespectInterGpuOracle) {
  SchedulerConfig config;
  config.num_gpus = 2;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const int num_ops = 4 + static_cast<int>(seed % 3);  // 4..6 ops
    const graph::Graph g = small_dag(seed * 977, num_ops);
    const double inter_oracle = oracle::optimal_inter_gpu_latency(g, kCost, config.num_gpus);
    for (const std::string& algorithm : {std::string("inter-lp"), std::string("inter-mr")}) {
      const double latency = check_and_evaluate(g, algorithm, config);
      EXPECT_GE(latency + 1e-9, inter_oracle) << algorithm << " seed=" << seed;
    }
  }
}

// IOS with pruning disabled IS the exact DP: equality, not just a bound.
TEST(OracleDiff, UnprunedIosMatchesOracleExactly) {
  SchedulerConfig exact;
  exact.ios_max_stage_ops = 16;
  exact.ios_frontier_cap = 64;
  exact.ios_beam_width = 1 << 20;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const int num_ops = 5 + static_cast<int>(seed % 6);
    const graph::Graph g = small_dag(seed * 31, num_ops);
    const auto ios = make_scheduler("ios")->schedule(g, kCost, exact);
    const double oracle = oracle::optimal_single_gpu_latency(g, kCost, 16);
    EXPECT_NEAR(ios.latency_ms, oracle, 1e-9) << seed;
  }
}

// The two oracles agree where their search spaces coincide: with one GPU,
// the inter-GPU oracle is the singleton-stage (max_stage_ops = 1) special
// case of the single-GPU partition oracle.
TEST(OracleDiff, OraclesAgreeOnSingleGpuSingletonCase) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const graph::Graph g = small_dag(seed * 131, 5);
    EXPECT_NEAR(oracle::optimal_inter_gpu_latency(g, kCost, 1),
                oracle::optimal_single_gpu_latency(g, kCost, 1), 1e-9)
        << seed;
  }
}

/// One simulator differential case: a random DAG, a random grouped schedule
/// on 1-4 GPUs (per-GPU stage order sometimes perturbed so that it
/// deadlocks) and a cost model with speed factors and/or a topology.
struct SimCase {
  graph::Graph g;
  Schedule schedule;
  cost::TableCostModel cost;
};

SimCase random_sim_case(std::mt19937_64& rng, int iter) {
  models::RandomDagParams p;
  p.num_ops = 12 + static_cast<int>(rng() % 52);
  p.num_layers = 3 + static_cast<int>(rng() % 6);
  p.num_deps = p.num_ops + static_cast<int>(rng() % (2 * p.num_ops));
  p.seed = rng();
  SimCase c;
  c.g = models::random_dag(p);
  const int m = 1 + static_cast<int>(rng() % 4);
  c.schedule = Schedule(m);
  if (iter % 4 == 1 || iter % 4 == 3) {
    std::vector<double> speeds;
    for (int i = 0; i < m; ++i) speeds.push_back(0.5 + 0.25 * static_cast<double>(rng() % 7));
    c.cost.set_speed_factors(std::move(speeds));
  }
  if (iter % 4 >= 2)
    c.cost.set_topology(cost::Topology::hierarchical(m, 2, cost::LinkClass{2.5, 0.05}));

  // Nodes in topological order go to random GPUs; an op often joins the
  // GPU's last stage when it is independent of every op there.
  const auto reach = oracle::reachability(c.g);
  const auto topo = graph::topological_sort(c.g);
  for (graph::NodeId v : *topo) {
    auto& stages = c.schedule.gpus[rng() % static_cast<uint64_t>(m)];
    bool grouped = false;
    if (!stages.empty() && stages.back().ops.size() < 4 && rng() % 5 < 2) {
      grouped = true;
      for (graph::NodeId u : stages.back().ops) grouped = grouped && oracle::independent(reach, u, v);
    }
    if (grouped) {
      stages.back().ops.push_back(v);
    } else {
      stages.push_back(Stage{{v}});
    }
  }
  // Every other case swaps a few adjacent stages, which often deadlocks.
  for (auto& stages : c.schedule.gpus) {
    for (int k = 0; iter % 2 == 1 && stages.size() >= 2 && k < static_cast<int>(rng() % 3); ++k) {
      const std::size_t i = rng() % (stages.size() - 1);
      std::swap(stages[i], stages[i + 1]);
    }
  }
  return c;
}

uint64_t bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(OracleDiff, SimulateOpsMatchesOracleTimeline) {
  std::mt19937_64 rng(0x0B5E7);
  int deadlocks = 0, feasible = 0;
  for (int iter = 0; iter < 120; ++iter) {
    const SimCase c = random_sim_case(rng, iter);
    const auto want = oracle::simulate_ops(c.g, c.schedule, c.cost);
    const auto got = sim::simulate_ops(c.g, c.schedule, c.cost);
    ASSERT_EQ(want.has_value(), got.has_value()) << "case " << iter;
    if (!want.has_value()) {
      ++deadlocks;
      continue;
    }
    ++feasible;
    EXPECT_EQ(bits(want->latency_ms), bits(got->latency_ms)) << "case " << iter;
    ASSERT_EQ(want->events.size(), got->events.size()) << "case " << iter;
    // Compute events come in stage order, which may be any topological
    // order, so compare them keyed by event kind and name.
    const auto by_op = [](const sim::Timeline& tl) {
      std::map<std::pair<sim::TimelineEvent::Kind, std::string>,
               std::tuple<int, int, int, uint64_t, uint64_t>>
          out;
      for (const sim::TimelineEvent& e : tl.events)
        out[{e.kind, e.name}] = {e.gpu, e.peer_gpu, e.stage, bits(e.start_ms), bits(e.finish_ms)};
      return out;
    };
    const auto want_by_op = by_op(*want);
    EXPECT_EQ(want_by_op.size(), want->events.size()) << "case " << iter;
    EXPECT_TRUE(want_by_op == by_op(*got)) << "case " << iter;
  }
  EXPECT_GE(feasible, 50);
  EXPECT_GT(deadlocks, 0);
}

TEST(OracleDiff, SimulatePipelineMatchesOracleStats) {
  std::mt19937_64 rng(0x919E);
  int deadlocks = 0, feasible = 0;
  for (int iter = 0; iter < 120; ++iter) {
    const SimCase c = random_sim_case(rng, iter);
    for (int requests : {1, 2, 5}) {
      const auto want = oracle::simulate_pipeline(c.g, c.schedule, c.cost, requests);
      const auto got = sim::simulate_pipeline(c.g, c.schedule, c.cost, requests);
      ASSERT_EQ(want.has_value(), got.has_value()) << "case " << iter;
      if (!want.has_value()) {
        ++deadlocks;
        continue;
      }
      ++feasible;
      EXPECT_EQ(want->num_requests, got->num_requests);
      EXPECT_EQ(bits(want->first_latency_ms), bits(got->first_latency_ms))
          << "case " << iter << ", " << requests << " requests";
      EXPECT_EQ(bits(want->steady_latency_ms), bits(got->steady_latency_ms))
          << "case " << iter << ", " << requests << " requests";
      EXPECT_EQ(bits(want->makespan_ms), bits(got->makespan_ms))
          << "case " << iter << ", " << requests << " requests";
      EXPECT_EQ(bits(want->steady_interval_ms), bits(got->steady_interval_ms))
          << "case " << iter << ", " << requests << " requests";
    }
  }
  EXPECT_GE(feasible, 150);
  EXPECT_GT(deadlocks, 0);
}

}  // namespace
}  // namespace hios::sched
