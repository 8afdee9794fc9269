// Tests for Alg. 2 (intra-GPU sliding-window parallelization).
#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "cost/table_model.h"
#include "graph/algorithms.h"
#include "models/examples.h"
#include "models/random_dag.h"
#include "oracles/oracles.h"
#include "sched/evaluate.h"
#include "sched/parallelize.h"
#include "sched/scheduler.h"
#include "sched/validate.h"

namespace hios::sched {
namespace {

const cost::TableCostModel kCost;

Schedule sequential_of(const graph::Graph& g) {
  Schedule s(1);
  for (graph::NodeId v : graph::priority_order(g)) s.push_op(0, v);
  return s;
}

TEST(Parallelize, GroupsIndependentSmallOps) {
  // Fork-join with small branches: grouping the branches must win.
  const graph::Graph g = models::make_fork_join(3, 0.3, 0.05, 0.2);
  const Schedule seq = sequential_of(g);
  const auto before = evaluate_schedule(g, seq, kCost);
  const ParallelizeResult r = parallelize(g, seq, kCost, /*window=*/3);
  check_schedule(g, r.schedule);
  EXPECT_LT(r.latency_ms, before->latency_ms);
  EXPECT_GE(r.merges_accepted, 1);
  // A merged stage with more than one op must exist.
  bool found_group = false;
  for (const auto& stage : r.schedule.gpus[0]) found_group |= stage.ops.size() > 1;
  EXPECT_TRUE(found_group);
}

TEST(Parallelize, NeverIncreasesLatency) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    models::RandomDagParams p;
    p.num_ops = 40;
    p.num_layers = 6;
    p.num_deps = 80;
    p.seed = seed;
    const graph::Graph g = models::random_dag(p);
    const Schedule seq = sequential_of(g);
    const double before = evaluate_schedule(g, seq, kCost)->latency_ms;
    const ParallelizeResult r = parallelize(g, seq, kCost, 2);
    check_schedule(g, r.schedule);
    EXPECT_LE(r.latency_ms, before + 1e-9) << seed;
    // Reported latency matches a fresh evaluation.
    EXPECT_NEAR(oracle::evaluate_schedule(g, r.schedule, kCost)->latency_ms, r.latency_ms, 1e-9);
  }
}

TEST(Parallelize, WindowOneIsNoOp) {
  const graph::Graph g = models::make_fork_join(3, 0.3, 0.05, 0.2);
  const Schedule seq = sequential_of(g);
  const ParallelizeResult r = parallelize(g, seq, kCost, 1);
  EXPECT_EQ(r.merges_accepted, 0);
  EXPECT_EQ(r.candidates_tried, 0);
  EXPECT_DOUBLE_EQ(r.latency_ms, evaluate_schedule(g, seq, kCost)->latency_ms);
}

TEST(Parallelize, WindowCapsGroupSize) {
  const graph::Graph g = models::make_fork_join(6, 0.2, 0.01, 0.1);
  const Schedule seq = sequential_of(g);
  const ParallelizeResult r = parallelize(g, seq, kCost, 3);
  for (const auto& stage : r.schedule.gpus[0]) EXPECT_LE(stage.ops.size(), 3u);
}

TEST(Parallelize, RespectsDependenciesInWindow) {
  // A chain offers no independent window: nothing may merge.
  const graph::Graph g = models::make_chain(5, 0.2, 0.01);
  const Schedule seq = sequential_of(g);
  const ParallelizeResult r = parallelize(g, seq, kCost, 4);
  EXPECT_EQ(r.merges_accepted, 0);
  for (const auto& stage : r.schedule.gpus[0]) EXPECT_EQ(stage.ops.size(), 1u);
}

TEST(Parallelize, LargeOpsNotGrouped) {
  // Saturating ops (t >= t_saturate): grouping is slower, so Alg. 2 must
  // leave them sequential (the §II-A motivation).
  const graph::Graph g = models::make_fork_join(2, 4.0, 0.05, 0.2);
  const Schedule seq = sequential_of(g);
  const ParallelizeResult r = parallelize(g, seq, kCost, 2);
  EXPECT_EQ(r.merges_accepted, 0);
  EXPECT_GT(r.candidates_tried, 0);  // it tried, latency said no
}

TEST(Parallelize, MultiGpuScheduleKeepsAssignments) {
  const graph::Graph g = models::make_twin_chains(4, 0.3, 0.05);
  Schedule s(2);
  // Chain a on gpu0, chain b on gpu1, sink on gpu0 (ids interleaved).
  const auto order = graph::priority_order(g);
  for (graph::NodeId v : order) {
    const bool is_b = g.node_name(v)[0] == 'b';
    s.push_op(is_b ? 1 : 0, v);
  }
  const auto gpu_before = s.gpu_assignment(g.num_nodes());
  const ParallelizeResult r = parallelize(g, s, kCost, 2);
  check_schedule(g, r.schedule);
  EXPECT_EQ(r.schedule.gpu_assignment(g.num_nodes()), gpu_before);
}

TEST(Parallelize, Fig5StyleImprovement) {
  // Mirror of the paper's Fig. 5 situation: after an inter-GPU split,
  // sliding windows group small independent ops per GPU and cut latency.
  const graph::Graph g = models::make_fig4_graph(
      {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}, {0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1});
  Schedule s(1);
  for (graph::NodeId v : graph::priority_order(g)) s.push_op(0, v);
  const double before = evaluate_schedule(g, s, kCost)->latency_ms;
  const ParallelizeResult r = parallelize(g, s, kCost, 2);
  EXPECT_LT(r.latency_ms, before);
}

TEST(Parallelize, InvalidInputScheduleThrows) {
  const graph::Graph g = models::make_chain(3, 1.0, 0.1);
  Schedule bad(2);
  bad.push_op(0, 2);
  bad.push_op(0, 0);
  bad.push_op(1, 1);  // deadlocks
  EXPECT_THROW(parallelize(g, bad, kCost, 2), Error);
}

TEST(Parallelize, SingleNodeGraph) {
  graph::Graph g;
  g.add_node("only", 1.0);
  Schedule s(1);
  s.push_op(0, 0);
  const ParallelizeResult r = parallelize(g, s, kCost, 2);
  EXPECT_DOUBLE_EQ(r.latency_ms, 1.0);
}

/// Data-edge reachability between the stages of `s`, flattened GPU-major:
/// the condensed graph whose independence test Alg. 2 applies.
std::vector<DynBitset> stage_reach(const graph::Graph& g, const Schedule& s,
                                   std::vector<std::vector<int>>& flat) {
  graph::Graph condensed("stages");
  std::vector<int> stage_of(g.num_nodes(), -1);
  flat.assign(s.gpus.size(), {});
  for (std::size_t gpu = 0; gpu < s.gpus.size(); ++gpu) {
    for (const Stage& stage : s.gpus[gpu]) {
      const int id = static_cast<int>(condensed.num_nodes());
      condensed.add_node(std::to_string(id));
      flat[gpu].push_back(id);
      for (graph::NodeId v : stage.ops) stage_of[static_cast<std::size_t>(v)] = id;
    }
  }
  for (const graph::Edge& e : g.edges()) {
    const int a = stage_of[static_cast<std::size_t>(e.src)];
    const int b = stage_of[static_cast<std::size_t>(e.dst)];
    if (a != b && condensed.find_edge(a, b) < 0) condensed.add_edge(a, b);
  }
  return oracle::reachability(condensed);
}

/// Merges the stages at [pos, pos + extent] on `gpu` into the one at pos.
void merge_window(Schedule& s, int gpu, int pos, int extent) {
  auto& stages = s.gpus[static_cast<std::size_t>(gpu)];
  auto& dst = stages[static_cast<std::size_t>(pos)].ops;
  for (int k = 1; k <= extent; ++k) {
    const auto& src = stages[static_cast<std::size_t>(pos + k)].ops;
    dst.insert(dst.end(), src.begin(), src.end());
  }
  stages.erase(stages.begin() + pos + 1, stages.begin() + pos + 1 + extent);
}

/// Reference Alg. 2: parallelize()'s greedy, but every window is scored by
/// deep-copying the Schedule and evaluating the copy with the from-scratch
/// evaluator in tests/oracles/, and the stage reachability is rebuilt after
/// every accepted merge.
ParallelizeResult deep_copy_greedy(const graph::Graph& g, Schedule s, const cost::CostModel& cost,
                                   int window) {
  ParallelizeResult r;
  double latency = oracle::evaluate_schedule(g, s, cost)->latency_ms;
  std::vector<std::vector<int>> flat;
  std::vector<DynBitset> reach = stage_reach(g, s, flat);
  const auto independent = [&](int gpu, int a, int b) {
    const auto& ids = flat[static_cast<std::size_t>(gpu)];
    const auto ia = static_cast<std::size_t>(ids[static_cast<std::size_t>(a)]);
    const auto ib = static_cast<std::size_t>(ids[static_cast<std::size_t>(b)]);
    return !reach[ia].test(ib) && !reach[ib].test(ia);
  };
  const std::vector<graph::NodeId> order = graph::priority_order(g);
  for (std::size_t oi = 0; window >= 2 && oi + 1 < order.size(); ++oi) {
    int gpu = 0, pos = 0;
    while (true) {
      const auto& stages = s.gpus[static_cast<std::size_t>(gpu)];
      const auto it = std::find_if(stages.begin(), stages.end(), [&](const Stage& st) {
        return std::find(st.ops.begin(), st.ops.end(), order[oi]) != st.ops.end();
      });
      if (it != stages.end()) {
        pos = static_cast<int>(it - stages.begin());
        break;
      }
      ++gpu;
    }
    const auto& stages = s.gpus[static_cast<std::size_t>(gpu)];
    if (stages[static_cast<std::size_t>(pos)].ops.size() > 1) continue;

    double best_latency = latency;
    int best_extent = 0;
    std::size_t total_ops = 1;
    for (int extent = 1; pos + extent < static_cast<int>(stages.size()); ++extent) {
      total_ops += stages[static_cast<std::size_t>(pos + extent)].ops.size();
      if (total_ops > static_cast<std::size_t>(window)) break;
      bool ok = true;
      for (int a = pos; a < pos + extent && ok; ++a)
        for (int b = a + 1; b <= pos + extent && ok; ++b) ok = independent(gpu, a, b);
      if (!ok) break;
      ++r.candidates_tried;
      Schedule candidate = s;
      merge_window(candidate, gpu, pos, extent);
      const auto eval = oracle::evaluate_schedule(g, candidate, cost);
      if (eval.has_value() && eval->latency_ms < best_latency) {
        best_latency = eval->latency_ms;
        best_extent = extent;
      }
    }
    if (best_extent > 0) {
      merge_window(s, gpu, pos, best_extent);
      reach = stage_reach(g, s, flat);
      latency = best_latency;
      ++r.merges_accepted;
    }
  }
  r.schedule = std::move(s);
  r.latency_ms = latency;
  return r;
}

void expect_same_result(const graph::Graph& g, const ParallelizeResult& want,
                        const ParallelizeResult& got) {
  EXPECT_EQ(want.schedule.to_json(g).dump(), got.schedule.to_json(g).dump());
  EXPECT_EQ(std::bit_cast<uint64_t>(want.latency_ms), std::bit_cast<uint64_t>(got.latency_ms));
  EXPECT_EQ(want.candidates_tried, got.candidates_tried);
  EXPECT_EQ(want.merges_accepted, got.merges_accepted);
}

TEST(Parallelize, MatchesDeepCopyGreedy) {
  std::mt19937_64 rng(0x6EEED);
  int merges = 0;
  for (int iter = 0; iter < 100; ++iter) {
    models::RandomDagParams p;
    p.num_ops = 12 + static_cast<int>(rng() % 40);
    p.num_layers = 3 + static_cast<int>(rng() % 6);
    p.num_deps = p.num_ops + static_cast<int>(rng() % (2 * p.num_ops));
    p.seed = rng();
    const graph::Graph g = models::random_dag(p);
    for (int m : {1, 2, 4}) {
      cost::TableCostModel cost;
      if (iter % 3 == 1)
        cost.set_speed_factors(std::vector<double>(static_cast<std::size_t>(m), 0.75));
      // Alternate Alg. 1's placement with a random one in topological order.
      Schedule input(m);
      if (iter % 2 == 0) {
        SchedulerConfig config;
        config.num_gpus = m;
        input = make_scheduler("inter-lp")->schedule(g, cost, config).schedule;
      } else {
        const auto topo = graph::topological_sort(g);
        for (graph::NodeId v : *topo)
          input.push_op(static_cast<int>(rng() % static_cast<uint64_t>(m)), v);
      }
      for (int w : {2, 3, 4}) {
        const ParallelizeResult want = deep_copy_greedy(g, input, cost, w);
        const ParallelizeResult got = parallelize(g, input, cost, w);
        expect_same_result(g, want, got);
        merges += got.merges_accepted;
        // A second pass over the greedy's own output.
        expect_same_result(g, deep_copy_greedy(g, want.schedule, cost, w),
                           parallelize(g, got.schedule, cost, w));
      }
    }
  }
  EXPECT_GT(merges, 500);
}

TEST(Parallelize, RetimesFarFewerStagesThanFullPasses) {
  // A deterministic stand-in for Alg. 2's wall clock: a full pass per
  // candidate times every alive stage. Stages only disappear during the
  // pass, so candidates x final stage count is a lower bound on that sum.
  models::RandomDagParams p;
  p.num_ops = 1024;
  p.num_deps = 2048;
  p.num_layers = 32;
  p.seed = 1;
  const graph::Graph g = models::random_dag(p);
  SchedulerConfig config;
  config.num_gpus = 4;
  const Schedule placed = make_scheduler("inter-lp")->schedule(g, kCost, config).schedule;
  const ParallelizeResult r = parallelize(g, placed, kCost, config.window);
  std::size_t stages = 0;
  for (const auto& gpu : r.schedule.gpus) stages += gpu.size();
  ASSERT_GT(r.candidates_tried, 500);
  const double full_passes = static_cast<double>(r.candidates_tried) * static_cast<double>(stages);
  EXPECT_LE(static_cast<double>(r.stages_retimed), 0.35 * full_passes)
      << "ratio " << static_cast<double>(r.stages_retimed) / full_passes;
}

TEST(Parallelize, IndependenceSearchStaysLocal) {
  // The window test searches data successors only up to the other stage's
  // committed rank, so it expands about one stage per candidate; a search
  // without that cut-off walks hundreds per candidate on this DAG.
  models::RandomDagParams p;
  p.num_ops = 1024;
  p.num_deps = 2048;
  p.num_layers = 32;
  p.seed = 1;
  const graph::Graph g = models::random_dag(p);
  SchedulerConfig config;
  config.num_gpus = 4;
  const Schedule placed = make_scheduler("inter-lp")->schedule(g, kCost, config).schedule;
  const ParallelizeResult r = parallelize(g, placed, kCost, config.window);
  ASSERT_GT(r.candidates_tried, 500);
  EXPECT_LE(r.stages_searched, 2u * static_cast<std::size_t>(r.candidates_tried))
      << "stages per candidate "
      << static_cast<double>(r.stages_searched) / static_cast<double>(r.candidates_tried);
}

}  // namespace
}  // namespace hios::sched
