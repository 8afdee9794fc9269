// Tests for HIOS-LP (Alg. 1 + Alg. 2) and its inter-GPU-only ablation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>

#include "cost/table_model.h"
#include "graph/algorithms.h"
#include "graph/longest_path.h"
#include "models/examples.h"
#include "models/random_dag.h"
#include "oracles/oracles.h"
#include "sched/evaluate.h"
#include "sched/hios_lp.h"
#include "sched/parallelize.h"
#include "sched/scheduler.h"
#include "sched/validate.h"

namespace hios::sched {
namespace {

const cost::TableCostModel kCost;

SchedulerConfig gpus(int m) {
  SchedulerConfig c;
  c.num_gpus = m;
  return c;
}

TEST(HiosLp, ValidOnFig4) {
  const graph::Graph g = models::make_fig4_graph();
  const auto r = make_scheduler("hios-lp")->schedule(g, kCost, gpus(2));
  check_schedule(g, r.schedule);
  EXPECT_EQ(r.schedule.num_gpus, 2);
  EXPECT_EQ(r.schedule.num_ops(), 8u);
}

TEST(HiosLp, SingleGpuEqualsListScheduleOrder) {
  // With M = 1 every path lands on GPU 0 and latency = sum of weights.
  const graph::Graph g = models::make_fig4_graph();
  const auto r = make_scheduler("inter-lp")->schedule(g, kCost, gpus(1));
  EXPECT_DOUBLE_EQ(r.latency_ms, g.total_node_weight());
}

TEST(HiosLp, TwinChainsSplitAcrossGpus) {
  // Two independent heavy chains with cheap transfers: the second-longest
  // path must land on the other GPU, roughly halving latency.
  const graph::Graph g = models::make_twin_chains(6, 2.0, 0.1);
  const auto seq = make_scheduler("sequential")->schedule(g, kCost, gpus(2));
  const auto lp = make_scheduler("hios-lp")->schedule(g, kCost, gpus(2));
  check_schedule(g, lp.schedule);
  EXPECT_LT(lp.latency_ms, 0.62 * seq.latency_ms);
  // Both chains fully on one GPU each (no pointless splitting).
  const auto gpu_of = lp.schedule.gpu_assignment(g.num_nodes());
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes()); ++v) {
    if (g.node_name(v)[0] == 'a') {
      EXPECT_EQ(gpu_of[static_cast<std::size_t>(v)], gpu_of[0]);
    }
  }
}

TEST(HiosLp, PathColocationAvoidsTransfers) {
  // A chain with huge transfer costs must stay on one GPU.
  const graph::Graph g = models::make_chain(6, 1.0, 10.0);
  const auto r = make_scheduler("hios-lp")->schedule(g, kCost, gpus(4));
  const auto gpu_of = r.schedule.gpu_assignment(g.num_nodes());
  for (std::size_t v = 1; v < g.num_nodes(); ++v) EXPECT_EQ(gpu_of[v], gpu_of[0]);
  EXPECT_DOUBLE_EQ(r.latency_ms, 6.0);
}

TEST(HiosLp, NeverWorseThanSequentialOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    models::RandomDagParams p;
    p.num_ops = 50;
    p.num_layers = 7;
    p.num_deps = 100;
    p.seed = seed;
    const graph::Graph g = models::random_dag(p);
    const auto seq = make_scheduler("sequential")->schedule(g, kCost, gpus(4));
    const auto lp = make_scheduler("hios-lp")->schedule(g, kCost, gpus(4));
    check_schedule(g, lp.schedule);
    EXPECT_LE(lp.latency_ms, seq.latency_ms + 1e-9) << seed;
    EXPECT_GE(lp.latency_ms, graph::critical_path_length(g, false) - 1e-9) << seed;
  }
}

TEST(HiosLp, IntraPassOnlyImproves) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    models::RandomDagParams p;
    p.num_ops = 40;
    p.num_layers = 6;
    p.num_deps = 80;
    p.seed = seed;
    const graph::Graph g = models::random_dag(p);
    const auto inter = make_scheduler("inter-lp")->schedule(g, kCost, gpus(3));
    const auto full = make_scheduler("hios-lp")->schedule(g, kCost, gpus(3));
    EXPECT_LE(full.latency_ms, inter.latency_ms + 1e-9) << seed;
    // Same GPU mapping (the intra pass only groups, never remaps).
    EXPECT_EQ(full.schedule.gpu_assignment(g.num_nodes()),
              inter.schedule.gpu_assignment(g.num_nodes()))
        << seed;
  }
}

TEST(HiosLp, NearOptimalOnTinyGraphs) {
  // Within 25% of the exhaustive inter-GPU optimum on 6-node graphs
  // (HIOS-LP is a heuristic; the paper claims near-optimality, not
  // optimality).
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    models::RandomDagParams p;
    p.num_ops = 6;
    p.num_layers = 3;
    p.num_deps = 8;
    p.seed = seed;
    const graph::Graph g = models::random_dag(p);
    const auto lp = make_scheduler("inter-lp")->schedule(g, kCost, gpus(2));
    const double oracle = oracle::optimal_inter_gpu_latency(g, kCost, 2);
    EXPECT_LE(lp.latency_ms, 1.25 * oracle + 1e-9) << seed;
    EXPECT_GE(lp.latency_ms, oracle - 1e-9) << seed;
  }
}

TEST(HiosLp, NearOptimalOnForkJoinTwoGpus) {
  // HIOS-LP commits the sink to GPU 0 together with the first extracted
  // path; the true optimum co-locates the sink with the slower branch
  // (3.1 vs 3.2 here). The heuristic must stay within a few percent.
  const graph::Graph g = models::make_fork_join(2, 2.0, 0.1, 0.5);
  const auto lp = make_scheduler("inter-lp")->schedule(g, kCost, gpus(2));
  const double oracle = oracle::optimal_inter_gpu_latency(g, kCost, 2);
  EXPECT_GE(lp.latency_ms, oracle - 1e-9);
  EXPECT_LE(lp.latency_ms, 1.05 * oracle);
}

TEST(HiosLp, DeterministicAcrossRuns) {
  models::RandomDagParams p;
  p.num_ops = 45;
  p.num_layers = 6;
  p.num_deps = 90;
  p.seed = 17;
  const graph::Graph g = models::random_dag(p);
  const auto a = make_scheduler("hios-lp")->schedule(g, kCost, gpus(3));
  const auto b = make_scheduler("hios-lp")->schedule(g, kCost, gpus(3));
  EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.schedule.gpu_assignment(g.num_nodes()),
            b.schedule.gpu_assignment(g.num_nodes()));
}

TEST(HiosLp, MoreGpusNeverHurtMuch) {
  // Latency with M=4 must not exceed latency with M=2 (the mapper may
  // always ignore extra GPUs; small tolerance for heuristic tie breaks).
  models::RandomDagParams p;
  p.num_ops = 60;
  p.num_layers = 8;
  p.num_deps = 120;
  p.seed = 23;
  const graph::Graph g = models::random_dag(p);
  const auto m2 = make_scheduler("hios-lp")->schedule(g, kCost, gpus(2));
  const auto m4 = make_scheduler("hios-lp")->schedule(g, kCost, gpus(4));
  EXPECT_LE(m4.latency_ms, 1.10 * m2.latency_ms);
}

TEST(HiosLp, SingleNodeGraph) {
  graph::Graph g;
  g.add_node("only", 2.0);
  const auto r = make_scheduler("hios-lp")->schedule(g, kCost, gpus(4));
  check_schedule(g, r.schedule);
  EXPECT_DOUBLE_EQ(r.latency_ms, 2.0);
}

TEST(HiosLp, RejectsZeroGpus) {
  const graph::Graph g = models::make_chain(2);
  EXPECT_THROW(make_scheduler("hios-lp")->schedule(g, kCost, gpus(0)), Error);
}

TEST(HiosLp, PlacedScheduleMatchesListSchedule) {
  // Alg. 1 builds its placed schedule from the list-scheduling state's own
  // per-GPU rank order; the reference pass over the final mapping must
  // place exactly the same ops in the same order.
  std::mt19937_64 rng(0x91ACE);
  for (int iter = 0; iter < 100; ++iter) {
    models::RandomDagParams p;
    p.num_ops = 10 + static_cast<int>(rng() % 150);
    p.num_layers = 2 + static_cast<int>(rng() % 8);
    p.num_deps = p.num_ops + static_cast<int>(rng() % (2 * p.num_ops));
    p.seed = rng();
    const graph::Graph g = models::random_dag(p);
    const graph::CompiledGraph cg(g);
    for (int m : {1, 2, 4}) {
      const LongestPathMapping placed = longest_path_mapping(cg, m, kCost);
      const std::vector<int> mapping = placed.schedule.gpu_assignment(g.num_nodes());
      for (int gpu : mapping) ASSERT_GE(gpu, 0);
      const oracle::ListScheduleResult ref =
          oracle::list_schedule(g, mapping, cg.priority_order(), m, kCost);
      EXPECT_EQ(placed.schedule.to_json(g).dump(), ref.schedule.to_json(g).dump())
          << "dag " << iter << ", " << m << " GPUs";
    }
  }
}

TEST(HiosLp, InterOnlyLatencyMatchesReferenceEvaluation) {
  // inter-lp reports Alg. 1's last winning trial latency instead of
  // re-evaluating the placed schedule: that trial timed exactly the final
  // mapping, so it must equal the from-scratch evaluation bit for bit, on
  // symmetric machines, with per-GPU speed factors and with a topology.
  std::mt19937_64 rng(0x1A7E);
  for (int iter = 0; iter < 60; ++iter) {
    models::RandomDagParams p;
    p.num_ops = 10 + static_cast<int>(rng() % 120);
    p.num_layers = 2 + static_cast<int>(rng() % 8);
    p.num_deps = p.num_ops + static_cast<int>(rng() % (2 * p.num_ops));
    p.seed = rng();
    const graph::Graph g = models::random_dag(p);
    const graph::CompiledGraph cg(g);
    for (int m = 1; m <= 4; ++m) {
      cost::TableCostModel cost;
      if (iter % 4 == 1 || iter % 4 == 3) {
        std::vector<double> speeds;
        for (int i = 0; i < m; ++i) speeds.push_back(0.5 + 0.25 * static_cast<double>(rng() % 7));
        cost.set_speed_factors(std::move(speeds));
      }
      if (iter % 4 >= 2)
        cost.set_topology(cost::Topology::hierarchical(m, 2, cost::LinkClass{2.5, 0.05}));
      const LongestPathMapping placed = longest_path_mapping(cg, m, cost);
      const auto ref = oracle::evaluate_schedule(g, placed.schedule, cost);
      ASSERT_TRUE(ref.has_value()) << "dag " << iter << ", " << m << " GPUs";
      EXPECT_EQ(std::bit_cast<uint64_t>(placed.latency_ms), std::bit_cast<uint64_t>(ref->latency_ms))
          << "dag " << iter << ", " << m << " GPUs: " << placed.latency_ms << " vs "
          << ref->latency_ms;
      const ScheduleResult inter = make_scheduler("inter-lp")->schedule(g, cost, gpus(m));
      EXPECT_EQ(inter.schedule.to_json(g).dump(), placed.schedule.to_json(g).dump());
      EXPECT_EQ(std::bit_cast<uint64_t>(inter.latency_ms), std::bit_cast<uint64_t>(ref->latency_ms))
          << "dag " << iter << ", " << m << " GPUs";
    }
  }
}

TEST(HiosLp, Alg1WalksFarFewerPositionsThanFullPasses) {
  // Deterministic stand-ins for Alg. 1's wall clock on the DAG of
  // Parallelize.RetimesFarFewerStagesThanFullPasses. A from-scratch path
  // extraction walks every unscheduled position (0.30 of paths x n here),
  // a rerun from the earliest touched position ~0.19, and the finder's
  // change propagation ~0.013. Each path is placed on all GPUs in one walk and
  // committed without another: per-GPU trials walk m times per path, plus
  // once more to commit whenever the best GPU was not the last one tried.
  // A walk re-times only the mapped ranks of its suffix (~0.56 of a walk
  // over every rank from the path's first).
  models::RandomDagParams p;
  p.num_ops = 1024;
  p.num_deps = 2048;
  p.num_layers = 32;
  p.seed = 1;
  const graph::Graph g = models::random_dag(p);
  const graph::CompiledGraph cg(g);
  const LongestPathMapping r = longest_path_mapping(cg, 4, kCost);
  ASSERT_GT(r.paths, 200u);
  const double full_dp = static_cast<double>(r.paths) * static_cast<double>(g.num_nodes());
  EXPECT_LE(static_cast<double>(r.positions_visited), 0.02 * full_dp)
      << "ratio " << static_cast<double>(r.positions_visited) / full_dp;
  EXPECT_EQ(r.walks, r.paths);
  std::size_t suffix = 0;  // ranks from each path's first priority rank to the end
  graph::ValidPathFinder finder(g, cg.topo_order(), DynBitset(g.num_nodes()));
  while (auto path = finder.next()) {
    graph::NodeId first = path->nodes.front();
    for (graph::NodeId v : path->nodes)
      if (cg.rank(v) < cg.rank(first)) first = v;
    suffix += g.num_nodes() - static_cast<std::size_t>(cg.rank(first));
  }
  EXPECT_LE(static_cast<double>(r.ranks_walked), 0.75 * static_cast<double>(suffix))
      << "ratio " << static_cast<double>(r.ranks_walked) / static_cast<double>(suffix);
}

TEST(HiosLp, Fig14RegressionDagOutcomesAndWorkCeilings) {
  // The 512-op / 4-GPU DAG of bench_fig14_sched_cost's wall-clock check,
  // gated on machine-independent numbers: Alg. 2's outcome is pinned
  // exactly, and each work counter may not rise above its current value.
  models::RandomDagParams p;
  p.num_ops = 512;
  p.num_layers = 22;
  p.num_deps = 1024;
  p.seed = 7;
  const graph::Graph g = models::random_dag(p);
  const SchedulerConfig config = gpus(4);
  const LongestPathMapping alg1 = longest_path_mapping(graph::CompiledGraph(g), 4, kCost);
  const ParallelizeResult alg2 =
      parallelize(g, alg1.schedule, kCost, std::min(config.window, config.max_streams));
  EXPECT_EQ(alg2.candidates_tried, 443);
  EXPECT_EQ(alg2.latency_ms, 265.17012949472746);
  EXPECT_EQ(make_scheduler("hios-lp")->schedule(g, kCost, config).latency_ms,
            265.17012949472746);
  EXPECT_LE(alg1.positions_visited, 2459u);
  EXPECT_EQ(alg1.walks, alg1.paths);
  EXPECT_LE(alg1.ranks_walked, 34267u);
  EXPECT_LE(alg2.stages_retimed, 14649u);
  EXPECT_LE(alg2.stages_searched, 475u);
}

}  // namespace
}  // namespace hios::sched
