// Randomized equivalence suite for the incremental scheduling core.
//
// The core's contract is *exact* equivalence: ScheduleState /
// ListScheduleState / StageTimeCache must produce bit-identical numbers to
// the independent implementations in tests/oracles/ (evaluate_schedule,
// evaluate_partial_schedule, list_schedule) and the inner cost model — the
// recurrences use only max and + over the same operands in the same order,
// so no tolerance is needed or used. Across the suites below, well over
// 200 randomized DAG / schedule / merge cases are exercised, including
// deadlock (nullopt) parity on adversarially permuted per-GPU orders.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include "cost/stage_cache.h"
#include "cost/table_model.h"
#include "graph/algorithms.h"
#include "graph/compiled_graph.h"
#include "graph/longest_path.h"
#include "models/random_dag.h"
#include "oracles/oracles.h"
#include "sched/core/list_state.h"
#include "sched/core/schedule_state.h"
#include "sched/schedule.h"

namespace hios::sched {
namespace {

graph::Graph make_dag(std::mt19937_64& rng) {
  models::RandomDagParams p;
  p.num_ops = 12 + static_cast<int>(rng() % 52);
  p.num_layers = 3 + static_cast<int>(rng() % 6);
  p.num_deps = p.num_ops + static_cast<int>(rng() % (2 * p.num_ops));
  p.seed = rng();
  return models::random_dag(p);
}

struct ScheduleOpts {
  double group_prob = 0.4;  ///< chance to co-schedule with the previous stage
  double drop_prob = 0.0;   ///< chance to leave a node unscheduled
  bool shuffle = false;     ///< randomly permute per-GPU stage order
};

/// Builds a random schedule: nodes visit GPUs in topological order, adjacent
/// independent nodes sometimes share a stage. With `shuffle`, per-GPU stage
/// lists are permuted, which frequently creates execution-order deadlocks —
/// exactly the inputs both evaluators must agree to reject.
Schedule random_schedule(const graph::Graph& g, const std::vector<DynBitset>& reach, int m,
                         std::mt19937_64& rng, const ScheduleOpts& opts) {
  const auto topo = graph::topological_sort(g);
  EXPECT_TRUE(topo.has_value());
  Schedule s(m);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (graph::NodeId v : *topo) {
    if (coin(rng) < opts.drop_prob) continue;
    auto& stages = s.gpus[rng() % static_cast<uint64_t>(m)];
    if (!stages.empty() && stages.back().ops.size() < 4 && coin(rng) < opts.group_prob) {
      bool ok = true;
      for (graph::NodeId u : stages.back().ops) ok = ok && oracle::independent(reach, u, v);
      if (ok) {
        stages.back().ops.push_back(v);
        continue;
      }
    }
    stages.push_back(Stage{{v}});
  }
  if (opts.shuffle) {
    // A handful of adjacent swaps, not a full shuffle: some permuted
    // schedules must stay feasible for the parity test to see both sides.
    for (auto& stages : s.gpus) {
      if (stages.size() < 2) continue;
      const int swaps = static_cast<int>(rng() % 3);
      for (int k = 0; k < swaps; ++k) {
        const std::size_t i = rng() % (stages.size() - 1);
        std::swap(stages[i], stages[i + 1]);
      }
    }
  }
  return s;
}

/// Occasionally decorate the model with speed factors / a topology so the
/// hoisted per-edge transfer and per-stage t(S) paths see them too.
void maybe_decorate(cost::TableCostModel& cost, int m, std::mt19937_64& rng) {
  if (rng() % 3 == 0) {
    std::vector<double> speeds;
    for (int i = 0; i < m; ++i) speeds.push_back(0.5 + 0.25 * static_cast<double>(rng() % 7));
    cost.set_speed_factors(std::move(speeds));
  }
  if (rng() % 3 == 0)
    cost.set_topology(cost::Topology::hierarchical(m, 2, cost::LinkClass{2.5, 0.05}));
}

void expect_eval_equal(const std::optional<Evaluation>& ref,
                       const std::optional<Evaluation>& inc) {
  ASSERT_EQ(ref.has_value(), inc.has_value());
  if (!ref.has_value()) return;
  EXPECT_EQ(ref->latency_ms, inc->latency_ms);  // bit-identical, no tolerance
  ASSERT_EQ(ref->stages.size(), inc->stages.size());
  for (std::size_t i = 0; i < ref->stages.size(); ++i) {
    EXPECT_EQ(ref->stages[i].gpu, inc->stages[i].gpu);
    EXPECT_EQ(ref->stages[i].index, inc->stages[i].index);
    EXPECT_EQ(ref->stages[i].start, inc->stages[i].start);
    EXPECT_EQ(ref->stages[i].finish, inc->stages[i].finish);
  }
  EXPECT_EQ(ref->stage_of, inc->stage_of);
}

TEST(SchedCore, EvaluateMatchesReferenceExactly) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int iter = 0; iter < 120; ++iter) {
    const graph::Graph g = make_dag(rng);
    const int m = 1 + static_cast<int>(rng() % 4);
    cost::TableCostModel cost;
    maybe_decorate(cost, m, rng);
    const auto reach = oracle::reachability(g);
    const Schedule s = random_schedule(g, reach, m, rng, {});

    const graph::CompiledGraph cg(g);
    ScheduleState state(cg, cost);
    state.load(s);
    expect_eval_equal(oracle::evaluate_schedule(g, s, cost), state.evaluate());
  }
}

TEST(SchedCore, DeadlockParityOnPermutedOrders) {
  std::mt19937_64 rng(0xDEAD);
  int deadlocks = 0, feasible = 0;
  for (int iter = 0; iter < 80; ++iter) {
    const graph::Graph g = make_dag(rng);
    const int m = 1 + static_cast<int>(rng() % 4);
    const cost::TableCostModel cost;
    const auto reach = oracle::reachability(g);
    ScheduleOpts opts;
    opts.shuffle = true;
    const Schedule s = random_schedule(g, reach, m, rng, opts);

    const graph::CompiledGraph cg(g);
    ScheduleState state(cg, cost);
    state.load(s);
    const auto ref = oracle::evaluate_schedule(g, s, cost);
    expect_eval_equal(ref, state.evaluate());
    (ref.has_value() ? feasible : deadlocks) += 1;
  }
  // The permutation must actually exercise both outcomes.
  EXPECT_GT(deadlocks, 0);
  EXPECT_GT(feasible, 0);
}

TEST(SchedCore, PartialSchedulesMatchPartialEvaluator) {
  std::mt19937_64 rng(0xBEEF);
  for (int iter = 0; iter < 60; ++iter) {
    const graph::Graph g = make_dag(rng);
    const int m = 1 + static_cast<int>(rng() % 4);
    cost::TableCostModel cost;
    maybe_decorate(cost, m, rng);
    const auto reach = oracle::reachability(g);
    ScheduleOpts opts;
    opts.drop_prob = 0.3;
    const Schedule s = random_schedule(g, reach, m, rng, opts);

    const graph::CompiledGraph cg(g);
    ScheduleState state(cg, cost);
    state.load(s);
    expect_eval_equal(oracle::evaluate_partial_schedule(g, s, cost), state.evaluate());
  }
}

/// Reference scoring of a merge candidate: deep-copy the schedule, splice
/// the window by hand, evaluate from scratch — exactly what parallelize()
/// did before the incremental core.
std::optional<double> deep_copy_merge_latency(const graph::Graph& g, Schedule s, int gpu,
                                              int pos, int extent,
                                              const cost::CostModel& cost) {
  auto& stages = s.gpus[static_cast<std::size_t>(gpu)];
  for (int k = 1; k <= extent; ++k) {
    auto& dst = stages[static_cast<std::size_t>(pos)].ops;
    const auto& src = stages[static_cast<std::size_t>(pos + k)].ops;
    dst.insert(dst.end(), src.begin(), src.end());
  }
  stages.erase(stages.begin() + pos + 1, stages.begin() + pos + 1 + extent);
  const auto eval = oracle::evaluate_schedule(g, s, cost);
  if (!eval.has_value()) return std::nullopt;
  return eval->latency_ms;
}

/// The stages at [pos, pos + extent] on `gpu`, as apply_merge() takes them.
struct Window {
  int gpu, pos, extent;
};

bool window_independent(const ScheduleState& state, int gpu, int pos, int extent) {
  for (int a = pos; a < pos + extent; ++a)
    for (int b = a + 1; b <= pos + extent; ++b)
      if (!state.stages_independent(state.stage_at(gpu, a), state.stage_at(gpu, b)))
        return false;
  return true;
}

/// A random window of 1-3 succeeding stages on a random GPU, or nullopt
/// when the drawn window does not fit or is not pairwise independent.
std::optional<Window> random_window(const ScheduleState& state, std::mt19937_64& rng) {
  const int gpu = static_cast<int>(rng() % static_cast<uint64_t>(state.num_gpus()));
  const int extent = 1 + static_cast<int>(rng() % 3);
  const int count = state.stage_count(gpu);
  if (count <= extent) return std::nullopt;
  const int pos = static_cast<int>(rng() % static_cast<uint64_t>(count - extent));
  if (!window_independent(state, gpu, pos, extent)) return std::nullopt;
  return Window{gpu, pos, extent};
}

TEST(SchedCore, MergeApplyEvaluateUndoMatchesDeepCopy) {
  std::mt19937_64 rng(0xAB1E);
  int candidates = 0, multi = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const graph::Graph g = make_dag(rng);
    const int m = 1 + static_cast<int>(rng() % 3);
    cost::TableCostModel cost;
    maybe_decorate(cost, m, rng);
    const auto reach = oracle::reachability(g);
    ScheduleOpts opts;
    // Every other DAG gets grouped stages; stages in topological order on
    // each GPU stay feasible either way.
    opts.group_prob = iter % 2 == 0 ? 0.0 : 0.4;
    const Schedule s = random_schedule(g, reach, m, rng, opts);

    const graph::CompiledGraph cg(g);
    ScheduleState state(cg, cost);
    state.load(s);
    const auto base = state.evaluate_latency();
    ASSERT_TRUE(base.has_value());

    for (int attempt = 0; attempt < 12; ++attempt) {
      const auto w = random_window(state, rng);
      if (!w.has_value()) continue;
      const auto [gpu, pos, extent] = *w;
      ++candidates;
      multi += extent > 1;

      state.apply_merge(gpu, pos, extent);
      const auto merged = state.evaluate_latency();
      state.undo_merge();

      const auto ref = deep_copy_merge_latency(g, s, gpu, pos, extent, cost);
      ASSERT_EQ(ref.has_value(), merged.has_value());
      if (ref.has_value()) {
        EXPECT_EQ(*ref, *merged);
      }

      // Undo restored the pre-apply state exactly.
      EXPECT_EQ(state.evaluate_latency(), base);
      const Schedule back = state.extract();
      ASSERT_EQ(back.gpus.size(), s.gpus.size());
      for (std::size_t i = 0; i < s.gpus.size(); ++i) {
        ASSERT_EQ(back.gpus[i].size(), s.gpus[i].size());
        for (std::size_t j = 0; j < s.gpus[i].size(); ++j)
          EXPECT_EQ(back.gpus[i][j].ops, s.gpus[i][j].ops);
      }
    }
  }
  EXPECT_GT(candidates, 50);  // the loop really scored merges
  EXPECT_GT(multi, 20);       // ... including windows of several stages
}

/// improves_on(b) holds a value iff the full evaluator does and that value
/// is below b; the value is bit-equal to the full one. Bounds: the
/// committed latency, the full value itself and the next double above it,
/// and +inf (last, so a commit that follows can reuse its propagation).
/// Returns the full evaluation.
std::optional<double> expect_improves_on_agrees(ScheduleState& state,
                                                std::optional<double> committed) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto full = state.evaluate_latency();
  std::vector<double> bounds;
  if (committed.has_value()) bounds.push_back(*committed);
  if (full.has_value()) {
    bounds.push_back(*full);
    bounds.push_back(std::nextafter(*full, inf));
  }
  bounds.push_back(inf);
  for (double bound : bounds) {
    const auto got = state.improves_on(bound);
    const bool want = full.has_value() && *full < bound;
    EXPECT_EQ(got.has_value(), want) << "bound " << bound;
    if (got.has_value() && want) {
      EXPECT_EQ(std::bit_cast<uint64_t>(*got), std::bit_cast<uint64_t>(*full));
    }
  }
  return full;
}

struct SweepCounts {
  int scored = 0;       ///< pending merges scored against a full evaluation
  int deadlocking = 0;  ///< of those, merges that close a cycle on a feasible state
  int better = 0;       ///< of those, merges below the committed latency
  int commits = 0;
};

/// For `iters` random DAGs (node weights set by `reweight`) and 1-4 GPUs:
/// scores every independent window of 1-3 succeeding stages with
/// improves_on() against the full evaluation, then commits a random window,
/// four rounds per DAG.
template <typename Reweight>
SweepCounts improves_on_sweep(std::mt19937_64& rng, int iters, Reweight reweight) {
  SweepCounts c;
  for (int iter = 0; iter < iters; ++iter) {
    graph::Graph g = make_dag(rng);
    reweight(g, rng);
    const int m = 1 + static_cast<int>(rng() % 4);
    cost::TableCostModel cost;
    maybe_decorate(cost, m, rng);
    const auto reach = oracle::reachability(g);
    ScheduleOpts opts;
    opts.shuffle = iter % 2 == 1;  // DeadlockParityOnPermutedOrders' orders
    const Schedule s = random_schedule(g, reach, m, rng, opts);

    const graph::CompiledGraph cg(g);
    ScheduleState state(cg, cost);
    state.load(s);
    std::optional<double> committed = state.evaluate_latency();

    for (int round = 0; round < 4; ++round) {
      for (int gpu = 0; gpu < m; ++gpu) {
        for (int pos = 0; pos + 1 < state.stage_count(gpu); ++pos) {
          for (int extent = 1; extent <= 3 && pos + extent < state.stage_count(gpu); ++extent) {
            if (!window_independent(state, gpu, pos, extent)) break;
            state.apply_merge(gpu, pos, extent);
            const auto full = expect_improves_on_agrees(state, committed);
            state.undo_merge();
            ++c.scored;
            if (committed.has_value()) {
              c.deadlocking += !full.has_value();
              c.better += full.has_value() && *full < *committed;
            }
          }
        }
      }

      // Commit a random window: unscored, or scored then undone and
      // re-applied (parallelize()'s sequence).
      std::optional<Window> w;
      for (int attempt = 0; attempt < 16 && !w.has_value(); ++attempt)
        w = random_window(state, rng);
      if (!w.has_value()) break;
      state.apply_merge(w->gpu, w->pos, w->extent);
      if (rng() % 2 == 0) {
        expect_improves_on_agrees(state, committed);
        state.undo_merge();
        state.apply_merge(w->gpu, w->pos, w->extent);
      }
      state.commit_merge();
      ++c.commits;
      committed = state.evaluate_latency();

      // The committed state equals a fresh load of what it extracts.
      ScheduleState fresh(cg, cost);
      fresh.load(state.extract());
      expect_eval_equal(fresh.evaluate(), state.evaluate());
    }
  }
  return c;
}

TEST(SchedCore, ImprovesOnMatchesFullEvaluation) {
  std::mt19937_64 rng(0x1A9A0);
  const SweepCounts c = improves_on_sweep(rng, 120, [](graph::Graph&, std::mt19937_64&) {});
  EXPECT_GT(c.scored, 2000);
  EXPECT_GT(c.deadlocking, 10);  // merges that close a cycle on a feasible state
  EXPECT_GT(c.better, 200);
  EXPECT_GT(c.commits, 200);
}

TEST(SchedCore, ImprovesOnMatchesFullEvaluationWhenRoundingAbsorbsMoves) {
  // One op per DAG takes 2^53 ms, where doubles lie 2 apart: its stage, and
  // every stage after it, adds millisecond times to 2^53-sized ones, so a
  // move of such a stage's ready time often leaves its finish bits unchanged.
  // The committed ready time must follow the move all the same, or a later
  // push filter reads a stale value (the case that
  // ImprovesOnTracksReadyTimesThatRoundingHides builds by hand).
  std::mt19937_64 rng(0xB1AADE5);
  const SweepCounts c = improves_on_sweep(rng, 120, [](graph::Graph& g, std::mt19937_64& r) {
    g.set_node_weight(static_cast<graph::NodeId>(r() % g.num_nodes()), 0x1p53);
  });
  EXPECT_GT(c.scored, 2000);
  EXPECT_GT(c.better, 20);
  EXPECT_GT(c.commits, 200);
}

/// t(S) is the longest member's t(v): members overlap perfectly, so a
/// merge can only shorten a stage.
class MaxWeightModel final : public cost::CostModel {
 public:
  double stage_time(const graph::Graph& g,
                    std::span<const graph::NodeId> stage) const override {
    double t = 0.0;
    for (graph::NodeId v : stage) t = std::max(t, g.node_weight(v));
    return t;
  }
  double demand(const graph::Graph&, graph::NodeId) const override { return 1.0; }
};

TEST(SchedCore, ImprovesOnTracksReadyTimesThatRoundingHides) {
  // Stage t (t(S) = 2^53, where doubles lie 2 apart) reads a (GPU 1) and
  // b (GPU 2). Merging a1 into a moves t's ready time from 1.5 to 1.25, but
  // 2^53 + 1.5 and 2^53 + 1.25 both round to 2^53 + 2, so t's finish keeps
  // its bits. Merging b0 and b1 then moves b's finish from 1.0 to 0.75, t's
  // ready time to 1.0 and its finish to 2^53. b is not merged, so only its
  // push reaches t; b was not t's latest input under the old ready time, so
  // a committed ready time left at 1.5 would never re-time t.
  graph::Graph g;
  const graph::NodeId a1 = g.add_node("a1", 0.5);
  const graph::NodeId a = g.add_node("a", 0.5);
  const graph::NodeId b0 = g.add_node("b0", 0.25);
  const graph::NodeId b1 = g.add_node("b1", 0.25);
  const graph::NodeId b = g.add_node("b", 0.5);
  const graph::NodeId t = g.add_node("t", 0x1p53);
  g.add_edge(a, t, 0.5);
  g.add_edge(b, t, 0.25);
  Schedule s(3);
  s.gpus[0] = {Stage{{t}}};
  s.gpus[1] = {Stage{{a1}}, Stage{{a}}};
  s.gpus[2] = {Stage{{b0}}, Stage{{b1}}, Stage{{b}}};
  const graph::CompiledGraph cg(g);
  const MaxWeightModel cost;
  for (const bool scored : {false, true}) {
    ScheduleState state(cg, cost);
    state.load(s);
    const std::optional<double> before = state.evaluate_latency();
    ASSERT_EQ(before, 0x1p53 + 2);
    state.apply_merge(1, 0, 1);
    if (scored) {
      EXPECT_EQ(state.improves_on(std::numeric_limits<double>::infinity()), before);
    }
    state.commit_merge();
    const std::optional<Evaluation> eval = state.evaluate();
    ASSERT_TRUE(eval.has_value());
    const StageTiming& ts = eval->stages[static_cast<std::size_t>(eval->stage_of[t])];
    EXPECT_EQ(ts.start, 1.25);         // the ready time moved ...
    EXPECT_EQ(ts.finish, 0x1p53 + 2);  // ... and the finish kept its bits
    state.apply_merge(2, 0, 1);
    EXPECT_EQ(expect_improves_on_agrees(state, before), 0x1p53) << "scored " << scored;
    state.undo_merge();
  }
}

TEST(SchedCore, CommittedReachMatchesFreshRebuild) {
  std::mt19937_64 rng(0xFACE);
  int commits = 0;
  for (int iter = 0; iter < 50; ++iter) {
    const graph::Graph g = make_dag(rng);
    const int m = 1 + static_cast<int>(rng() % 3);
    const cost::TableCostModel cost;
    const auto reach = oracle::reachability(g);
    const Schedule s = random_schedule(g, reach, m, rng, {});

    const graph::CompiledGraph cg(g);
    ScheduleState state(cg, cost);
    state.load(s);

    for (int round = 0; round < 4; ++round) {
      // Commit a random independent adjacent pair, if any.
      bool merged = false;
      for (int attempt = 0; attempt < 12 && !merged; ++attempt) {
        const int gpu = static_cast<int>(rng() % static_cast<uint64_t>(m));
        const int count = state.stage_count(gpu);
        if (count < 2) continue;
        const int pos = static_cast<int>(rng() % static_cast<uint64_t>(count - 1));
        if (!state.stages_independent(state.stage_at(gpu, pos), state.stage_at(gpu, pos + 1)))
          continue;
        state.apply_merge(gpu, pos, 1);
        state.commit_merge();
        merged = true;
        ++commits;
      }
      if (!merged) break;

      // Independence answered from the committed rank order must agree with
      // a from-scratch load of the extracted schedule, for every alive
      // stage pair.
      ScheduleState fresh(cg, cost);
      const Schedule cur = state.extract();
      fresh.load(cur);
      expect_eval_equal(fresh.evaluate(), state.evaluate());
      for (int ga = 0; ga < m; ++ga) {
        for (int pa = 0; pa < state.stage_count(ga); ++pa) {
          for (int gb = 0; gb < m; ++gb) {
            for (int pb = 0; pb < state.stage_count(gb); ++pb) {
              const int a = state.stage_at(ga, pa), b = state.stage_at(gb, pb);
              const int fa = fresh.stage_at(ga, pa), fb = fresh.stage_at(gb, pb);
              EXPECT_EQ(state.stages_independent(a, b), fresh.stages_independent(fa, fb))
                  << "pair (" << ga << "," << pa << ") x (" << gb << "," << pb << ")";
            }
          }
        }
      }
    }
  }
  EXPECT_GT(commits, 30);
}

/// Stage independence from scratch: data-edge reachability on the condensed
/// graph of `s`, stages numbered GPU-major. Nullopt when that graph is
/// cyclic, where every pair counts as dependent.
std::optional<std::vector<DynBitset>> condensed_reach(const graph::Graph& g, const Schedule& s) {
  graph::Graph condensed("stages");
  std::vector<int> stage_of(g.num_nodes(), -1);
  for (const auto& stages : s.gpus) {
    for (const Stage& stage : stages) {
      const int id = static_cast<int>(condensed.num_nodes());
      condensed.add_node(std::to_string(id));
      for (graph::NodeId v : stage.ops) stage_of[static_cast<std::size_t>(v)] = id;
    }
  }
  for (const graph::Edge& e : g.edges()) {
    const int a = stage_of[static_cast<std::size_t>(e.src)];
    const int b = stage_of[static_cast<std::size_t>(e.dst)];
    if (a >= 0 && b >= 0 && a != b && condensed.find_edge(a, b) < 0) condensed.add_edge(a, b);
  }
  if (!graph::is_dag(condensed)) return std::nullopt;
  return oracle::reachability(condensed);
}

/// Checks stages_independent() on every alive stage pair against
/// condensed_reach() of the extracted schedule. Returns the pairs checked.
int expect_independence_matches_oracle(const graph::Graph& g, const ScheduleState& state) {
  const auto reach = condensed_reach(g, state.extract());
  std::vector<int> ids;  // GPU-major, as condensed_reach() numbers them
  for (int gpu = 0; gpu < state.num_gpus(); ++gpu)
    for (int pos = 0; pos < state.stage_count(gpu); ++pos) ids.push_back(state.stage_at(gpu, pos));
  int pairs = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const bool want =
          reach.has_value() && oracle::independent(*reach, static_cast<graph::NodeId>(i),
                                                  static_cast<graph::NodeId>(j));
      EXPECT_EQ(state.stages_independent(ids[i], ids[j]), want) << "stages " << i << ", " << j;
      ++pairs;
    }
  }
  return pairs;
}

TEST(SchedCore, StagesIndependentMatchesCondensedReachability) {
  std::mt19937_64 rng(0x5EA4C);
  int pairs = 0, feasible = 0, deadlocked = 0, cyclic = 0, commits = 0;
  for (int iter = 0; iter < 150; ++iter) {
    const graph::Graph g = make_dag(rng);
    const int m = 1 + static_cast<int>(rng() % 4);
    const cost::TableCostModel cost;
    const auto reach = oracle::reachability(g);
    // Feasible, permuted-order (often chain-deadlocked), and heavily grouped
    // loads; grouping across GPUs can make the stage data graph cyclic.
    ScheduleOpts opts;
    opts.shuffle = iter % 3 == 1;
    opts.group_prob = iter % 3 == 2 ? 0.9 : 0.4;
    const Schedule s = random_schedule(g, reach, m, rng, opts);

    const graph::CompiledGraph cg(g);
    ScheduleState state(cg, cost);
    state.load(s);
    pairs += expect_independence_matches_oracle(g, state);  // before any evaluation
    if (!condensed_reach(g, s).has_value()) {
      ++cyclic;
      continue;
    }
    (state.evaluate_latency().has_value() ? feasible : deadlocked) += 1;
    pairs += expect_independence_matches_oracle(g, state);

    for (int round = 0; round < 5; ++round) {
      std::optional<Window> w;
      for (int attempt = 0; attempt < 16 && !w.has_value(); ++attempt)
        w = random_window(state, rng);
      if (!w.has_value()) break;
      state.apply_merge(w->gpu, w->pos, w->extent);
      state.commit_merge();
      ++commits;
      pairs += expect_independence_matches_oracle(g, state);
    }
  }
  EXPECT_GT(pairs, 200000);
  EXPECT_GT(feasible, 80);
  EXPECT_GT(deadlocked, 10);
  EXPECT_GT(cyclic, 10);
  EXPECT_GT(commits, 300);
}

TEST(SchedCore, ListStateMatchesFromScratchPass) {
  std::mt19937_64 rng(0x11157);
  for (int iter = 0; iter < 60; ++iter) {
    const graph::Graph g = make_dag(rng);
    const int m = 1 + static_cast<int>(rng() % 4);
    cost::TableCostModel cost;
    maybe_decorate(cost, m, rng);
    const graph::CompiledGraph cg(g);
    const std::vector<graph::NodeId>& order = cg.priority_order();

    ListScheduleState trial(cg, m, cost);
    std::vector<int> mapping(g.num_nodes(), -1);
    for (int round = 0; round < 6; ++round) {
      // Mutate a random batch: map, remap, and occasionally unmap nodes.
      const int batch = 1 + static_cast<int>(rng() % 8);
      for (int k = 0; k < batch; ++k) {
        const graph::NodeId v = static_cast<graph::NodeId>(rng() % g.num_nodes());
        const int gpu = (rng() % 8 == 0) ? -1 : static_cast<int>(rng() % static_cast<uint64_t>(m));
        mapping[static_cast<std::size_t>(v)] = gpu;
        trial.set_gpu(v, gpu);
      }
      const double incremental = trial.latency();
      const oracle::ListScheduleResult full = oracle::list_schedule(g, mapping, order, m, cost);
      EXPECT_EQ(full.latency_ms, incremental);  // bit-identical
      for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes()); ++v) {
        EXPECT_EQ(full.start[static_cast<std::size_t>(v)], trial.start(v));
        EXPECT_EQ(full.finish[static_cast<std::size_t>(v)], trial.finish(v));
      }
    }
  }
}

TEST(SchedCore, PlacePathMatchesSequentialTrials) {
  // place_path's fused m-lane walk against Alg. 1's sequential protocol on
  // a second state: the path set on GPUs 0..m-1 with a latency() after each,
  // then committed to the first lowest. Speed factors and topologies make
  // the lanes differ in node_time and transfer_time; remaps and unmaps
  // between paths leave dirty ranks before the next path, and m = 10 runs
  // the walk with a run-time lane count.
  std::mt19937_64 rng(0x91ACE);
  std::size_t paths = 0, moved = 0, remaps = 0, premapped = 0;
  for (const int m : {1, 2, 3, 4, 5, 8, 10}) {
    for (int iter = 0; iter < 25; ++iter) {
      const graph::Graph g = make_dag(rng);
      const std::size_t n = g.num_nodes();
      cost::TableCostModel cost;
      maybe_decorate(cost, m, rng);
      const graph::CompiledGraph cg(g);
      ListScheduleState fused(cg, m, cost);
      ListScheduleState trials(cg, m, cost);
      const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };

      graph::ValidPathFinder finder(g, cg.topo_order(), DynBitset(n));
      while (auto path = finder.next()) {
        // Sometimes a path node is mapped already; placing the path moves it.
        if (rng() % 4 == 0) {
          const graph::NodeId v = path->nodes[rng() % path->nodes.size()];
          const int gpu = static_cast<int>(rng() % static_cast<uint64_t>(m));
          fused.set_gpu(v, gpu);
          trials.set_gpu(v, gpu);
          ++premapped;
        }
        int best_gpu = 0;
        double best_latency = 0.0;
        for (int gpu = 0; gpu < m; ++gpu) {
          for (graph::NodeId v : path->nodes) trials.set_gpu(v, gpu);
          const double latency = trials.latency();
          if (gpu == 0 || latency < best_latency) {
            best_latency = latency;
            best_gpu = gpu;
          }
        }
        for (graph::NodeId v : path->nodes) trials.set_gpu(v, best_gpu);
        const std::size_t walks = fused.walks();
        const ListScheduleState::Placement placed = fused.place_path(path->nodes);
        ++paths;
        moved += best_gpu != 0;
        ASSERT_EQ(fused.walks(), walks + 1);
        ASSERT_EQ(placed.gpu, best_gpu) << "m " << m << ", dag " << iter;
        ASSERT_EQ(bits(placed.latency), bits(best_latency));
        ASSERT_EQ(bits(trials.latency()), bits(best_latency));
        ASSERT_EQ(fused.mapping(), trials.mapping());
        for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(n); ++v) {
          ASSERT_EQ(bits(fused.start(v)), bits(trials.start(v))) << "node " << v;
          ASSERT_EQ(bits(fused.finish(v)), bits(trials.finish(v))) << "node " << v;
        }
        // Move or unmap a placed node on both states; sometimes settle it
        // with a latency() (a one-lane walk) before the next path.
        const auto v = static_cast<graph::NodeId>(rng() % n);
        if (rng() % 3 == 0 && fused.mapping()[static_cast<std::size_t>(v)] >= 0) {
          const int gpu = static_cast<int>(rng() % static_cast<uint64_t>(m + 1)) - 1;
          fused.set_gpu(v, gpu);
          trials.set_gpu(v, gpu);
          ++remaps;
          if (rng() % 2 == 0) {
            ASSERT_EQ(bits(fused.latency()), bits(trials.latency()));
          }
        }
      }
      EXPECT_EQ(fused.schedule().to_json(g).dump(), trials.schedule().to_json(g).dump());
    }
  }
  EXPECT_GT(paths, 2500u);
  EXPECT_GT(moved, 1000u);
  EXPECT_GT(remaps, 500u);
  EXPECT_GT(premapped, 500u);
}

TEST(SchedCore, ListStateMatchesAlg1TrialSequence) {
  // Alg. 1's access pattern: each longest valid path is tried on GPUs
  // 0..m-1 and committed to one of them; unmaps and remaps are interleaved,
  // so mapped ranks appear and disappear on both sides of the dirty rank.
  std::mt19937_64 rng(0xA1617);
  std::size_t checks = 0, unmaps = 0;
  for (int iter = 0; iter < 80; ++iter) {
    const graph::Graph g = make_dag(rng);
    const std::size_t n = g.num_nodes();
    const int m = 1 + static_cast<int>(rng() % 4);
    cost::TableCostModel cost;
    maybe_decorate(cost, m, rng);
    const graph::CompiledGraph cg(g);
    const std::vector<graph::NodeId>& order = cg.priority_order();

    ListScheduleState trial(cg, m, cost);
    std::vector<int> mapping(n, -1);
    const auto check = [&] {
      const double incremental = trial.latency();
      const oracle::ListScheduleResult full = oracle::list_schedule(g, mapping, order, m, cost);
      ++checks;
      ASSERT_EQ(std::bit_cast<uint64_t>(full.latency_ms), std::bit_cast<uint64_t>(incremental));
      for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(n); ++v) {
        ASSERT_EQ(std::bit_cast<uint64_t>(full.start[static_cast<std::size_t>(v)]),
                  std::bit_cast<uint64_t>(trial.start(v)))
            << "node " << v;
        ASSERT_EQ(std::bit_cast<uint64_t>(full.finish[static_cast<std::size_t>(v)]),
                  std::bit_cast<uint64_t>(trial.finish(v)))
            << "node " << v;
      }
      EXPECT_EQ(trial.mapping(), mapping);
      EXPECT_EQ(trial.schedule().to_json(g).dump(), full.schedule.to_json(g).dump());
    };
    const auto set = [&](graph::NodeId v, int gpu) {
      mapping[static_cast<std::size_t>(v)] = gpu;
      trial.set_gpu(v, gpu);
    };

    graph::ValidPathFinder finder(g, cg.topo_order(), DynBitset(n));
    while (auto path = finder.next()) {
      for (int gpu = 0; gpu < m; ++gpu) {
        for (graph::NodeId v : path->nodes) set(v, gpu);
        check();
      }
      const int commit = static_cast<int>(rng() % static_cast<uint64_t>(m));
      for (graph::NodeId v : path->nodes) set(v, commit);
      if (rng() % 3 == 0) check();
      // Unmap a few mapped nodes, or map some of them back elsewhere.
      if (rng() % 3 == 0) {
        const int k = 1 + static_cast<int>(rng() % 3);
        for (int j = 0; j < k; ++j) {
          const auto v = static_cast<graph::NodeId>(rng() % n);
          if (mapping[static_cast<std::size_t>(v)] < 0) {
            set(v, static_cast<int>(rng() % static_cast<uint64_t>(m)));
          } else {
            set(v, -1);
            ++unmaps;
          }
        }
        check();
      }
    }
  }
  EXPECT_GT(checks, 2000u);
  EXPECT_GT(unmaps, 200u);
}

TEST(SchedCore, StageTimeCacheBitEqualToInner) {
  std::mt19937_64 rng(0xCAC4E);
  for (int iter = 0; iter < 40; ++iter) {
    const graph::Graph g = make_dag(rng);
    const int m = 1 + static_cast<int>(rng() % 4);
    cost::TableCostModel inner;
    maybe_decorate(inner, m, rng);
    const cost::StageTimeCache cached(inner);

    for (int q = 0; q < 20; ++q) {
      std::vector<graph::NodeId> stage;
      const int len = 1 + static_cast<int>(rng() % 4);
      for (int k = 0; k < len; ++k)
        stage.push_back(static_cast<graph::NodeId>(rng() % g.num_nodes()));
      const int gpu = static_cast<int>(rng() % static_cast<uint64_t>(m));
      EXPECT_EQ(inner.stage_time(g, stage), cached.stage_time(g, stage));
      EXPECT_EQ(inner.stage_time(g, stage), cached.stage_time(g, stage));  // hit path
      EXPECT_EQ(inner.stage_time_on(g, stage, gpu), cached.stage_time_on(g, stage, gpu));
      EXPECT_EQ(inner.node_time(g, stage[0], gpu), cached.node_time(g, stage[0], gpu));
      EXPECT_EQ(inner.demand(g, stage[0]), cached.demand(g, stage[0]));
    }
    for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.num_edges()); ++e) {
      const int a = static_cast<int>(rng() % static_cast<uint64_t>(m));
      const int b = static_cast<int>(rng() % static_cast<uint64_t>(m));
      EXPECT_EQ(inner.transfer_time(g, e, a, b), cached.transfer_time(g, e, a, b));
    }
    EXPECT_GT(cached.hits(), 0u);
  }
}

}  // namespace
}  // namespace hios::sched
