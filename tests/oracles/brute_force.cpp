// Exhaustive-search oracles (exponential — tiny graphs only).
#include <algorithm>
#include <limits>
#include <unordered_map>

#include "graph/compiled_graph.h"
#include "oracles/oracles.h"
#include "sched/core/schedule_state.h"
#include "util/bitset.h"

namespace hios::oracle {

namespace {

double single_gpu_recurse(const graph::Graph& g, const cost::CostModel& cost,
                          int max_stage_ops, const DynBitset& done,
                          const std::vector<DynBitset>& preds,
                          std::unordered_map<DynBitset, double, DynBitsetHash>& memo) {
  const std::size_t n = g.num_nodes();
  if (done.count() == n) return 0.0;
  if (auto it = memo.find(done); it != memo.end()) return it->second;

  std::vector<graph::NodeId> ready;
  for (std::size_t v = 0; v < n; ++v) {
    if (!done.test(v) && done.contains_all(preds[v])) ready.push_back(static_cast<graph::NodeId>(v));
  }
  double best = std::numeric_limits<double>::infinity();
  std::vector<graph::NodeId> stage;
  auto recurse = [&](auto&& self, std::size_t from) -> void {
    if (!stage.empty()) {
      DynBitset next = done;
      for (graph::NodeId v : stage) next.set(static_cast<std::size_t>(v));
      const double tail = single_gpu_recurse(g, cost, max_stage_ops, next, preds, memo);
      best = std::min(best,
                      cost.stage_time(g, std::span<const graph::NodeId>(stage)) + tail);
    }
    if (stage.size() >= static_cast<std::size_t>(max_stage_ops)) return;
    for (std::size_t i = from; i < ready.size(); ++i) {
      stage.push_back(ready[i]);
      self(self, i + 1);
      stage.pop_back();
    }
  };
  recurse(recurse, 0);
  memo.emplace(done, best);
  return best;
}

}  // namespace

double optimal_single_gpu_latency(const graph::Graph& g, const cost::CostModel& cost,
                                  int max_stage_ops) {
  HIOS_CHECK(g.num_nodes() <= 24, "optimal_single_gpu_latency: graph too large");
  const std::size_t n = g.num_nodes();
  std::vector<DynBitset> preds(n, DynBitset(n));
  for (const graph::Edge& e : g.edges())
    preds[static_cast<std::size_t>(e.dst)].set(static_cast<std::size_t>(e.src));
  std::unordered_map<DynBitset, double, DynBitsetHash> memo;
  return single_gpu_recurse(g, cost, std::max(1, max_stage_ops), DynBitset(n), preds, memo);
}

double optimal_inter_gpu_latency(const graph::Graph& g, const cost::CostModel& cost,
                                 int num_gpus) {
  const std::size_t n = g.num_nodes();
  HIOS_CHECK(n <= 8, "optimal_inter_gpu_latency: graph too large");
  HIOS_CHECK(num_gpus >= 1, "need >= 1 GPU");

  double best = std::numeric_limits<double>::infinity();
  std::vector<int> mapping(n, 0);
  const graph::CompiledGraph cg(g);
  sched::ScheduleState state(cg, cost);

  // Enumerate all per-GPU operator orders for the current mapping by
  // permuting each GPU's op list; infeasible orders are rejected by the
  // evaluator's deadlock detection.
  auto try_mapping = [&]() {
    std::vector<std::vector<graph::NodeId>> per_gpu(static_cast<std::size_t>(num_gpus));
    for (std::size_t v = 0; v < n; ++v)
      per_gpu[static_cast<std::size_t>(mapping[v])].push_back(static_cast<graph::NodeId>(v));
    for (auto& ops : per_gpu) std::sort(ops.begin(), ops.end());

    auto emit = [&](auto&& self, std::size_t gpu) -> void {
      if (gpu == per_gpu.size()) {
        sched::Schedule schedule(num_gpus);
        for (std::size_t i = 0; i < per_gpu.size(); ++i)
          for (graph::NodeId v : per_gpu[i]) schedule.push_op(static_cast<int>(i), v);
        state.load(schedule);
        if (const auto latency = state.evaluate_latency()) best = std::min(best, *latency);
        return;
      }
      std::vector<graph::NodeId>& ops = per_gpu[gpu];
      std::sort(ops.begin(), ops.end());
      do {
        self(self, gpu + 1);
      } while (std::next_permutation(ops.begin(), ops.end()));
    };
    emit(emit, 0);
  };

  // Enumerate mappings num_gpus^n.
  auto assign = [&](auto&& self, std::size_t v) -> void {
    if (v == n) {
      try_mapping();
      return;
    }
    for (int gpu = 0; gpu < num_gpus; ++gpu) {
      mapping[v] = gpu;
      self(self, v + 1);
    }
  };
  assign(assign, 0);
  return best;
}

}  // namespace hios::oracle
