#include "sched/ios.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <unordered_map>

#include "cost/stage_cache.h"
#include "graph/compiled_graph.h"
#include "sched/core/schedule_state.h"
#include "util/bitset.h"

namespace hios::sched {

namespace {

struct State {
  DynBitset done;
  double latency = std::numeric_limits<double>::infinity();
  int parent = -1;                     ///< index of predecessor state
  std::vector<graph::NodeId> stage;    ///< stage appended to reach this state
  bool expandable = true;              ///< survived beam pruning
};

}  // namespace

ScheduleResult IosScheduler::schedule(const graph::Graph& g, const cost::CostModel& cost,
                                      const SchedulerConfig& config) const {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = g.num_nodes();

  ScheduleResult result;
  result.algorithm = name();
  if (n == 0) {
    result.schedule = Schedule(1);
    return result;
  }

  // Compiled once per run; the stage cache memoizes t(S) across the many
  // DP states that query the same candidate stage.
  const graph::CompiledGraph cg(g);
  const cost::StageTimeCache cached(cost);
  const std::vector<double>& priority = cg.priority();

  std::vector<State> states;
  std::unordered_map<DynBitset, int, DynBitsetHash> index;
  std::vector<std::vector<int>> by_size(n + 1);

  State root;
  root.done = DynBitset(n);
  root.latency = 0.0;
  states.push_back(root);
  index.emplace(states[0].done, 0);
  by_size[0].push_back(0);

  // Per-node predecessor masks to test readiness quickly.
  std::vector<DynBitset> preds(n, DynBitset(n));
  for (const graph::Edge& e : g.edges())
    preds[static_cast<std::size_t>(e.dst)].set(static_cast<std::size_t>(e.src));

  const int max_stage = std::max(1, std::min(config.ios_max_stage_ops, config.max_streams));
  const std::size_t frontier_cap = static_cast<std::size_t>(std::max(1, config.ios_frontier_cap));
  const std::size_t beam = static_cast<std::size_t>(std::max(1, config.ios_beam_width));

  for (std::size_t size = 0; size < n; ++size) {
    auto& bucket = by_size[size];
    if (bucket.empty()) continue;
    // Beam pruning: expand only the best `beam` states of this size.
    std::sort(bucket.begin(), bucket.end(),
              [&](int a, int b) { return states[static_cast<std::size_t>(a)].latency <
                                         states[static_cast<std::size_t>(b)].latency; });
    for (std::size_t rank = beam; rank < bucket.size(); ++rank)
      states[static_cast<std::size_t>(bucket[rank])].expandable = false;

    for (std::size_t rank = 0; rank < std::min(beam, bucket.size()); ++rank) {
      const int sid = bucket[rank];
      // Ready frontier of this state (all preds done, itself not done).
      // `done` is copied: `states` grows, and may reallocate, while the
      // state expands.
      std::vector<graph::NodeId> ready;
      const DynBitset done_copy = states[static_cast<std::size_t>(sid)].done;
      for (std::size_t v = 0; v < n; ++v) {
        if (done_copy.test(v)) continue;
        if (done_copy.contains_all(preds[v])) ready.push_back(static_cast<graph::NodeId>(v));
      }
      HIOS_ASSERT(!ready.empty(), "non-full state with empty frontier");
      if (ready.size() > frontier_cap) {
        std::sort(ready.begin(), ready.end(), [&](graph::NodeId a, graph::NodeId b) {
          return priority[static_cast<std::size_t>(a)] > priority[static_cast<std::size_t>(b)];
        });
        ready.resize(frontier_cap);
      }
      const double base_latency = states[static_cast<std::size_t>(sid)].latency;

      // Enumerate non-empty subsets of `ready` up to max_stage ops.
      // Ready ops are pairwise independent by construction, so every
      // subset is a legal stage.
      std::vector<graph::NodeId> stage;
      auto recurse = [&](auto&& self, std::size_t from) -> void {
        if (!stage.empty()) {
          const double t_stage =
              cached.stage_time(g, std::span<const graph::NodeId>(stage));
          const double latency = base_latency + t_stage;
          DynBitset next_done = done_copy;
          for (graph::NodeId v : stage) next_done.set(static_cast<std::size_t>(v));
          auto [it, inserted] = index.emplace(next_done, static_cast<int>(states.size()));
          if (inserted) {
            State next;
            next.done = std::move(next_done);
            next.latency = latency;
            next.parent = sid;
            next.stage = stage;
            states.push_back(std::move(next));
            by_size[states.back().done.count()].push_back(it->second);
          } else if (latency < states[static_cast<std::size_t>(it->second)].latency) {
            State& existing = states[static_cast<std::size_t>(it->second)];
            existing.latency = latency;
            existing.parent = sid;
            existing.stage = stage;
          }
        }
        if (stage.size() >= static_cast<std::size_t>(max_stage)) return;
        for (std::size_t i = from; i < ready.size(); ++i) {
          stage.push_back(ready[i]);
          self(self, i + 1);
          stage.pop_back();
        }
      };
      recurse(recurse, 0);
    }
  }

  // Reconstruct the best full state.
  int best = -1;
  for (int sid : by_size[n]) {
    if (best < 0 || states[static_cast<std::size_t>(sid)].latency <
                        states[static_cast<std::size_t>(best)].latency)
      best = sid;
  }
  HIOS_ASSERT(best >= 0, "IOS never reached the full state");

  std::vector<std::vector<graph::NodeId>> stages_rev;
  for (int sid = best; sid > 0; sid = states[static_cast<std::size_t>(sid)].parent)
    stages_rev.push_back(states[static_cast<std::size_t>(sid)].stage);

  Schedule schedule(1);
  for (auto it = stages_rev.rbegin(); it != stages_rev.rend(); ++it)
    schedule.gpus[0].push_back(Stage{*it});

  ScheduleState state(cg, cached);
  state.load(schedule);
  const auto latency = state.evaluate_latency();
  HIOS_ASSERT(latency.has_value(), "IOS schedule cannot deadlock");
  result.schedule = std::move(schedule);
  result.latency_ms = *latency;
  result.scheduling_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace hios::sched
