// Micro-benchmarks (google-benchmark) for the scheduler building blocks:
// these are the inner-loop costs that determine Fig. 14's algorithm-runtime
// component.
#include <benchmark/benchmark.h>

#include "core/hios.h"
#include "graph/compiled_graph.h"
#include "graph/longest_path.h"
#include "sched/core/list_state.h"
#include "sched/core/schedule_state.h"

using namespace hios;

namespace {

graph::Graph test_graph(int ops) {
  models::RandomDagParams p;
  p.num_ops = ops;
  p.num_layers = std::max(2, ops / 14);
  p.num_deps = 2 * ops;
  p.seed = 42;
  return models::random_dag(p);
}

void BM_PriorityIndicators(benchmark::State& state) {
  const graph::Graph g = test_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(graph::priority_indicators(g));
}
BENCHMARK(BM_PriorityIndicators)->Arg(100)->Arg(400);

// sched::check_schedule on a 4-GPU hios-lp schedule of a Fig. 14-shaped
// DAG (22 layers per 512 ops, 2 deps per op, seed 7): the coverage pass,
// one ScheduleState load, the intra-stage edge scan and the Kahn pass.
void BM_CheckSchedule(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  models::RandomDagParams p;
  p.num_ops = ops;
  p.num_layers = 22 * ops / 512;
  p.num_deps = 2 * ops;
  p.seed = 7;
  const graph::Graph g = models::random_dag(p);
  const cost::TableCostModel cost;
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  const auto r = sched::make_scheduler("hios-lp")->schedule(g, cost, config);
  for (auto _ : state) benchmark::DoNotOptimize(sched::check_schedule(g, r.schedule));
}
BENCHMARK(BM_CheckSchedule)->Arg(512)->Arg(8192)->Unit(benchmark::kMillisecond);

// Reference path: the one-shot extraction HIOS-LP no longer calls (it keeps
// a graph::ValidPathFinder; see BM_Alg1Path).
void BM_LongestValidPath(benchmark::State& state) {
  const graph::Graph g = test_graph(static_cast<int>(state.range(0)));
  DynBitset half(g.num_nodes());
  for (std::size_t v = 0; v < g.num_nodes() / 2; ++v) half.set(v);
  for (auto _ : state) benchmark::DoNotOptimize(graph::longest_valid_path(g, half));
}
BENCHMARK(BM_LongestValidPath)->Arg(100)->Arg(400);

// Every path extraction of Alg. 1 on a 1024-op DAG, one benchmark iteration
// per whole sequence (items = paths). `oneshot` calls longest_valid_path on
// the growing mask, `incremental` one ValidPathFinder's next().
void BM_Alg1Path(benchmark::State& state, bool incremental) {
  const graph::Graph g = test_graph(1024);
  const graph::CompiledGraph cg(g);
  const std::size_t n = g.num_nodes();
  std::size_t paths = 0;
  for (auto _ : state) {
    if (incremental) {
      graph::ValidPathFinder finder(g, cg.topo_order(), DynBitset(n));
      while (auto path = finder.next()) {
        benchmark::DoNotOptimize(path->length);
        ++paths;
      }
    } else {
      DynBitset scheduled(n);
      while (auto path = graph::longest_valid_path(g, scheduled, cg.topo_order())) {
        benchmark::DoNotOptimize(path->length);
        for (graph::NodeId v : path->nodes) scheduled.set(static_cast<std::size_t>(v));
        ++paths;
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(paths));
}
BENCHMARK_CAPTURE(BM_Alg1Path, oneshot, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Alg1Path, incremental, true)->Unit(benchmark::kMillisecond);

// Alg. 1's placement on a 1024-op DAG with state.range(0) GPUs: every path
// of the DAG placed on a fresh ListScheduleState, one place_path walk each
// (items = paths).
void BM_Alg1Place(benchmark::State& state) {
  const int gpus = static_cast<int>(state.range(0));
  const graph::Graph g = test_graph(1024);
  const graph::CompiledGraph cg(g);
  std::vector<std::vector<graph::NodeId>> paths;
  graph::ValidPathFinder finder(g, cg.topo_order(), DynBitset(g.num_nodes()));
  while (auto path = finder.next()) paths.push_back(std::move(path->nodes));

  const cost::TableCostModel cost;
  std::size_t placed = 0;
  for (auto _ : state) {
    sched::ListScheduleState list(cg, gpus, cost);
    for (const auto& path : paths) benchmark::DoNotOptimize(list.place_path(path).latency);
    placed += paths.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(placed));
}
BENCHMARK(BM_Alg1Place)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_StageTimeEval(benchmark::State& state) {
  const graph::Graph g = test_graph(64);
  const cost::TableCostModel cost;
  std::vector<graph::NodeId> stage;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(state.range(0)); ++v)
    stage.push_back(v);
  for (auto _ : state)
    benchmark::DoNotOptimize(cost.stage_time(g, std::span<const graph::NodeId>(stage)));
}
BENCHMARK(BM_StageTimeEval)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// sched::evaluate_schedule on an inter-lp schedule: one call compiles the
// graph, loads a ScheduleState and evaluates it (compile + load + evaluate).
// Schedulers that hold a CompiledGraph skip the compile; see
// BM_MergeCandidate for the per-candidate cost inside Alg. 2.
void BM_EvaluateSchedule(benchmark::State& state) {
  const graph::Graph g = test_graph(static_cast<int>(state.range(0)));
  const cost::TableCostModel cost;
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  const auto r = sched::make_scheduler("inter-lp")->schedule(g, cost, config);
  for (auto _ : state)
    benchmark::DoNotOptimize(sched::evaluate_schedule(g, r.schedule, cost));
}
BENCHMARK(BM_EvaluateSchedule)->Arg(100)->Arg(400);

// One Alg. 2 candidate as parallelize() scores it, on a 1024-op inter-lp
// schedule: apply -> score -> undo, cycling over every independent pair of
// adjacent stages. `full` scores with the Kahn pass over all stages,
// `delta` with ScheduleState::improves_on against the committed latency.
void BM_MergeCandidate(benchmark::State& state, bool delta) {
  const graph::Graph g = test_graph(1024);
  const cost::TableCostModel cost;
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  const auto r = sched::make_scheduler("inter-lp")->schedule(g, cost, config);
  const graph::CompiledGraph cg(g);
  sched::ScheduleState s(cg, cost);
  s.load(r.schedule);
  const double latency = *s.evaluate_latency();
  std::vector<std::pair<int, int>> windows;  // (gpu, pos)
  for (int gpu = 0; gpu < config.num_gpus; ++gpu)
    for (int pos = 0; pos + 1 < s.stage_count(gpu); ++pos)
      if (s.stages_independent(s.stage_at(gpu, pos), s.stage_at(gpu, pos + 1)))
        windows.emplace_back(gpu, pos);
  std::size_t k = 0;
  for (auto _ : state) {
    const auto [gpu, pos] = windows[k++ % windows.size()];
    s.apply_merge(gpu, pos, 1);
    benchmark::DoNotOptimize(delta ? s.improves_on(latency) : s.evaluate_latency());
    s.undo_merge();
  }
}
BENCHMARK_CAPTURE(BM_MergeCandidate, full, false);
BENCHMARK_CAPTURE(BM_MergeCandidate, delta, true);

void BM_Scheduler(benchmark::State& state, const char* name) {
  const graph::Graph g = test_graph(100);
  const cost::TableCostModel cost;
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  const auto scheduler = sched::make_scheduler(name);
  for (auto _ : state) benchmark::DoNotOptimize(scheduler->schedule(g, cost, config));
}
BENCHMARK_CAPTURE(BM_Scheduler, sequential, "sequential");
BENCHMARK_CAPTURE(BM_Scheduler, hios_lp, "hios-lp");
BENCHMARK_CAPTURE(BM_Scheduler, hios_mr, "hios-mr");
BENCHMARK_CAPTURE(BM_Scheduler, ios, "ios")->Iterations(3);

void BM_ProfileInception(benchmark::State& state) {
  const ops::Model m = models::make_inception_v3();
  for (auto _ : state)
    benchmark::DoNotOptimize(cost::profile_model(m, cost::make_dual_a40_nvlink()));
}
BENCHMARK(BM_ProfileInception);

// One warm ScheduleCache::get: the per-request plan lookup of a serving hit.
// Its cost should not grow with the model (SqueezeNet 38 ops, NASNet 358).
void BM_CacheWarmGet(benchmark::State& state, ops::Model (*make)()) {
  const ops::Model model = make();
  serve::ScheduleCache cache(cost::make_a40_server(4));
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  cache.get(model, "hios-lp", config);  // the cold build stays out of the loop
  for (auto _ : state) benchmark::DoNotOptimize(cache.get(model, "hios-lp", config));
}
BENCHMARK_CAPTURE(BM_CacheWarmGet, squeezenet, +[] { return models::make_squeezenet(); });
BENCHMARK_CAPTURE(BM_CacheWarmGet, nasnet, +[] { return models::make_nasnet(); });

}  // namespace

BENCHMARK_MAIN();
