// Random-DAG explorer: reproduce any point of the paper's simulation study
// (§V) from the command line — generate a random DL model with the §V-A
// parameters and compare all six scheduling algorithms on it.
//
//   ./random_dag_explorer --ops 200 --layers 14 --deps 400 --gpus 4 --comm_ratio 0.8 --instances 10
#include <cstdio>

#include "core/hios.h"

using namespace hios;

int main(int argc, char** argv) {
  ArgParser args("Random-DAG scheduling explorer (paper §V simulation)");
  args.add_flag("ops", "200", "number of operators")
      .add_flag("layers", "14", "number of operator layers")
      .add_flag("deps", "400", "number of inter-operator dependencies")
      .add_flag("gpus", "4", "number of GPUs M")
      .add_flag("comm_ratio", "0.8", "transfer/compute ratio p")
      .add_flag("instances", "10", "random instances to average over")
      .add_flag("seed", "1", "base RNG seed")
      .add_flag("gantt", "false", "print an ASCII Gantt of the last HIOS-LP schedule");
  if (!args.parse(argc, argv)) return 0;

  models::RandomDagParams params;
  params.num_ops = static_cast<int>(args.get_int("ops"));
  params.num_layers = static_cast<int>(args.get_int("layers"));
  params.num_deps = static_cast<int>(args.get_int("deps"));
  params.comm_ratio = args.get_double("comm_ratio");

  const cost::TableCostModel cost;
  sched::SchedulerConfig config;
  config.num_gpus = static_cast<int>(args.get_int("gpus"));
  const int instances = static_cast<int>(args.get_int("instances"));

  std::map<std::string, RunningStats> latency, sched_ms;
  sched::Schedule last_lp;
  graph::Graph last_graph;
  for (int i = 0; i < instances; ++i) {
    params.seed = static_cast<uint64_t>(args.get_int("seed")) + static_cast<uint64_t>(i);
    const graph::Graph g = models::random_dag(params);
    for (const std::string& alg : sched::scheduler_names()) {
      const auto r = sched::make_scheduler(alg)->schedule(g, cost, config);
      sched::check_schedule(g, r.schedule);
      latency[alg].add(r.latency_ms);
      sched_ms[alg].add(r.scheduling_ms);
      if (alg == "hios-lp") last_lp = r.schedule;
    }
    last_graph = g;
  }

  std::printf("random DAGs: %d ops, %d layers, %d deps, p=%.2f, M=%d, %d instances\n\n",
              params.num_ops, params.num_layers, params.num_deps, params.comm_ratio,
              config.num_gpus, instances);
  TextTable table;
  table.set_header({"algorithm", "latency_ms(mean±std)", "speedup_vs_seq", "sched_ms"});
  const double seq = latency.at("sequential").mean();
  for (const std::string& alg : sched::scheduler_names()) {
    const RunningStats& s = latency.at(alg);
    table.add_row({alg, TextTable::num(s.mean(), 1) + "±" + TextTable::num(s.stddev(), 1),
                   TextTable::num(seq / s.mean(), 2) + "x",
                   TextTable::num(sched_ms.at(alg).mean(), 1)});
  }
  std::fputs(table.to_string().c_str(), stdout);

  if (args.get_bool("gantt")) {
    const auto tl = sim::simulate_stages(last_graph, last_lp, cost);
    std::printf("\nHIOS-LP schedule of the last instance:\n%s",
                tl->to_ascii_gantt(100).c_str());
  }
  return 0;
}
