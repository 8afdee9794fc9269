// simulate_stages_faulty: a fault-aware discrete-event simulation, the test
// oracle for the vGPU engine's virtual clock under faults.
//
// Replays a fault::FaultPlan against a schedule under *exactly* the
// semantics of the hardened virtual-GPU engine, in virtual time:
//   * per-GPU stages execute in listed order; a stage's start folds local
//     producers' stage-finish times and remote transfer arrivals;
//   * fail-stop: a GPU dies before any stage starting at/after its fail
//     time (a stage that started earlier completes, including its sends);
//   * a GPU whose dependency can never arrive (producer died or a
//     link's retry budget exhausted) stops at that stage — and, as in the
//     engine, everything it would have sent later is dead to its
//     consumers;
//   * transfers are resolved with the plan's retry/backoff arithmetic and
//     every failed attempt is recorded as a kRetry timeline event;
//   * stragglers scale stage durations from their onset time.
// The engine and this simulator must report identical post-fault
// makespans and executed-op sets; tests/failover_test.cpp asserts it.
#include <algorithm>
#include <string>

#include "oracles/oracles.h"
#include "sched/validate.h"

namespace hios::oracle {

using sim::TimelineEvent;

namespace {

/// Delivery state of one cross-GPU edge.
enum class EdgeState : char {
  kUndecided,  ///< producer stage not yet resolved
  kDelivered,  ///< tensor arrives at `arrival`
  kDead,       ///< will never arrive (producer stopped or retries exhausted)
};

}  // namespace

FaultyRun simulate_stages_faulty(const graph::Graph& g, const sched::Schedule& schedule,
                                 const cost::CostModel& cost,
                                 const fault::FaultPlan& plan) {
  sched::check_schedule(g, schedule);
  const std::size_t n = g.num_nodes();
  const std::vector<int> gpu_of = schedule.gpu_assignment(n);

  std::vector<EdgeState> edge_state(g.num_edges(), EdgeState::kUndecided);
  std::vector<double> edge_arrival(g.num_edges(), 0.0);

  struct Vgpu {
    std::size_t ptr = 0;     ///< next stage to run
    double clock = 0.0;      ///< finish of the last executed stage
    bool stopped = false;
  };
  std::vector<Vgpu> vgpus(static_cast<std::size_t>(schedule.num_gpus));

  FaultyRun run;
  run.executed.assign(n, 0);
  run.node_finish_ms.assign(n, -1.0);
  run.timeline.num_gpus = schedule.num_gpus;

  // A stopped GPU's unexecuted stages will never send, so their outgoing
  // cross edges die.
  auto kill_outgoing = [&](int me, std::size_t from_stage) {
    const auto& stages = schedule.gpus[static_cast<std::size_t>(me)];
    for (std::size_t si = from_stage; si < stages.size(); ++si) {
      for (graph::NodeId v : stages[si].ops) {
        for (graph::EdgeId e : g.out_edges(v)) {
          if (gpu_of[static_cast<std::size_t>(g.edge(e).dst)] != me)
            edge_state[static_cast<std::size_t>(e)] = EdgeState::kDead;
        }
      }
    }
  };

  // Fixed-point over the per-GPU stage pointers: each pass tries to resolve
  // every GPU's next stage; the stage DAG is acyclic (validated above) and
  // stopped workers kill their outgoing edges, so every pass that does not
  // finish makes progress.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (int me = 0; me < schedule.num_gpus; ++me) {
      Vgpu& gpu = vgpus[static_cast<std::size_t>(me)];
      const auto& stages = schedule.gpus[static_cast<std::size_t>(me)];
      while (!gpu.stopped && gpu.ptr < stages.size()) {
        const sched::Stage& stage = stages[gpu.ptr];
        const std::size_t si = gpu.ptr;
        // Decidability + start time, scanning dependencies in the same
        // order the engine's recv loop does (first dead edge wins).
        bool undecided = false;
        const graph::Edge* dead_dep = nullptr;
        double start = gpu.clock;
        for (graph::NodeId v : stage.ops) {
          if (undecided || dead_dep) break;
          for (graph::EdgeId e : g.in_edges(v)) {
            const graph::Edge& edge = g.edge(e);
            if (gpu_of[static_cast<std::size_t>(edge.src)] == me) {
              start = std::max(start, run.node_finish_ms[static_cast<std::size_t>(edge.src)]);
              continue;
            }
            const EdgeState st = edge_state[static_cast<std::size_t>(e)];
            if (st == EdgeState::kUndecided) {
              undecided = true;
              break;
            }
            if (st == EdgeState::kDead) {
              dead_dep = &edge;
              break;
            }
            start = std::max(start, edge_arrival[static_cast<std::size_t>(e)]);
          }
        }
        if (undecided) break;  // revisit on a later pass
        if (dead_dep) {
          run.observations.push_back(fault::FaultObservation{
              fault::FaultObservation::Kind::kBlocked, me,
              gpu_of[static_cast<std::size_t>(dead_dep->src)], gpu.clock,
              "gpu " + std::to_string(me) + " blocked: dependency '" +
                  g.node_name(dead_dep->src) + "' will never arrive"});
          gpu.stopped = true;
          kill_outgoing(me, si);
          progressed = true;
          break;
        }
        const double fail_ms = plan.fail_time(me);
        if (start >= fail_ms) {
          run.observations.push_back(fault::FaultObservation{
              fault::FaultObservation::Kind::kFailStop, me, -1, fail_ms,
              "gpu " + std::to_string(me) + " fail-stop at " + std::to_string(fail_ms) +
                  " ms before stage " + std::to_string(si)});
          gpu.stopped = true;
          kill_outgoing(me, si);
          progressed = true;
          break;
        }
        // Execute the stage: same arithmetic as the engine worker.
        const double scale = plan.compute_scale(me, start);
        const double finish =
            start +
            cost.stage_time_on(g, std::span<const graph::NodeId>(stage.ops), me) * scale;
        gpu.clock = finish;
        for (graph::NodeId v : stage.ops) {
          run.executed[static_cast<std::size_t>(v)] = 1;
          run.node_finish_ms[static_cast<std::size_t>(v)] = finish;
          run.timeline.events.push_back(
              TimelineEvent{TimelineEvent::Kind::kCompute, g.node_name(v), me, -1,
                            static_cast<int>(si), start, finish});
          for (graph::EdgeId e : g.out_edges(v)) {
            const graph::Edge& edge = g.edge(e);
            const int dst_gpu = gpu_of[static_cast<std::size_t>(edge.dst)];
            if (dst_gpu == me) continue;
            const double base = cost.transfer_time(g, e, me, dst_gpu);
            const std::string name = g.node_name(v) + "->" + g.node_name(edge.dst);
            const fault::TransferResolution res =
                plan.resolve_transfer(me, dst_gpu, finish, base);
            for (const fault::TransferAttempt& a : res.attempts) {
              if (a.ok) continue;
              run.timeline.events.push_back(
                  TimelineEvent{TimelineEvent::Kind::kRetry, name + " (retry)", me,
                                dst_gpu, -1, a.at_ms, a.at_ms + a.backoff_ms});
            }
            if (res.delivered) {
              edge_state[static_cast<std::size_t>(e)] = EdgeState::kDelivered;
              edge_arrival[static_cast<std::size_t>(e)] = res.arrival_ms;
              run.timeline.events.push_back(
                  TimelineEvent{TimelineEvent::Kind::kTransfer, name, me, dst_gpu, -1,
                                res.attempts.back().at_ms, res.arrival_ms});
            } else {
              edge_state[static_cast<std::size_t>(e)] = EdgeState::kDead;
              run.observations.push_back(fault::FaultObservation{
                  fault::FaultObservation::Kind::kTransferFailed, me, dst_gpu, finish,
                  "transfer '" + name + "' failed after " +
                      std::to_string(res.attempts.size()) + " attempts"});
            }
          }
        }
        ++gpu.ptr;
        progressed = true;
      }
    }
  }

  for (const Vgpu& gpu : vgpus) run.makespan_ms = std::max(run.makespan_ms, gpu.clock);
  run.complete =
      std::all_of(run.executed.begin(), run.executed.end(), [](char c) { return c; });
  run.timeline.latency_ms = run.makespan_ms;
  return run;
}

}  // namespace hios::oracle
