// Test oracles: from-scratch re-implementations of the §III-A stage timing,
// and exhaustive searches for the optimal schedule of a tiny graph.
//
// Production code times every stage DAG through sched::ScheduleState (and
// Alg. 1's singleton list schedule through sched::ListScheduleState). The
// functions here are independent implementations, mostly the code that
// core replaced, kept verbatim so the property suites compare the
// production code against something other than itself:
//   * evaluate_schedule / evaluate_partial_schedule: one Kahn pass over a
//     freshly flattened, deduplicated stage DAG;
//   * list_schedule: the priority-order list scheduler of Alg. 1, one full
//     pass per call;
//   * longest_valid_path: Alg. 1's path DP over every unscheduled position,
//     from scratch per call (graph::ValidPathFinder recomputes only what a
//     taken path changes);
//   * simulate_ops / simulate_pipeline: the simulators with their own stage
//     flattening and Kahn passes;
//   * model_hashes: ops::Model's two structural hashes, walked from scratch
//     over every operator (the model keeps them incrementally at add time);
//   * optimal_single_gpu_latency / optimal_inter_gpu_latency: exhaustive
//     searches for the best schedule of a tiny graph, the optimality
//     oracles for IOS and for the inter-GPU halves of HIOS-LP / HIOS-MR.
//   * simulate_stages_faulty: a fault-aware discrete-event replay of a
//     schedule under a fault::FaultPlan, the oracle the vGPU engine's
//     faulty runs must match bit for bit.
//   * reachability / validate_schedule: the node reachability closure and
//     the pairwise stage-independence check built on it, which
//     sched::validate_schedule replaced with an edge scan and the timing
//     core's cycle check.
// None of this is linked into src/; it exists for tests only.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "fault/fault_plan.h"
#include "graph/graph.h"
#include "graph/longest_path.h"
#include "ops/model.h"
#include "sched/evaluate.h"
#include "sched/schedule.h"
#include "sim/pipeline_sim.h"
#include "sim/timeline.h"
#include "util/bitset.h"

namespace hios::oracle {

/// Evaluates `schedule` for graph `g` with cost model `cost`.
/// Returns nullopt when the schedule deadlocks (cycle between stage
/// dependencies and per-GPU execution order). Ops absent from the schedule
/// are not allowed (throws).
std::optional<sched::Evaluation> evaluate_schedule(const graph::Graph& g,
                                                   const sched::Schedule& schedule,
                                                   const cost::CostModel& cost);

/// Like evaluate_schedule but over the subset of nodes present in the
/// schedule; edges to/from unscheduled nodes are ignored.
std::optional<sched::Evaluation> evaluate_partial_schedule(const graph::Graph& g,
                                                           const sched::Schedule& schedule,
                                                           const cost::CostModel& cost);

/// Result of the list-scheduling pass.
struct ListScheduleResult {
  sched::Schedule schedule;     ///< singleton stages, per-GPU priority order
  double latency_ms = 0.0;      ///< max finish over placed ops
  std::vector<double> start;    ///< per node; -1 when unmapped
  std::vector<double> finish;   ///< per node; -1 when unmapped
};

/// Schedules every node v with mapping[v] >= 0 onto its GPU, visiting
/// `order` (a topological order covering all nodes, typically
/// graph::priority_order): each op starts after its GPU's tail and after
/// every placed predecessor finishes (+ transfer across GPUs). Unmapped
/// predecessors are ignored.
ListScheduleResult list_schedule(const graph::Graph& g, const std::vector<int>& mapping,
                                 const std::vector<graph::NodeId>& order, int num_gpus,
                                 const cost::CostModel& cost);

/// The longest valid path among the vertices `scheduled` leaves open, as
/// graph::longest_valid_path defines it, by one DP pass over `topo` (a
/// topological order of g); nullopt when every vertex is scheduled.
std::optional<graph::ValidPath> longest_valid_path(const graph::Graph& g,
                                                   const DynBitset& scheduled,
                                                   const std::vector<graph::NodeId>& topo);

/// Op-accurate (relaxed-start) timeline, as sim::simulate_ops defines it.
/// Returns nullopt on deadlock.
std::optional<sim::Timeline> simulate_ops(const graph::Graph& g,
                                          const sched::Schedule& schedule,
                                          const cost::CostModel& cost);

/// `num_requests` back-to-back inferences, as sim::simulate_pipeline
/// defines them. Returns nullopt when the schedule deadlocks.
std::optional<sim::PipelineStats> simulate_pipeline(const graph::Graph& g,
                                                    const sched::Schedule& schedule,
                                                    const cost::CostModel& cost,
                                                    int num_requests);

/// ops::Model::fingerprint() and fingerprint_check(), computed by one walk
/// over every operator's canonical encoding.
struct ModelHashes {
  uint64_t fingerprint = 0;
  uint64_t check = 0;
};
ModelHashes model_hashes(const ops::Model& model);

/// Exact minimum single-GPU latency over all stage partitions with at most
/// `max_stage_ops` ops per stage (memoized recursion over down-sets).
/// Oracle for IOS. Throws when the graph has more than 24 nodes.
double optimal_single_gpu_latency(const graph::Graph& g, const cost::CostModel& cost,
                                  int max_stage_ops);

/// Exact minimum latency over all GPU mappings x per-GPU operator orders
/// with singleton stages (no intra-GPU grouping). Oracle for the inter-GPU
/// halves of HIOS-LP / HIOS-MR. Throws when the graph has more than 8
/// nodes (the search is M^n times products of permutations).
double optimal_inter_gpu_latency(const graph::Graph& g, const cost::CostModel& cost,
                                 int num_gpus);

/// reach[v] = bitset of nodes reachable from v via >= 1 edge (v excluded).
/// O(V * E / 64). Throws when `g` has a cycle.
std::vector<DynBitset> reachability(const graph::Graph& g);

/// True when u and v are order-independent (neither reaches the other).
inline bool independent(const std::vector<DynBitset>& reach, graph::NodeId u, graph::NodeId v) {
  return u != v && !reach[static_cast<std::size_t>(u)].test(static_cast<std::size_t>(v)) &&
         !reach[static_cast<std::size_t>(v)].test(static_cast<std::size_t>(u));
}

/// sched::validate_schedule's verdict from the pairwise definition: every
/// pair of ops in a stage is tested against the reachability closure ("groups
/// dependent ops", transitive paths included), and deadlock freedom is the
/// from-scratch evaluator's. Throws when `g` has a cycle.
std::vector<std::string> validate_schedule(const graph::Graph& g,
                                           const sched::Schedule& schedule);

/// Outcome of one simulated faulty run.
struct FaultyRun {
  sim::Timeline timeline;             ///< executed stages + transfers + retries
  bool complete = true;               ///< every op executed
  double makespan_ms = 0.0;           ///< max finish over executed stages
  std::vector<char> executed;         ///< per graph node
  std::vector<double> node_finish_ms; ///< per graph node; -1 when not executed
  std::vector<fault::FaultObservation> observations;
};

/// Stage-level fault-aware simulation of `schedule` under `plan`, with the
/// engine's semantics (see fault_sim.cpp). The schedule must be valid
/// (throws otherwise, like the engine).
FaultyRun simulate_stages_faulty(const graph::Graph& g, const sched::Schedule& schedule,
                                 const cost::CostModel& cost,
                                 const fault::FaultPlan& plan);

}  // namespace hios::oracle
