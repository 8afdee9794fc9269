#include "runtime/engine.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "ops/kernels.h"
#include "sched/validate.h"
#include "util/rng.h"

namespace hios::runtime {

ops::Tensor make_input_tensor(const ops::Model& model, ops::OpId input_id) {
  HIOS_CHECK(model.is_input(input_id), "op " << input_id << " is not a model input");
  ops::Tensor tensor(model.output_shape(input_id));
  Rng rng(0x5eedULL + static_cast<uint64_t>(input_id));
  for (std::size_t i = 0; i < tensor.size(); ++i)
    tensor.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return tensor;
}

std::map<ops::OpId, ops::Tensor> execute_reference(
    const ops::Model& model, const std::map<ops::OpId, ops::Tensor>& inputs) {
  std::map<ops::OpId, ops::Tensor> results;
  // Model op ids are already topologically ordered (inputs precede users).
  for (ops::OpId id = 0; id < model.num_ops(); ++id) {
    if (model.is_input(id)) {
      auto it = inputs.find(id);
      results.emplace(id, it != inputs.end() ? it->second : make_input_tensor(model, id));
      continue;
    }
    std::vector<const ops::Tensor*> in_tensors;
    for (ops::OpId in : model.inputs(id)) in_tensors.push_back(&results.at(in));
    results.emplace(id, ops::execute_op(model.op(id), in_tensors,
                                        static_cast<uint64_t>(id)));
  }
  // Drop the input placeholders from the returned map.
  for (ops::OpId in : model.input_ids()) results.erase(in);
  return results;
}

ExecutionResult execute_schedule(const ops::Model& model, const graph::Graph& graph,
                                 const sched::Schedule& schedule,
                                 const cost::CostModel& cost,
                                 const std::map<ops::OpId, ops::Tensor>& inputs,
                                 const ExecOptions& options) {
  // A topological order of the stage DAG (data edges plus each vGPU's
  // stage order), the one check_schedule proved acyclic: every stage runs
  // after all it waits on. `cost` is asked only for the times the run uses.
  const std::vector<sched::StageRef> order = sched::check_schedule(graph, schedule);
  const std::size_t n = graph.num_nodes();
  const std::vector<int> gpu_of = schedule.gpu_assignment(n);
  const fault::FaultPlan* plan = options.faults;

  // node <-> op id maps (graph node tags index into the model).
  std::vector<ops::OpId> op_of(n);
  std::vector<graph::NodeId> node_of(static_cast<std::size_t>(model.num_ops()), -1);
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(n); ++v) {
    const auto op_id = static_cast<ops::OpId>(graph.node_tag(v));
    HIOS_CHECK(op_id >= 0 && op_id < model.num_ops(),
               "graph node " << v << " has no valid model op tag");
    op_of[static_cast<std::size_t>(v)] = op_id;
    node_of[static_cast<std::size_t>(op_id)] = v;
  }
  auto injected = [&](ops::OpId op_id) {
    return options.boundary != nullptr && options.boundary->contains(op_id);
  };

  // Every op the run computes must get each non-input operand through an
  // in-edge of its node: the graph edges are what orders producer before
  // consumer and what carries a tensor between vGPUs.
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(n); ++v) {
    const ops::OpId op_id = op_of[static_cast<std::size_t>(v)];
    if (injected(op_id)) continue;
    for (ops::OpId in : model.inputs(op_id)) {
      if (model.is_input(in)) continue;
      const graph::NodeId u = node_of[static_cast<std::size_t>(in)];
      const auto in_edges = graph.in_edges(v);
      HIOS_CHECK(u >= 0 && std::any_of(in_edges.begin(), in_edges.end(),
                                       [&](graph::EdgeId e) { return graph.edge(e).src == u; }),
                 "op '" << model.op(op_id).name() << "' reads op '" << model.op(in).name()
                        << "', but graph '" << graph.name() << "' has no edge from it into node '"
                        << graph.node_name(v) << "'");
    }
  }

  std::map<ops::OpId, std::shared_ptr<const ops::Tensor>> model_inputs;
  for (ops::OpId in : model.input_ids()) {
    auto it = inputs.find(in);
    model_inputs[in] = std::make_shared<const ops::Tensor>(
        it != inputs.end() ? it->second : make_input_tensor(model, in));
  }

  struct Vgpu {
    double clock = 0.0;     ///< finish of its last executed stage
    bool stopped = false;   ///< fail-stopped or blocked: runs no further stage
    std::vector<sim::TimelineEvent> events;
    std::vector<fault::FaultObservation> observations;
  };
  std::vector<Vgpu> vgpus(static_cast<std::size_t>(schedule.num_gpus));
  // Arrival time of each cross-GPU edge's tensor; kDead until delivered, so
  // an edge whose producer never ran or whose transfer failed stays dead.
  constexpr double kDead = -1.0;
  std::vector<double> arrival(graph.num_edges(), kDead);
  std::vector<std::shared_ptr<const ops::Tensor>> tensor(n);

  ExecutionResult result;
  result.executed.assign(n, 0);
  result.node_finish_ms.assign(n, -1.0);
  result.timeline.num_gpus = schedule.num_gpus;

  for (const auto [me, si] : order) {
    Vgpu& gpu = vgpus[static_cast<std::size_t>(me)];
    if (gpu.stopped) continue;
    const sched::Stage& stage =
        schedule.gpus[static_cast<std::size_t>(me)][static_cast<std::size_t>(si)];

    // The stage starts once its vGPU is free and every input has arrived;
    // the first dead cross-GPU input blocks the vGPU for good.
    double start = gpu.clock;
    const graph::Edge* dead = nullptr;
    for (graph::NodeId v : stage.ops) {
      for (graph::EdgeId e : graph.in_edges(v)) {
        const graph::Edge& edge = graph.edge(e);
        if (gpu_of[static_cast<std::size_t>(edge.src)] == me) {
          start = std::max(start, result.node_finish_ms[static_cast<std::size_t>(edge.src)]);
        } else if (arrival[static_cast<std::size_t>(e)] == kDead) {
          dead = &edge;
          break;
        } else {
          start = std::max(start, arrival[static_cast<std::size_t>(e)]);
        }
      }
      if (dead) break;
    }
    if (dead) {
      gpu.observations.push_back(fault::FaultObservation{
          fault::FaultObservation::Kind::kBlocked, me,
          gpu_of[static_cast<std::size_t>(dead->src)], gpu.clock,
          "gpu " + std::to_string(me) + " blocked: dependency '" +
              graph.node_name(dead->src) + "' will never arrive"});
      gpu.stopped = true;
      continue;
    }
    // Fail-stop: the GPU dies before any stage starting at/after its fail
    // time (a stage that started earlier runs to completion).
    const double fail_ms = plan ? plan->fail_time(me) : fault::kNever;
    if (start >= fail_ms) {
      gpu.observations.push_back(fault::FaultObservation{
          fault::FaultObservation::Kind::kFailStop, me, -1, fail_ms,
          "gpu " + std::to_string(me) + " fail-stop at " + std::to_string(fail_ms) +
              " ms before stage " + std::to_string(si)});
      gpu.stopped = true;
      continue;
    }
    // Execute the stage's ops on real tensors (boundary ops were computed
    // before this run; inject their tensors instead).
    for (graph::NodeId v : stage.ops) {
      const ops::OpId op_id = op_of[static_cast<std::size_t>(v)];
      if (injected(op_id)) {
        tensor[static_cast<std::size_t>(v)] = options.boundary->at(op_id);
        continue;
      }
      std::vector<const ops::Tensor*> in_tensors;
      for (ops::OpId in : model.inputs(op_id)) {
        in_tensors.push_back(
            model.is_input(in)
                ? model_inputs.at(in).get()
                : tensor[static_cast<std::size_t>(node_of[static_cast<std::size_t>(in)])].get());
      }
      tensor[static_cast<std::size_t>(v)] = std::make_shared<const ops::Tensor>(
          ops::execute_op(model.op(op_id), in_tensors, static_cast<uint64_t>(op_id)));
    }
    const double scale = plan ? plan->compute_scale(me, start) : 1.0;
    const double finish =
        start + cost.stage_time_on(graph, std::span<const graph::NodeId>(stage.ops), me) * scale;
    gpu.clock = finish;
    for (graph::NodeId v : stage.ops) {
      const std::shared_ptr<const ops::Tensor>& out = tensor[static_cast<std::size_t>(v)];
      result.executed[static_cast<std::size_t>(v)] = 1;
      result.node_finish_ms[static_cast<std::size_t>(v)] = finish;
      if (plan) result.computed.emplace(op_of[static_cast<std::size_t>(v)], out);
      gpu.events.push_back(sim::TimelineEvent{sim::TimelineEvent::Kind::kCompute,
                                              graph.node_name(v), me, -1, si, start, finish});
      // Send to remote consumers; collect sink outputs.
      for (graph::EdgeId e : graph.out_edges(v)) {
        const graph::Edge& edge = graph.edge(e);
        const int dst_gpu = gpu_of[static_cast<std::size_t>(edge.dst)];
        if (dst_gpu == me) continue;
        const double base = cost.transfer_time(graph, e, me, dst_gpu);
        const std::string name = graph.node_name(v) + "->" + graph.node_name(edge.dst);
        if (!plan) {
          arrival[static_cast<std::size_t>(e)] = finish + base;
          gpu.events.push_back(sim::TimelineEvent{sim::TimelineEvent::Kind::kTransfer, name,
                                                  me, dst_gpu, -1, finish, finish + base});
          continue;
        }
        const fault::TransferResolution res = plan->resolve_transfer(me, dst_gpu, finish, base);
        for (const fault::TransferAttempt& a : res.attempts) {
          if (a.ok) continue;
          gpu.events.push_back(sim::TimelineEvent{sim::TimelineEvent::Kind::kRetry,
                                                  name + " (retry)", me, dst_gpu, -1, a.at_ms,
                                                  a.at_ms + a.backoff_ms});
        }
        if (res.delivered) {
          arrival[static_cast<std::size_t>(e)] = res.arrival_ms;
          gpu.events.push_back(sim::TimelineEvent{sim::TimelineEvent::Kind::kTransfer, name,
                                                  me, dst_gpu, -1, res.attempts.back().at_ms,
                                                  res.arrival_ms});
        } else {
          gpu.observations.push_back(fault::FaultObservation{
              fault::FaultObservation::Kind::kTransferFailed, me, dst_gpu, finish,
              "transfer '" + name + "' failed after " + std::to_string(res.attempts.size()) +
                  " attempts"});
        }
      }
      if (graph.out_degree(v) == 0)
        result.outputs.emplace(op_of[static_cast<std::size_t>(v)], *out);
    }
  }

  // Events and observations are reported GPU-major, each vGPU's in its
  // stage order.
  for (Vgpu& gpu : vgpus) {
    result.latency_ms = std::max(result.latency_ms, gpu.clock);
    for (auto& ev : gpu.events) result.timeline.events.push_back(std::move(ev));
    for (auto& obs : gpu.observations) result.fault_events.push_back(std::move(obs));
  }
  result.complete =
      std::all_of(result.executed.begin(), result.executed.end(), [](char c) { return c; });
  result.timeline.latency_ms = result.latency_ms;
  if (!result.complete && !options.allow_partial) {
    std::ostringstream os;
    os << "execution incomplete under fault injection: "
       << std::count(result.executed.begin(), result.executed.end(), char{0}) << " of " << n
       << " ops did not run;";
    for (const auto& obs : result.fault_events) os << ' ' << obs.detail << ';';
    throw Error(os.str());
  }
  return result;
}

}  // namespace hios::runtime
