#include "sched/schedule.h"

#include <limits>

namespace hios::sched {

std::vector<int> Schedule::gpu_assignment(std::size_t num_nodes) const {
  std::vector<int> gpu_of(num_nodes, -1);
  for (int i = 0; i < num_gpus; ++i) {
    for (const Stage& stage : gpus[static_cast<std::size_t>(i)]) {
      for (graph::NodeId v : stage.ops) {
        HIOS_CHECK(static_cast<std::size_t>(v) < num_nodes, "schedule references node " << v);
        HIOS_CHECK(gpu_of[static_cast<std::size_t>(v)] == -1,
                   "node " << v << " scheduled twice");
        gpu_of[static_cast<std::size_t>(v)] = i;
      }
    }
  }
  return gpu_of;
}

std::size_t Schedule::num_ops() const {
  std::size_t count = 0;
  for (const auto& gpu : gpus)
    for (const Stage& stage : gpu) count += stage.ops.size();
  return count;
}

int Schedule::num_gpus_used() const {
  int used = 0;
  for (const auto& gpu : gpus)
    if (!gpu.empty()) ++used;
  return used;
}

void Schedule::push_op(int gpu, graph::NodeId v) {
  HIOS_CHECK(gpu >= 0 && gpu < num_gpus, "push_op: bad gpu " << gpu << "/" << num_gpus);
  gpus[static_cast<std::size_t>(gpu)].push_back(Stage{{v}});
}

Json Schedule::to_json(const graph::Graph& g) const {
  Json root = Json::object();
  root["num_gpus"] = num_gpus;
  root["model"] = g.name();
  Json gpu_array = Json::array();
  for (const auto& gpu : gpus) {
    Json stage_array = Json::array();
    for (const Stage& stage : gpu) {
      Json ops = Json::array();
      for (graph::NodeId v : stage.ops) {
        Json op = Json::object();
        op["id"] = static_cast<int64_t>(v);
        op["name"] = g.node_name(v);
        ops.push_back(std::move(op));
      }
      stage_array.push_back(std::move(ops));
    }
    gpu_array.push_back(std::move(stage_array));
  }
  root["gpus"] = std::move(gpu_array);
  return root;
}

Schedule Schedule::from_json(const Json& json) {
  // Shape first: nothing is sized from num_gpus until it matches the gpus
  // array, so a hostile count cannot drive an allocation.
  const auto& gpu_array = json.at("gpus").as_array();
  const double num_gpus = json.at("num_gpus").as_number();
  HIOS_CHECK(num_gpus >= 1 && num_gpus == static_cast<double>(gpu_array.size()),
             "schedule JSON: num_gpus " << num_gpus << " must be >= 1 and match the "
                                        << gpu_array.size() << " GPU stage lists");
  Schedule schedule(static_cast<int>(gpu_array.size()));
  for (std::size_t i = 0; i < gpu_array.size(); ++i) {
    for (const Json& stage_json : gpu_array[i].as_array()) {
      Stage stage;
      for (const Json& op : stage_json.as_array()) {
        stage.ops.push_back(static_cast<graph::NodeId>(op.at("id").as_int_in(
            0, std::numeric_limits<graph::NodeId>::max(), "schedule JSON: op id")));
      }
      schedule.gpus[i].push_back(std::move(stage));
    }
  }
  return schedule;
}

}  // namespace hios::sched
