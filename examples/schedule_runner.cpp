// Schedule runner: the consumer half of the paper's workflow. The paper's
// scheduler emits schedules as JSON which its MPI/cuDNN engine loads and
// executes; this tool does the same against the virtual-GPU engine:
//
//   # produce a schedule
//   ./schedule_runner --model squeezenet --algorithm hios-lp --save /tmp/sq.json
//   # ... later, load + validate + simulate + execute it
//   ./schedule_runner --model squeezenet --load /tmp/sq.json --execute
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/hios.h"

using namespace hios;

namespace {

ops::Model build_model(const std::string& name) {
  // Small configurations so --execute stays fast on the CPU kernels.
  if (name == "inception") {
    models::InceptionV3Options opt;
    opt.image_hw = 96;
    opt.channel_scale = 8;
    return models::make_inception_v3(opt);
  }
  if (name == "squeezenet") {
    models::SqueezenetOptions opt;
    opt.image_hw = 64;
    opt.channel_scale = 4;
    return models::make_squeezenet(opt);
  }
  if (name == "resnet") {
    models::ResnetOptions opt;
    opt.image_hw = 64;
    opt.channel_scale = 8;
    return models::make_resnet50(opt);
  }
  if (name == "randwire") {
    models::RandwireOptions opt;
    opt.image_hw = 48;
    opt.channel_scale = 8;
    return models::make_randwire(opt);
  }
  throw Error("unknown --model '" + name + "' (inception|squeezenet|resnet|randwire)");
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("Produce / load / execute HIOS schedule JSON files");
  args.add_flag("model", "squeezenet", "inception|squeezenet|resnet|randwire")
      .add_flag("gpus", "2", "number of virtual GPUs")
      .add_flag("algorithm", "hios-lp", "scheduler for --save mode")
      .add_flag("save", "", "write the schedule JSON here")
      .add_flag("load", "", "read a schedule JSON instead of scheduling")
      .add_flag("execute", "false", "run the schedule on the virtual-GPU engine");
  if (!args.parse(argc, argv)) return 0;

  const ops::Model model = build_model(args.get("model"));
  const int gpus = static_cast<int>(args.get_int("gpus"));
  const cost::ProfiledModel pm = cost::profile_model(model, cost::make_a40_server(gpus));

  sched::Schedule schedule;
  if (const std::string path = args.get("load"); !path.empty()) {
    std::ifstream in(path);
    HIOS_CHECK(in.good(), "cannot open " << path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    schedule = sched::Schedule::from_json(Json::parse(buffer.str()));
    std::printf("loaded schedule from %s\n", path.c_str());
  } else {
    sched::SchedulerConfig config;
    config.num_gpus = gpus;
    const auto result =
        sched::make_scheduler(args.get("algorithm"))->schedule(pm.graph, *pm.cost, config);
    schedule = result.schedule;
    std::printf("scheduled %s with %s\n", model.name().c_str(), result.algorithm.c_str());
  }

  // Always validate before use, as the engine would.
  const auto violations = sched::validate_schedule(pm.graph, schedule);
  if (!violations.empty()) {
    std::printf("schedule INVALID:\n");
    for (const auto& v : violations) std::printf("  - %s\n", v.c_str());
    return 1;
  }
  const auto eval = sched::evaluate_schedule(pm.graph, schedule, *pm.cost);
  std::printf("valid schedule over %d GPUs, predicted latency %.4f ms\n", schedule.num_gpus,
              eval->latency_ms);

  if (const std::string path = args.get("save"); !path.empty()) {
    std::ofstream(path) << schedule.to_json(pm.graph).dump(true);
    std::printf("saved schedule to %s\n", path.c_str());
  }

  if (args.get_bool("execute")) {
    const auto run = runtime::execute_schedule(model, pm.graph, schedule, *pm.cost);
    std::printf("executed on %d virtual GPUs: virtual-clock latency %.4f ms, %zu sink "
                "tensors produced\n",
                schedule.num_gpus, run.latency_ms, run.outputs.size());
  }
  return 0;
}
