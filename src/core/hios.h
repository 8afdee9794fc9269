// HIOS — Hierarchical Inter-Operator Scheduler for real-time inference of
// DAG-structured deep learning models on multiple GPUs.
//
// Umbrella header: include this to use the whole public API.
//
//   ops::Model model = models::make_inception_v3();
//   core::PipelineOptions opts;                 // dual-A40 + NVLink default
//   opts.algorithm = "hios-lp";
//   auto out = core::run_pipeline(model, opts);
//   std::cout << out.result.latency_ms << " ms\n"
//             << out.timeline.to_ascii_gantt();
//
// Layer map (bottom-up):
//   util/    RNG, JSON, stats, bitset, CLI args, thread pool
//   graph/   weighted DAG + algorithms (priority indicators, longest path)
//   ops/     operator taxonomy, shape inference, CPU reference kernels
//   models/  Inception-v3, NASNet-A, random layered DAGs, toy graphs
//   cost/    GPU/interconnect specs, analytical + table cost models
//   sched/   Sequential, IOS, HIOS-LP, HIOS-MR (+ inter-GPU-only ablations)
//   fault/   deterministic fault-injection plans (fail-stop, links, stragglers)
//   sim/     stage- and op-level discrete-event simulators, trace export
//   runtime/ virtual-GPU engine (stage-order walk, modelled transfers, real
//            tensors) + failover rescheduling onto surviving GPUs
//   serve/   multi-tenant serving: admission queue, stream slots, schedule
//            cache, metrics
//   core/    pipeline + experiment helpers
//
// The test oracles (brute-force optimal schedulers, the from-scratch
// evaluator and simulators) live in tests/oracles/, outside this API.
#pragma once

#include "core/experiment.h"
#include "core/memory.h"
#include "core/pipeline.h"
#include "cost/analytical_model.h"
#include "cost/gpu_spec.h"
#include "cost/remap_model.h"
#include "cost/table_model.h"
#include "fault/fault_plan.h"
#include "graph/algorithms.h"
#include "graph/dot.h"
#include "graph/graph.h"
#include "graph/graph_json.h"
#include "graph/longest_path.h"
#include "models/examples.h"
#include "models/inception.h"
#include "models/nasnet.h"
#include "models/random_dag.h"
#include "models/randwire.h"
#include "models/resnet.h"
#include "models/squeezenet.h"
#include "ops/kernels.h"
#include "ops/model.h"
#include "runtime/engine.h"
#include "runtime/failover.h"
#include "sched/bounds.h"
#include "sched/evaluate.h"
#include "sched/ios_intra.h"
#include "sched/parallelize.h"
#include "sched/residual.h"
#include "sched/schedule.h"
#include "sched/scheduler.h"
#include "sched/validate.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "serve/schedule_cache.h"
#include "serve/server.h"
#include "sim/event_sim.h"
#include "sim/pipeline_sim.h"
#include "sim/svg_export.h"
#include "sim/timeline.h"
#include "util/args.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
