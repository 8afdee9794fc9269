// CostModel: the single interface every scheduler consumes (§III-B).
//
// The problem definition gives the scheduler three quantities:
//   t(v)   — node weight of the computation graph (time alone on a GPU),
//   t(u,v) — edge weight (transfer time when u, v are on different GPUs),
//   t(S)   — concurrent execution time of an independent op set S on one GPU.
// t(v) and t(u,v) are stored directly on the graph; t(S) comes from
// stage_time(). Both concrete models share the malleable-task contention
// formula below, which encodes the paper's §II-A observations.
#pragma once

#include <span>
#include <vector>

#include "cost/topology.h"
#include "graph/graph.h"

namespace hios::cost {

/// Concurrent execution time of ops with solo times `t` and resource
/// demands `r` (fraction of one GPU each op can saturate, in (0, 1]):
///
///   base = max(max_i t_i, sum_i r_i * t_i)          — malleable-task bound
///   if sum r > 1: base *= 1 + kappa * (sum r - 1)   — contention penalty
///   total = base + stream_overhead * (|S| - 1)      — extra CUDA streams
///
/// With one op this returns exactly t_0. Small ops (r << 1) overlap almost
/// perfectly; saturating ops (r = 1) run no faster than sequential and pay
/// the contention penalty, reproducing Fig. 1.
double contention_stage_time(std::span<const double> times, std::span<const double> demands,
                             double kappa, double stream_overhead_ms);

/// Interface supplying t(S) for a given computation graph's node ids.
class CostModel {
 public:
  virtual ~CostModel() = default;

  /// Execution time (ms) of the independent set `stage` running
  /// concurrently from a common start time on one GPU.
  /// Contract: stage_time({v}) == g.node_weight(v).
  virtual double stage_time(const graph::Graph& g,
                            std::span<const graph::NodeId> stage) const = 0;

  /// Resource demand r(v) in (0,1] — informational (used by benchmarks).
  virtual double demand(const graph::Graph& g, graph::NodeId v) const = 0;

  /// Transfer time of edge `e` when its producer runs on `src_gpu` and its
  /// consumer on `dst_gpu`: transfer_time(edge weight, src_gpu, dst_gpu).
  double transfer_time(const graph::Graph& g, graph::EdgeId e, int src_gpu,
                       int dst_gpu) const {
    return transfer_time(g.edge(e).weight, src_gpu, dst_gpu);
  }

  /// Transfer time of an edge of base weight `weight` (the t(u,v) stored
  /// on the graph). Zero when co-located. Without a Topology the machine
  /// is symmetric (every pair = the base link, i.e. the edge weight); with
  /// one, the weight is scaled by the pair's link class. Inner loops that
  /// hoist edge weights call this form.
  double transfer_time(double weight, int src_gpu, int dst_gpu) const {
    if (src_gpu == dst_gpu) return 0.0;
    if (!topology_.empty()) return topology_.apply(weight, src_gpu, dst_gpu);
    return weight;
  }

  /// Installs a per-pair topology (empty = symmetric machine).
  void set_topology(Topology topology) { topology_ = std::move(topology); }
  const Topology& topology() const { return topology_; }

  // --- Heterogeneous-GPU extension ------------------------------------
  // The paper restricts to M *homogeneous* GPUs (§III-B). Relative speed
  // factors generalise t(v) and t(S) per GPU: factor 2.0 means that GPU
  // runs compute twice as fast as the baseline the graph was profiled
  // for. Empty (default) = homogeneous, all behaviour unchanged.

  /// Installs per-GPU relative speeds (must all be > 0).
  void set_speed_factors(std::vector<double> factors);
  const std::vector<double>& speed_factors() const { return speeds_; }

  /// Relative speed of `gpu` (1.0 when homogeneous).
  double speed(int gpu) const {
    if (speeds_.empty()) return 1.0;
    HIOS_CHECK(gpu >= 0 && static_cast<std::size_t>(gpu) < speeds_.size(),
               "speed factor for unknown gpu " << gpu);
    return speeds_[static_cast<std::size_t>(gpu)];
  }

  /// t(v) on a specific GPU.
  double node_time(const graph::Graph& g, graph::NodeId v, int gpu) const {
    return g.node_weight(v) / speed(gpu);
  }

  /// t(S) on a specific GPU.
  double stage_time_on(const graph::Graph& g, std::span<const graph::NodeId> stage,
                       int gpu) const {
    return stage_time(g, stage) / speed(gpu);
  }

 private:
  Topology topology_;
  std::vector<double> speeds_;
};

}  // namespace hios::cost
