#include "sched/core/list_state.h"

#include <algorithm>

namespace hios::sched {

ListScheduleState::ListScheduleState(const graph::CompiledGraph& cg, int num_gpus,
                                     const cost::CostModel& cost)
    : cg_(cg), cost_(cost), num_gpus_(num_gpus), n_(cg.num_nodes()) {
  HIOS_CHECK(num_gpus_ > 0, "need at least one GPU");
  const graph::Graph& g = cg_.graph();
  const auto& order = cg_.priority_order();
  mapping_.assign(n_, -1);
  gpu_.assign(n_, -1);
  mapped_ = DynBitset(n_);
  in_head_.reserve(n_ + 1);
  in_.reserve(cg_.num_edges());
  for (std::size_t r = 0; r < n_; ++r) {
    in_head_.push_back(in_.size());
    for (graph::EdgeId e : cg_.in_edges(order[r])) in_.push_back({rank(g.edge(e).src), e});
  }
  in_head_.push_back(in_.size());
  start_.assign(n_, -1.0);
  finish_.assign(n_, -1.0);
  tails_.assign(n_ * static_cast<std::size_t>(num_gpus_), 0.0);
  lat_after_.assign(n_, 0.0);
  cur_.assign(static_cast<std::size_t>(num_gpus_), 0.0);
  dirty_from_ = n_;  // empty mapping: latency 0, nothing to recompute
}

void ListScheduleState::set_gpu(graph::NodeId v, int gpu) {
  HIOS_CHECK(v >= 0 && static_cast<std::size_t>(v) < n_, "set_gpu: bad node " << v);
  HIOS_CHECK(gpu < num_gpus_, "set_gpu: mapping[" << v << "] = " << gpu << " out of range");
  if (mapping_[static_cast<std::size_t>(v)] == gpu) return;
  const std::size_t r = rank(v);
  mapping_[static_cast<std::size_t>(v)] = gpu;
  gpu_[r] = gpu;
  mapped_.set(r, gpu >= 0);
  if (gpu < 0) start_[r] = finish_[r] = -1.0;
  dirty_from_ = std::min(dirty_from_, r);
}

double ListScheduleState::latency() {
  if (dirty_from_ < n_) recompute();
  return latency_;
}

Schedule ListScheduleState::schedule() const {
  const auto& order = cg_.priority_order();
  Schedule s(num_gpus_);
  mapped_.for_each([&](std::size_t r) { s.push_op(gpu_[r], order[r]); });
  return s;
}

void ListScheduleState::recompute() {
  const graph::Graph& g = cg_.graph();
  const auto& order = cg_.priority_order();
  const auto m = static_cast<std::size_t>(num_gpus_);

  // Prefix state: the checkpoint of the last mapped rank before dirty_from_
  // (all-zero tails and latency when there is none).
  const std::size_t prev = mapped_.find_prev(dirty_from_);
  double lat = 0.0;
  if (prev < n_) {
    std::copy_n(tails_.begin() + static_cast<std::ptrdiff_t>(prev * m), m, cur_.begin());
    lat = lat_after_[prev];
  } else {
    std::fill(cur_.begin(), cur_.end(), 0.0);
  }

  mapped_.for_each_from(dirty_from_, [&](std::size_t r) {
    ++ranks_walked_;
    const int gpu = gpu_[r];
    double t_start = cur_[static_cast<std::size_t>(gpu)];
    for (std::size_t k = in_head_[r]; k < in_head_[r + 1]; ++k) {
      const InEdge& in = in_[k];
      const int pred_gpu = gpu_[in.src_rank];
      if (pred_gpu < 0) continue;
      const double arrival = finish_[in.src_rank] + cost_.transfer_time(g, in.edge, pred_gpu, gpu);
      t_start = std::max(t_start, arrival);
    }
    const double t_finish = t_start + cost_.node_time(g, order[r], gpu);
    start_[r] = t_start;
    finish_[r] = t_finish;
    cur_[static_cast<std::size_t>(gpu)] = t_finish;
    lat = std::max(lat, t_finish);
    lat_after_[r] = lat;
    std::copy_n(cur_.begin(), m, tails_.begin() + static_cast<std::ptrdiff_t>(r * m));
  });
  latency_ = lat;
  dirty_from_ = n_;
}

}  // namespace hios::sched
