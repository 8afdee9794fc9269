#include "sched/core/list_state.h"

#include <algorithm>
#include <array>

namespace hios::sched {

ListScheduleState::ListScheduleState(const graph::CompiledGraph& cg, int num_gpus,
                                     const cost::CostModel& cost)
    : cg_(cg), cost_(cost), n_(cg.num_nodes()) {
  HIOS_CHECK(num_gpus > 0, "need at least one GPU");
  const graph::Graph& g = cg_.graph();
  const auto& order = cg_.priority_order();
  m_ = static_cast<std::size_t>(num_gpus);
  mapping_.assign(n_, -1);
  gpu_.assign(n_, -1);
  mapped_ = DynBitset(n_);
  on_gpu_.assign(m_, DynBitset(n_));
  // The walk's cost-model inputs, hoisted: t(v) by rank, each GPU's speed
  // and each in-edge's base weight. node_time and transfer_time are these
  // operands through the same arithmetic.
  in_head_.reserve(n_ + 1);
  in_.reserve(cg_.num_edges());
  node_weight_.resize(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    in_head_.push_back(in_.size());
    const graph::NodeId v = order[r];
    node_weight_[r] = g.node_weight(v);
    for (graph::EdgeId e : cg_.in_edges(v)) in_.push_back({rank(g.edge(e).src), g.edge(e).weight});
  }
  in_head_.push_back(in_.size());
  speed_.resize(m_);
  for (std::size_t q = 0; q < m_; ++q) speed_[q] = cost.speed(static_cast<int>(q));
  finish_.assign(n_ * m_, -1.0);
  lane_buf_.assign(m_ * m_ + 2 * m_, 0.0);
  dirty_from_ = n_;  // empty mapping: latency 0, nothing to recompute
}

void ListScheduleState::set_gpu(graph::NodeId v, int gpu) {
  HIOS_CHECK(v >= 0 && static_cast<std::size_t>(v) < n_, "set_gpu: bad node " << v);
  HIOS_CHECK(gpu >= -1 && gpu < static_cast<int>(m_),
             "set_gpu: mapping[" << v << "] = " << gpu << " out of range");
  if (mapping_[static_cast<std::size_t>(v)] == gpu) return;
  const std::size_t r = rank(v);
  if (gpu_[r] >= 0) on_gpu_[static_cast<std::size_t>(gpu_[r])].set(r, false);
  mapping_[static_cast<std::size_t>(v)] = gpu;
  gpu_[r] = gpu;
  mapped_.set(r, gpu >= 0);
  if (gpu >= 0) on_gpu_[static_cast<std::size_t>(gpu)].set(r);
  if (gpu < 0) finish_[r * m_] = -1.0;
  dirty_from_ = std::min(dirty_from_, r);
}

double ListScheduleState::latency() {
  if (dirty_from_ < n_) {
    walk<1>(dirty_from_);
    latency_ = lane_latency()[0];
    dirty_from_ = n_;
  }
  return latency_;
}

ListScheduleState::Placement ListScheduleState::place_path(
    std::span<const graph::NodeId> path) {
  for (graph::NodeId v : path)
    HIOS_CHECK(v >= 0 && static_cast<std::size_t>(v) < n_, "place_path: bad node " << v);
  if (m_ == 1 || path.empty()) {
    for (graph::NodeId v : path) set_gpu(v, 0);
    return {0, latency()};
  }
  std::size_t from = dirty_from_;
  for (graph::NodeId v : path) {
    const std::size_t r = rank(v);
    if (gpu_[r] >= 0) on_gpu_[static_cast<std::size_t>(gpu_[r])].set(r, false);
    gpu_[r] = kOnPath;
    mapped_.set(r);
    from = std::min(from, r);
  }
  switch (m_) {
    case 2: walk<2>(from); break;
    case 3: walk<3>(from); break;
    case 4: walk<4>(from); break;
    case 5: walk<5>(from); break;
    case 6: walk<6>(from); break;
    case 7: walk<7>(from); break;
    case 8: walk<8>(from); break;
    default: walk<0>(from); break;
  }
  const double* lat = lane_latency();
  std::size_t best = 0;
  for (std::size_t k = 1; k < m_; ++k)
    if (lat[k] < lat[best]) best = k;
  latency_ = lat[best];
  dirty_from_ = n_;
  // Commit: the winning lane's finishes become lane 0's, and the path
  // moves onto its GPU. Lane 0 needs no copy.
  if (best != 0)
    mapped_.for_each_from(from, [&](std::size_t r) { finish_[r * m_] = finish_[r * m_ + best]; });
  const auto gpu = static_cast<int>(best);
  for (graph::NodeId v : path) {
    const std::size_t r = rank(v);
    mapping_[static_cast<std::size_t>(v)] = gpu;
    gpu_[r] = gpu;
    on_gpu_[best].set(r);
  }
  return {gpu, latency_};
}

double ListScheduleState::start(graph::NodeId v) const {
  const std::size_t r = rank(v);
  const int gpu = gpu_[r];
  if (gpu < 0) return -1.0;
  // The walk's recurrence for rank r on its GPU: the GPU's tail before r,
  // then each mapped producer's finish plus its transfer.
  const std::size_t p = on_gpu_[static_cast<std::size_t>(gpu)].find_prev(r);
  double t = p < n_ ? finish_[p * m_] : 0.0;
  for (std::size_t i = in_head_[r]; i < in_head_[r + 1]; ++i) {
    const int src_gpu = gpu_[in_[i].src_rank];
    if (src_gpu == -1) continue;
    t = std::max(t, finish_[in_[i].src_rank * m_] +
                        cost_.transfer_time(in_[i].weight, src_gpu, gpu));
  }
  return t;
}

Schedule ListScheduleState::schedule() const {
  const auto& order = cg_.priority_order();
  Schedule s(static_cast<int>(m_));
  mapped_.for_each([&](std::size_t r) { s.push_op(gpu_[r], order[r]); });
  return s;
}

template <int kLanes>
void ListScheduleState::walk(std::size_t from) {
  const std::size_t L = kLanes > 0 ? static_cast<std::size_t>(kLanes) : m_;
  const std::size_t m = m_;
  const std::size_t n = n_;
  // Lane state: per-GPU tails GPU-major (GPU q of lane k at q * L + k) and
  // the start time being built, one per lane. Locals when the lane count is
  // fixed, so stores to the time arrays cannot alias them; one lane keeps
  // its m tails in lane_buf_.
  std::array<double, (kLanes > 1 ? kLanes * kLanes : 1)> cur_fixed{};
  std::array<double, (kLanes > 0 ? kLanes : 1)> t_fixed{};
  double* const lane_lat = lane_buf_.data() + m * m;
  double* const cur = kLanes > 1 ? cur_fixed.data() : lane_buf_.data();
  double* const t = kLanes > 0 ? t_fixed.data() : lane_lat + L;
  double* const fin = finish_.data();

  // Prefix state at `from`, the same in every lane: GPU q's tail is the
  // finish of its last mapped rank before `from` (0 when there is none).
  for (std::size_t q = 0; q < m; ++q) {
    const std::size_t p = on_gpu_[q].find_prev(from);
    std::fill_n(cur + q * L, L, p < n ? fin[p * m] : 0.0);
  }

  ++walks_;
  // The mapped ranks from `from` on, word by word: the body is too large
  // for for_each_from's callback to be inlined.
  for (std::size_t w = from >> 6; w < mapped_.num_words(); ++w) {
    uint64_t bits = mapped_.word(w);
    if (w == from >> 6) bits &= ~uint64_t{0} << (from & 63);
    for (; bits != 0; bits &= bits - 1) {
      const std::size_t r = w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
      ++ranks_walked_;
      const int gpu = gpu_[r];
      const bool on_path = kLanes != 1 && gpu == kOnPath;
      // Lane k's GPU for this rank.
      const auto lane_gpu = [&](std::size_t k) {
        return on_path ? k : static_cast<std::size_t>(gpu);
      };
      for (std::size_t k = 0; k < L; ++k) t[k] = cur[lane_gpu(k) * L + k];
      for (std::size_t i = in_head_[r]; i < in_head_[r + 1]; ++i) {
        const InEdge& in = in_[i];
        const int src_gpu = gpu_[in.src_rank];
        if (src_gpu == -1) continue;
        // A producer before `from` was not re-timed: every lane reads its
        // committed finish in lane 0.
        const double* const src_fin = fin + in.src_rank * m;
        const std::size_t lane_mask = in.src_rank >= from ? ~std::size_t{0} : 0;
        if (on_path || src_gpu == kOnPath) {
          for (std::size_t k = 0; k < L; ++k) {
            const int a = src_gpu == kOnPath ? static_cast<int>(k) : src_gpu;
            const auto b = static_cast<int>(lane_gpu(k));
            t[k] = std::max(t[k], src_fin[k & lane_mask] + cost_.transfer_time(in.weight, a, b));
          }
        } else {
          const double transfer = cost_.transfer_time(in.weight, src_gpu, gpu);
          for (std::size_t k = 0; k < L; ++k)
            t[k] = std::max(t[k], src_fin[k & lane_mask] + transfer);
        }
      }
      // node_time's t(v) / speed, over the hoisted operands.
      const double weight = node_weight_[r];
      const double node = on_path ? 0.0 : weight / speed_[static_cast<std::size_t>(gpu)];
      for (std::size_t k = 0; k < L; ++k) {
        const double f = t[k] + (on_path ? weight / speed_[k] : node);
        fin[r * m + k] = f;
        cur[lane_gpu(k) * L + k] = f;
      }
    }
  }
  // Each finish starts at or after its GPU's tail and t(v) >= 0, so a GPU's
  // finishes never decrease: the largest tail is the running maximum of
  // every finish the pass produced, the lane's latency.
  for (std::size_t k = 0; k < L; ++k) {
    double lat = 0.0;
    for (std::size_t q = 0; q < m; ++q) lat = std::max(lat, cur[q * L + k]);
    lane_lat[k] = lat;
  }
}

}  // namespace hios::sched
