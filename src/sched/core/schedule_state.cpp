#include "sched/core/schedule_state.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace hios::sched {

ScheduleState::ScheduleState(const graph::CompiledGraph& cg, const cost::CostModel& cost)
    : cg_(cg), cost_(cost) {}

template <typename F>
void ScheduleState::for_each_successor(int sid, F&& f) const {
  const std::size_t s = static_cast<std::size_t>(sid);
  const auto& list = gpu_list_[static_cast<std::size_t>(stage_gpu_[s])];
  const std::size_t next = static_cast<std::size_t>(pos_of_[s]) + 1;
  if (next < list.size()) f(list[next], 0.0);
  for_each_data_successor(sid, f);
}

template <typename F>
void ScheduleState::for_each_data_successor(int sid, F&& f) const {
  const graph::NodeId* const dst = cg_.out_dst();
  for (graph::NodeId v : ops_[static_cast<std::size_t>(sid)]) {
    const auto u = static_cast<std::size_t>(v);
    for (std::size_t k = cg_.out_slot(u); k < cg_.out_slot(u + 1); ++k) {
      const int sv = node_stage_[static_cast<std::size_t>(dst[k])];
      if (sv >= 0 && sv != sid) f(sv, out_transfer_[k]);
    }
  }
}

void ScheduleState::load(const Schedule& schedule) {
  const std::size_t n = cg_.num_nodes();
  num_gpus_ = schedule.num_gpus;
  HIOS_CHECK(num_gpus_ >= 1, "ScheduleState: schedule has no GPUs");
  HIOS_CHECK(schedule.gpus.size() == static_cast<std::size_t>(num_gpus_),
             "ScheduleState: " << schedule.gpus.size() << " GPU stage lists for num_gpus "
                               << num_gpus_);

  stage_gpu_.clear();
  ops_.clear();
  alive_.clear();
  pos_of_.clear();
  gpu_list_.assign(static_cast<std::size_t>(num_gpus_), {});
  node_stage_.assign(n, -1);
  pending_.reset();
  committed_ = false;
  stages_retimed_ = 0;
  scored_ = {};

  for (int gpu = 0; gpu < num_gpus_; ++gpu) {
    const auto& stages = schedule.gpus[static_cast<std::size_t>(gpu)];
    for (std::size_t s = 0; s < stages.size(); ++s) {
      HIOS_CHECK(!stages[s].ops.empty(), "empty stage " << s << " on GPU " << gpu);
      const int sid = static_cast<int>(ops_.size());
      for (graph::NodeId v : stages[s].ops) {
        HIOS_CHECK(v >= 0 && static_cast<std::size_t>(v) < n,
                   "schedule references node " << v);
        HIOS_CHECK(node_stage_[static_cast<std::size_t>(v)] == -1,
                   "node " << v << " appears in two stages");
        node_stage_[static_cast<std::size_t>(v)] = sid;
      }
      stage_gpu_.push_back(gpu);
      ops_.push_back(stages[s].ops);
      alive_.push_back(1);
      pos_of_.push_back(static_cast<int>(gpu_list_[static_cast<std::size_t>(gpu)].size()));
      gpu_list_[static_cast<std::size_t>(gpu)].push_back(sid);
    }
  }
  alive_count_ = ops_.size();

  const std::size_t cap = ops_.size();
  ready_.assign(cap, 0.0);
  finish_.assign(cap, 0.0);
  in_deg_.assign(cap, 0);
  mark_.assign(cap, 0);
  mark_gen_ = 0;
  frontier_.clear();
  frontier_.reserve(cap);

  const graph::Graph& g = cg_.graph();
  stage_time_.resize(cap);
  for (std::size_t sid = 0; sid < cap; ++sid) {
    stage_time_[sid] = cost_.stage_time_on(
        g, std::span<const graph::NodeId>(ops_[sid]), stage_gpu_[sid]);
  }
  // Each edge's transfer sits at its in-slot and at its out-slot.
  const auto gpu_of = [&](graph::NodeId v) {
    const int sid = node_stage_[static_cast<std::size_t>(v)];
    return sid < 0 ? -1 : stage_gpu_[static_cast<std::size_t>(sid)];
  };
  const auto transfer = [&](graph::EdgeId e) {
    const graph::Edge& edge = g.edge(e);
    const int a = gpu_of(edge.src), b = gpu_of(edge.dst);
    return a < 0 || b < 0 ? 0.0 : cost_.transfer_time(edge.weight, a, b);
  };
  in_transfer_.resize(g.num_edges());
  out_transfer_.resize(g.num_edges());
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(n); ++v) {
    std::size_t k = cg_.in_slot(static_cast<std::size_t>(v));
    for (graph::EdgeId e : cg_.in_edges(v)) in_transfer_[k++] = transfer(e);
    k = cg_.out_slot(static_cast<std::size_t>(v));
    for (graph::EdgeId e : cg_.out_edges(v)) out_transfer_[k++] = transfer(e);
  }

  seen_.assign(cap, 0);
  seen_gen_ = 0;
  stages_searched_ = 0;
  // A cyclic stage data graph deadlocks (run_eval reports nullopt); load()
  // stays total by calling every pair dependent.
  data_cyclic_ = !data_acyclic();
}

void ScheduleState::require_complete() const {
  for (std::size_t v = 0; v < node_stage_.size(); ++v) {
    const auto node = static_cast<graph::NodeId>(v);
    HIOS_CHECK(node_stage_[v] >= 0,
               "node " << v << " ('" << cg_.graph().node_name(node) << "') missing from schedule");
  }
}

bool ScheduleState::data_acyclic() {
  for (std::size_t s = 0; s < ops_.size(); ++s)  // in_deg_ is all zero after load()
    for_each_data_successor(static_cast<int>(s),
                            [&](int t, double) { ++in_deg_[static_cast<std::size_t>(t)]; });
  frontier_.clear();
  for (std::size_t s = 0; s < ops_.size(); ++s)
    if (in_deg_[s] == 0) frontier_.push_back(static_cast<int>(s));
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    for_each_data_successor(frontier_[i], [&](int t, double) {
      if (--in_deg_[static_cast<std::size_t>(t)] == 0) frontier_.push_back(t);
    });
  }
  return frontier_.size() == ops_.size();
}

bool ScheduleState::stages_independent(int a, int b) const {
  HIOS_ASSERT(!pending_.has_value(), "stages_independent: a merge is pending");
  if (a == b || data_cyclic_) return false;
  // Depth-first over data successors from `from`, expanding only stages
  // ranked below `limit` (all of them when limit < 0).
  const auto reaches = [&](int from, int to, int limit) {
    seen_[static_cast<std::size_t>(from)] = ++seen_gen_;
    search_.assign(1, from);
    bool found = false;
    while (!search_.empty() && !found) {
      const int s = search_.back();
      search_.pop_back();
      ++stages_searched_;
      for_each_data_successor(s, [&](int t, double) {
        found = found || t == to;
        if (seen_[static_cast<std::size_t>(t)] != seen_gen_ &&
            (limit < 0 || rank_[static_cast<std::size_t>(t)] < limit)) {
          seen_[static_cast<std::size_t>(t)] = seen_gen_;
          search_.push_back(t);
        }
      });
    }
    return found;
  };
  if (!committed_) return !reaches(a, b, -1) && !reaches(b, a, -1);
  // Committed ranks order every data edge, so a path between the two runs
  // from the lower-ranked stage up, through ranks strictly in between.
  if (rank_[static_cast<std::size_t>(a)] > rank_[static_cast<std::size_t>(b)]) std::swap(a, b);
  return !reaches(a, b, rank_[static_cast<std::size_t>(b)]);
}

void ScheduleState::apply_merge(int gpu, int pos, int extent) {
  HIOS_CHECK(!pending_.has_value(), "apply_merge: a merge is already pending");
  HIOS_CHECK(gpu >= 0 && gpu < num_gpus_, "apply_merge: bad gpu " << gpu);
  auto& list = gpu_list_[static_cast<std::size_t>(gpu)];
  HIOS_CHECK(pos >= 0 && extent >= 1 && static_cast<std::size_t>(pos + extent) < list.size(),
             "apply_merge: window [" << pos << ", " << pos + extent << "] out of range");

  PendingMerge p;
  p.gpu = gpu;
  p.pos = pos;
  p.rep = list[static_cast<std::size_t>(pos)];
  p.rep_ops_before = ops_[static_cast<std::size_t>(p.rep)].size();
  p.rep_time_before = stage_time_[static_cast<std::size_t>(p.rep)];
  removed_.clear();
  for (int k = 1; k <= extent; ++k) removed_.push_back(list[static_cast<std::size_t>(pos + k)]);

  auto& rep_ops = ops_[static_cast<std::size_t>(p.rep)];
  for (int sid : removed_) {
    for (graph::NodeId v : ops_[static_cast<std::size_t>(sid)]) {
      node_stage_[static_cast<std::size_t>(v)] = p.rep;
      rep_ops.push_back(v);
    }
    alive_[static_cast<std::size_t>(sid)] = 0;
    pos_of_[static_cast<std::size_t>(sid)] = -1;
  }
  list.erase(list.begin() + pos + 1, list.begin() + pos + 1 + extent);
  for (std::size_t i = static_cast<std::size_t>(pos) + 1; i < list.size(); ++i)
    pos_of_[static_cast<std::size_t>(list[i])] = static_cast<int>(i);
  alive_count_ -= removed_.size();
  stage_time_[static_cast<std::size_t>(p.rep)] = cost_.stage_time_on(
      cg_.graph(), std::span<const graph::NodeId>(rep_ops), gpu);
  pending_ = p;
}

void ScheduleState::undo_merge() {
  HIOS_CHECK(pending_.has_value(), "undo_merge: no pending merge");
  const PendingMerge& p = *pending_;
  ops_[static_cast<std::size_t>(p.rep)].resize(p.rep_ops_before);
  stage_time_[static_cast<std::size_t>(p.rep)] = p.rep_time_before;
  auto& list = gpu_list_[static_cast<std::size_t>(p.gpu)];
  list.insert(list.begin() + p.pos + 1, removed_.begin(), removed_.end());
  for (int sid : removed_) {
    alive_[static_cast<std::size_t>(sid)] = 1;
    for (graph::NodeId v : ops_[static_cast<std::size_t>(sid)])
      node_stage_[static_cast<std::size_t>(v)] = sid;
  }
  for (std::size_t i = static_cast<std::size_t>(p.pos) + 1; i < list.size(); ++i)
    pos_of_[static_cast<std::size_t>(list[i])] = static_cast<int>(i);
  alive_count_ += removed_.size();
  pending_.reset();
}

void ScheduleState::commit_merge() {
  HIOS_CHECK(pending_.has_value(), "commit_merge: no pending merge");
  if (committed_) {
    // Carry the committed timing over: reuse the entries of the propagation
    // improves_on() just completed for this merge, else run it without a
    // bound.
    std::optional<double> latency = scored_.latency;
    if (scored_.rep != pending_->rep || scored_.extent != removed_.size())
      latency = propagate(std::numeric_limits<double>::infinity());
    committed_ = latency.has_value();
    if (committed_) {
      for (const Retimed& e : retimed_) {
        cur_finish_[static_cast<std::size_t>(e.sid)] = e.finish;
        committed_ready_[static_cast<std::size_t>(e.sid)] = e.ready;
      }
      committed_latency_ = *latency;
      rerank_merge_window();
    }
  }
  scored_ = {};
  pending_.reset();
}

bool ScheduleState::run_eval() {
  // Kahn pass over the stage DAG. In-degrees count chain and data edges
  // with repeats, exactly as the pops below decrement them; a chain edge
  // adds 0 transfer.
  for (const auto& list : gpu_list_) {
    for (int sid : list) {
      in_deg_[static_cast<std::size_t>(sid)] = 0;
      ready_[static_cast<std::size_t>(sid)] = 0.0;
    }
  }
  for (const auto& list : gpu_list_)
    for (int sid : list)
      for_each_successor(sid, [&](int t, double) { ++in_deg_[static_cast<std::size_t>(t)]; });

  frontier_.clear();
  for (const auto& list : gpu_list_)
    for (int sid : list)
      if (in_deg_[static_cast<std::size_t>(sid)] == 0) frontier_.push_back(sid);

  std::size_t processed = 0;
  std::size_t head = 0;
  double latency = 0.0;
  while (head < frontier_.size()) {
    const int s = frontier_[head++];
    ++processed;
    const double t_start = ready_[static_cast<std::size_t>(s)];
    const double t_finish = t_start + stage_time_[static_cast<std::size_t>(s)];
    finish_[static_cast<std::size_t>(s)] = t_finish;
    latency = std::max(latency, t_finish);
    for_each_successor(s, [&](int t, double transfer) {
      ready_[static_cast<std::size_t>(t)] =
          std::max(ready_[static_cast<std::size_t>(t)], t_finish + transfer);
      if (--in_deg_[static_cast<std::size_t>(t)] == 0) frontier_.push_back(t);
    });
  }
  latency_ = latency;
  stages_retimed_ += processed;
  if (processed != alive_count_) return false;
  if (!pending_ && !committed_) {
    // The first full evaluation of a committed state seeds the timing that
    // improves_on() propagates from; frontier_ holds its Kahn order.
    committed_ = true;
    committed_latency_ = latency_;
    cur_finish_ = finish_;
    committed_ready_ = ready_;
    at_rank_.assign(frontier_.begin(), frontier_.end());
    rank_.assign(ops_.size(), -1);
    for (std::size_t r = 0; r < at_rank_.size(); ++r)
      rank_[static_cast<std::size_t>(at_rank_[r])] = static_cast<int>(r);
    queued_.assign((at_rank_.size() + 63) / 64, 0);
  }
  return true;
}

double ScheduleState::ready_of(int sid) const {
  // run_eval's recurrence over the same operands: max over the chain
  // predecessor and every data input (the caller adds t(S)).
  const graph::NodeId* const src = cg_.in_src();
  const double* const fin = cur_finish_.data();
  const std::size_t s = static_cast<std::size_t>(sid);
  double ready = 0.0;
  if (pos_of_[s] > 0) {
    const auto& list = gpu_list_[static_cast<std::size_t>(stage_gpu_[s])];
    ready = fin[list[static_cast<std::size_t>(pos_of_[s] - 1)]];
  }
  for (graph::NodeId v : ops_[s]) {
    const auto u = static_cast<std::size_t>(v);
    for (std::size_t k = cg_.in_slot(u); k < cg_.in_slot(u + 1); ++k) {
      const int su = node_stage_[static_cast<std::size_t>(src[k])];
      if (su >= 0 && su != sid) ready = std::max(ready, fin[su] + in_transfer_[k]);
    }
  }
  return ready;
}

bool ScheduleState::merge_deadlocks() {
  // The committed state is acyclic, so a cycle must pass through the
  // merged stage: some successor of it reaches a member. Every stage on
  // such a path ranks below that member, so the search stays under the
  // highest member rank — the members form a chain on one GPU, so that is
  // the last one's.
  const PendingMerge& p = *pending_;
  const int limit = rank_[static_cast<std::size_t>(removed_.back())];
  ++mark_gen_;
  frontier_.clear();
  bool cycle = false;
  const auto visit = [&](int s, double) {
    if (s == p.rep) {
      cycle = true;
    } else if (rank_[static_cast<std::size_t>(s)] < limit &&
               mark_[static_cast<std::size_t>(s)] != mark_gen_) {
      mark_[static_cast<std::size_t>(s)] = mark_gen_;
      frontier_.push_back(s);
    }
  };
  for_each_successor(p.rep, visit);
  for (std::size_t i = 0; i < frontier_.size() && !cycle; ++i)
    for_each_successor(frontier_[i], visit);
  return cycle;
}

std::optional<double> ScheduleState::propagate(double bound) {
  const PendingMerge& p = *pending_;
  const auto rep = static_cast<std::size_t>(p.rep);
  scored_ = {};
  retimed_.clear();
  const double rep_ready = ready_of(p.rep);
  const double rep_finish = rep_ready + stage_time_[rep];
  ++stages_retimed_;
  if (rep_finish >= bound) return std::nullopt;

  // Monotone reject: finishing no earlier than the latest member, the
  // merged stage feeds every downstream input a value >= the old one, and
  // max and rounded + are monotone, so the latency stays >= the committed
  // one, which is >= bound.
  double members_finish = cur_finish_[rep];
  for (int m : removed_)
    members_finish = std::max(members_finish, cur_finish_[static_cast<std::size_t>(m)]);
  if (rep_finish >= members_finish && bound <= committed_latency_) return std::nullopt;
  if (merge_deadlocks()) return std::nullopt;

  // Change propagation in committed-rank order. Outside the merged stage
  // every edge is a committed one, so an input always ranks below its
  // consumer: each stage is popped once, after all its changed inputs. A
  // re-timed stage whose ready time or finish moved writes its finish into
  // cur_finish_ and keeps the committed one in its retimed_ entry.
  retimed_.push_back({p.rep, cur_finish_[rep], rep_ready});
  cur_finish_[rep] = rep_finish;
  std::size_t popped = static_cast<std::size_t>(rank_[rep]);
  std::size_t word = popped / 64;
  std::size_t last_word = word;
  const auto queue = [&](int s) {
    const std::size_t r = static_cast<std::size_t>(rank_[static_cast<std::size_t>(s)]);
    HIOS_ASSERT(r > popped, "propagate: stage " << s << " ranks below its input");
    queued_[r / 64] |= uint64_t{1} << (r % 64);
    last_word = std::max(last_word, r / 64);
  };
  // The merged stage's successors have a new input set: each is re-timed.
  for_each_successor(p.rep, [&](int t, double) { queue(t); });
  for (; word <= last_word; ++word) {
    while (queued_[word] != 0) {
      popped = word * 64 + static_cast<std::size_t>(std::countr_zero(queued_[word]));
      queued_[word] &= queued_[word] - 1;
      const int s = at_rank_[popped];
      const auto si = static_cast<std::size_t>(s);
      const double ready = ready_of(s);
      const double finish = ready + stage_time_[si];
      ++stages_retimed_;
      if (finish >= bound) {
        std::fill(queued_.begin() + static_cast<std::ptrdiff_t>(word),
                  queued_.begin() + static_cast<std::ptrdiff_t>(last_word) + 1, 0);
        restore_committed();
        return std::nullopt;
      }
      const double old = cur_finish_[si];
      const bool moved = std::bit_cast<uint64_t>(finish) != std::bit_cast<uint64_t>(old);
      // Rounding can absorb a move of the ready time into the same finish;
      // the committed ready time must follow it all the same.
      if (moved ||
          std::bit_cast<uint64_t>(ready) != std::bit_cast<uint64_t>(committed_ready_[si])) {
        retimed_.push_back({s, old, ready});
        cur_finish_[si] = finish;
      }
      if (!moved) continue;
      // Push filter: a successor's ready time is an exact max over its
      // inputs. Unless this input was its max (old + transfer equals it)
      // or now exceeds it, the max holds whatever this input became; an
      // input that was the max queues the successor itself.
      for_each_successor(s, [&](int t, double transfer) {
        const double r = committed_ready_[static_cast<std::size_t>(t)];
        if (finish + transfer > r || old + transfer == r) queue(t);
      });
    }
  }

  // A stage finishes no earlier than its chain predecessor (t(S) >= 0), so
  // the latency is the latest GPU tail.
  double latency = 0.0;
  for (const auto& list : gpu_list_)
    if (!list.empty())
      latency = std::max(latency, cur_finish_[static_cast<std::size_t>(list.back())]);
  restore_committed();
  if (latency >= bound) return std::nullopt;
  return latency;
}

void ScheduleState::restore_committed() {
  for (Retimed& e : retimed_) std::swap(e.finish, cur_finish_[static_cast<std::size_t>(e.sid)]);
}

void ScheduleState::rerank_merge_window() {
  // Only the ranks from the merged stage's to the last member's can break:
  // the merged stage must now follow its members' inputs, which rank in
  // between. A local Kahn pass over the alive stages of that window puts
  // them first; the window's dead slots (members, and stages merged away
  // earlier) follow.
  const PendingMerge& p = *pending_;
  const int lo = rank_[static_cast<std::size_t>(p.rep)];
  const int hi = rank_[static_cast<std::size_t>(removed_.back())];
  const auto in_window = [&](int s) {
    const int r = rank_[static_cast<std::size_t>(s)];
    return alive_[static_cast<std::size_t>(s)] && r >= lo && r <= hi;
  };
  for (int r = lo; r <= hi; ++r) {
    const int s = at_rank_[static_cast<std::size_t>(r)];
    if (alive_[static_cast<std::size_t>(s)]) in_deg_[static_cast<std::size_t>(s)] = 0;
  }
  for (int r = lo; r <= hi; ++r) {
    const int s = at_rank_[static_cast<std::size_t>(r)];
    if (!alive_[static_cast<std::size_t>(s)]) continue;
    for_each_successor(s, [&](int t, double) {
      if (in_window(t)) ++in_deg_[static_cast<std::size_t>(t)];
    });
  }
  frontier_.clear();
  for (int r = lo; r <= hi; ++r) {
    const int s = at_rank_[static_cast<std::size_t>(r)];
    if (alive_[static_cast<std::size_t>(s)] && in_deg_[static_cast<std::size_t>(s)] == 0)
      frontier_.push_back(s);
  }
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    for_each_successor(frontier_[i], [&](int t, double) {
      if (in_window(t) && --in_deg_[static_cast<std::size_t>(t)] == 0) frontier_.push_back(t);
    });
  }
  int dead_from = hi + 1;  // compact the dead slots to the top, in order
  for (int r = hi; r >= lo; --r) {
    const int s = at_rank_[static_cast<std::size_t>(r)];
    if (!alive_[static_cast<std::size_t>(s)]) at_rank_[static_cast<std::size_t>(--dead_from)] = s;
  }
  HIOS_ASSERT(static_cast<int>(frontier_.size()) == dead_from - lo,
              "rerank_merge_window: cycle inside the merge window");
  std::copy(frontier_.begin(), frontier_.end(), at_rank_.begin() + lo);
  for (int r = lo; r <= hi; ++r)
    rank_[static_cast<std::size_t>(at_rank_[static_cast<std::size_t>(r)])] = r;
}

std::optional<double> ScheduleState::evaluate_latency() {
  if (!run_eval()) return std::nullopt;
  return latency_;
}

std::optional<double> ScheduleState::improves_on(double bound) {
  HIOS_CHECK(pending_.has_value(), "improves_on: no pending merge");
  if (!committed_) {
    const auto full = evaluate_latency();
    if (!full.has_value() || *full >= bound) return std::nullopt;
    return full;
  }
  const auto latency = propagate(bound);
  if (latency.has_value())
    scored_ = {pending_->rep, removed_.size(), *latency};
  return latency;
}

std::optional<Evaluation> ScheduleState::evaluate() {
  if (!run_eval()) return std::nullopt;
  Evaluation eval;
  eval.latency_ms = latency_;
  eval.stage_of.assign(cg_.num_nodes(), -1);
  eval.stages.reserve(alive_count_);
  for (int gpu = 0; gpu < num_gpus_; ++gpu) {
    const auto& list = gpu_list_[static_cast<std::size_t>(gpu)];
    for (std::size_t i = 0; i < list.size(); ++i) {
      const int sid = list[i];
      const int flat = static_cast<int>(eval.stages.size());
      for (graph::NodeId v : ops_[static_cast<std::size_t>(sid)])
        eval.stage_of[static_cast<std::size_t>(v)] = flat;
      eval.stages.push_back(StageTiming{gpu, static_cast<int>(i),
                                        ready_[static_cast<std::size_t>(sid)],
                                        finish_[static_cast<std::size_t>(sid)]});
    }
  }
  return eval;
}

Schedule ScheduleState::extract() const {
  Schedule schedule(num_gpus_);
  for (int gpu = 0; gpu < num_gpus_; ++gpu) {
    auto& stages = schedule.gpus[static_cast<std::size_t>(gpu)];
    stages.reserve(gpu_list_[static_cast<std::size_t>(gpu)].size());
    for (int sid : gpu_list_[static_cast<std::size_t>(gpu)])
      stages.push_back(Stage{ops_[static_cast<std::size_t>(sid)]});
  }
  return schedule;
}

}  // namespace hios::sched
