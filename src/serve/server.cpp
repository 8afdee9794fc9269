#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "cost/cost_model.h"
#include "runtime/engine.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace hios::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// True when `gpu` is inside an outage window at instant `t` ([from, to)).
bool outage_active(const std::vector<GpuOutage>& outages, int gpu, double t) {
  for (const GpuOutage& o : outages) {
    if (o.gpu == gpu && o.from_ms <= t && t < o.to_ms) return true;
  }
  return false;
}
}  // namespace

double stream_contention_scale(int concurrency, double demand, double kappa) {
  HIOS_CHECK(concurrency >= 1, "stream_contention_scale: concurrency must be >= 1");
  HIOS_CHECK(demand > 0.0, "stream_contention_scale: demand must be > 0");
  const std::vector<double> times(static_cast<std::size_t>(concurrency), 1.0);
  const std::vector<double> demands(static_cast<std::size_t>(concurrency), demand);
  return cost::contention_stage_time(times, demands, kappa, /*stream_overhead_ms=*/0.0);
}

void ServerOptions::validate() const {
  HIOS_CHECK(!platform.name.empty(), "ServerOptions: platform.name must not be empty");
  HIOS_CHECK(platform.num_gpus >= 1 && platform.num_gpus <= 32,
             "ServerOptions: platform.num_gpus must be in [1, 32] (got "
                 << platform.num_gpus << ")");
  HIOS_CHECK(slots_per_gpu >= 1,
             "ServerOptions: slots_per_gpu must be >= 1 (got " << slots_per_gpu << ")");
  HIOS_CHECK(queue_capacity >= 1, "ServerOptions: queue_capacity must be >= 1");
  HIOS_CHECK(!algorithm.empty(), "ServerOptions: algorithm must not be empty");
  HIOS_CHECK(request_demand > 0.0 && request_demand <= 1.0,
             "ServerOptions: request_demand must be in (0, 1] (got "
                 << request_demand << ")");
  HIOS_CHECK(max_retries >= 0,
             "ServerOptions: max_retries must be >= 0 (got " << max_retries << ")");
  HIOS_CHECK(retry_backoff_ms >= 0.0, "ServerOptions: retry_backoff_ms must be >= 0 (got "
                                          << retry_backoff_ms << ")");
  HIOS_CHECK(retry_backoff_multiplier >= 1.0,
             "ServerOptions: retry_backoff_multiplier must be >= 1 (got "
                 << retry_backoff_multiplier << ")");
  HIOS_CHECK(hedge_min_samples >= 1,
             "ServerOptions: hedge_min_samples must be >= 1 (got " << hedge_min_samples
                                                                   << ")");
  health.validate();
  for (std::size_t i = 0; i < outages.size(); ++i) {
    const GpuOutage& o = outages[i];
    HIOS_CHECK(o.gpu >= 0 && o.gpu < platform.num_gpus,
               "ServerOptions: outages[" << i << "].gpu " << o.gpu
                                         << " out of range [0, " << platform.num_gpus
                                         << ")");
    HIOS_CHECK(o.from_ms >= 0.0,
               "ServerOptions: outages[" << i << "].from_ms must be >= 0 (got "
                                         << o.from_ms << ")");
    HIOS_CHECK(o.to_ms > o.from_ms,
               "ServerOptions: outages[" << i << "].to_ms must be > from_ms");
  }
  // At every instant at least one GPU must survive. Concurrent-down count
  // only changes at window starts, so checking each start suffices.
  for (std::size_t i = 0; i < outages.size(); ++i) {
    std::set<int> down;
    for (const GpuOutage& o : outages) {
      if (o.from_ms <= outages[i].from_ms && outages[i].from_ms < o.to_ms) {
        down.insert(o.gpu);
      }
    }
    HIOS_CHECK(static_cast<int>(down.size()) < platform.num_gpus,
               "ServerOptions: outages leave no survivor GPU at t="
                   << outages[i].from_ms << " ms");
  }
}

ServerOptions Server::validated(ServerOptions options) {
  options.validate();
  return options;
}

sched::SchedulerConfig Server::effective_config(const ServerOptions& options) {
  sched::SchedulerConfig config = options.config;
  config.num_gpus = options.platform.num_gpus;
  return config;
}

Server::Server(ServerOptions options)
    : options_(validated(std::move(options))),
      config_(effective_config(options_)),
      cache_(options_.platform),
      health_(options_.platform.num_gpus, options_.health),
      pool_(cache_, options_.algorithm, config_) {
  metrics_.set_queue_capacity(options_.queue_capacity);
}

void Server::register_model(const std::string& name, ops::Model model) {
  HIOS_CHECK(!name.empty(), "register_model: name must not be empty");
  std::lock_guard<std::mutex> lock(models_mu_);
  models_.insert_or_assign(name, std::move(model));
}

const ops::Model& Server::model(const std::string& name) const {
  std::lock_guard<std::mutex> lock(models_mu_);
  auto it = models_.find(name);
  HIOS_CHECK(it != models_.end(), "unknown model '" << name << "'");
  // std::map node addresses are stable and models are never erased, so the
  // reference outlives the lock.
  return it->second;
}

std::shared_ptr<const CachedPlan> Server::lookup_plan(const std::string& model_name,
                                                      uint32_t mask) {
  const CacheLookup found =
      cache_.get(model(model_name), options_.algorithm, config_, TopologyVersion{mask});
  if (found.plan->topo_mask == kFullMask) {
    metrics_.on_cache_result(found.outcome);
  } else {
    metrics_.on_pool_result(found.outcome);
  }
  return found.plan;
}

Server::EngineOutcome Server::execute_plan(const ops::Model& model,
                                           const CachedPlan& plan) {
  EngineOutcome out;
  try {
    auto result = runtime::execute_schedule(model, plan.profiled.graph, plan.schedule,
                                            *plan.profiled.cost);
    out.outputs = std::move(result.outputs);
    out.timeline = std::move(result.timeline);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

ServeReport Server::run_trace(const Trace& trace) {
  struct Item {
    const Request* req = nullptr;
    std::shared_ptr<const CachedPlan> plan;       ///< full-topology plan
    std::shared_ptr<const CachedPlan> exec_plan;  ///< plan actually dispatched
    Response resp;
    std::size_t depth_at_admission = 0;  ///< queue depth right after admission
  };

  std::vector<Item> items(trace.requests.size());
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    items[i].req = &trace.requests[i];
    items[i].resp.id = trace.requests[i].id;
  }

  // Resolve (and cold-build) plans in sorted model-name order so cache
  // hit/miss counters are trace-order independent.
  std::vector<std::string> trace_models;
  {
    std::map<std::string, std::shared_ptr<const CachedPlan>> plans;
    for (const auto& item : items) plans[item.req->model] = nullptr;
    for (auto& [name, plan] : plans) {
      plan = lookup_plan(name);
      trace_models.push_back(name);
    }
    for (auto& item : items) item.plan = plans.at(item.req->model);
  }

  // --- health machinery (virtual time, DESIGN.md §6f) -------------------
  // Victim evidence is queued with its *detection* timestamp and only
  // applied when virtual time reaches it: a request dispatched before the
  // failure surfaced must still see the full mask (and become a victim
  // itself if it overlaps the outage).
  std::multimap<double, FaultEvidence> evidence;
  // Replays queued evidence and due probes in time order up to `t`; a
  // probe succeeds unless an outage window covers its GPU at that instant.
  // Each move of the health generation prewarms the survivor plans of the
  // trace's models (the current mask and each single-GPU-down subset).
  // `t` must be finite: a permanent outage reschedules probes forever.
  auto advance_health = [&](double t) {
    for (;;) {
      const double next_evidence = evidence.empty() ? kInf : evidence.begin()->first;
      const double next_probe = health_.next_probe_due_ms();
      if (std::min(next_evidence, next_probe) > t) break;
      if (next_evidence <= next_probe) {
        health_.observe(evidence.begin()->second);
        evidence.erase(evidence.begin());
      } else {
        for (int g : health_.take_due_probes(next_probe)) {
          const bool up = !outage_active(options_.outages, g, next_probe);
          health_.observe({up ? FaultEvidence::Kind::kProbeSuccess
                              : FaultEvidence::Kind::kProbeFailure,
                           g, next_probe});
        }
      }
      if (health_.generation() == warmed_) continue;
      warmed_ = health_.generation();
      for (const std::string& name : trace_models) {
        metrics_.on_pool_prewarm(pool_.prewarm(model(name), health_.up_mask(), 0));
      }
    }
  };

  // --- virtual-time admission + dispatch --------------------------------
  // Requests arrive in (arrival, id) order; K = num_lanes() stream slots
  // each hold one in-flight request. A request dispatched while k-1 others
  // overlap its start runs stream_contention_scale(k, ...) slower, frozen
  // at dispatch. Retries re-enter the pending set at their backoff-delayed
  // ready time.
  std::vector<Item*> order;
  order.reserve(items.size());
  for (auto& item : items) order.push_back(&item);
  std::stable_sort(order.begin(), order.end(), [](const Item* a, const Item* b) {
    if (a->req->arrival_ms != b->req->arrival_ms)
      return a->req->arrival_ms < b->req->arrival_ms;
    return a->req->id < b->req->id;
  });

  const int lanes = num_lanes();
  const double kappa = options_.platform.gpu.contention_kappa;
  std::vector<double> lane_free(static_cast<std::size_t>(lanes), 0.0);

  struct Entry {
    double ready = 0.0;
    int attempt = 1;
    Item* item = nullptr;
    bool operator<(const Entry& other) const {
      if (ready != other.ready) return ready < other.ready;
      const RequestId id = item->req->id, other_id = other.item->req->id;
      if (id != other_id) return id < other_id;
      return attempt < other.attempt;
    }
  };
  std::set<Entry> pending;
  StreamingPercentile duration_p99(0.99);  ///< over committed dispatch durations

  auto free_lane = [&](int exclude) -> int {
    int best = -1;
    for (int l = 0; l < lanes; ++l) {
      if (l == exclude) continue;
      if (best < 0 || lane_free[static_cast<std::size_t>(l)] <
                          lane_free[static_cast<std::size_t>(best)]) {
        best = l;
      }
    }
    return best;
  };
  auto in_flight_at = [&](int lane, double start) {
    int k = 1;
    for (int l = 0; l < lanes; ++l) {
      if (l != lane && lane_free[static_cast<std::size_t>(l)] > start) ++k;
    }
    return k;
  };
  // Earliest outage window overlapping [start, finish) on a GPU the plan
  // places work on; nullptr when the run is clear.
  auto victim_outage = [&](const std::vector<int>& gpus, double start,
                           double finish) -> const GpuOutage* {
    const GpuOutage* best = nullptr;
    for (const GpuOutage& o : options_.outages) {
      if (!(o.from_ms < finish && o.to_ms > start)) continue;
      if (std::find(gpus.begin(), gpus.end(), o.gpu) == gpus.end()) continue;
      if (best == nullptr || std::max(start, o.from_ms) < std::max(start, best->from_ms)) {
        best = &o;
      }
    }
    return best;
  };
  // The plan for the current health state: the full-topology plan resolved
  // above while every GPU is up, else a survivor lookup.
  auto current_plan = [&](Item* item) -> std::shared_ptr<const CachedPlan> {
    if (health_.all_up()) return item->plan;
    return lookup_plan(item->req->model, health_.up_mask());
  };

  // Dispatches queued requests whose lane frees up by `horizon`.
  auto dispatch_until = [&](double horizon) {
    while (!pending.empty()) {
      const Entry e = *pending.begin();
      const int lane = free_lane(-1);
      const double start = std::max(lane_free[static_cast<std::size_t>(lane)], e.ready);
      if (start > horizon) break;
      pending.erase(pending.begin());
      advance_health(start);
      Item* item = e.item;
      Response& resp = item->resp;

      auto plan = current_plan(item);
      const int in_flight = in_flight_at(lane, start);
      const double scale =
          stream_contention_scale(in_flight, options_.request_demand, kappa);
      const double duration = plan->latency_ms * scale;
      const double finish = start + duration;

      resp.lane = lane;
      resp.concurrency = in_flight;
      resp.queue_ms = start - item->req->arrival_ms;
      resp.start_ms = start;
      resp.base_ms = plan->latency_ms;
      resp.contention_scale = scale;
      resp.attempts = e.attempt;
      resp.topo_mask = plan->topo_mask;

      if (finish > item->req->deadline_ms) {
        // Unmeetable deadline: never executed, lane untouched. The first
        // attempt is a plain drop; a retry that can no longer make it
        // terminates as failed (the request did burn a failed attempt).
        resp.finish_ms = start;
        resp.latency_ms = 0.0;
        if (e.attempt == 1) {
          resp.verdict = Verdict::kDropped;
        } else {
          resp.verdict = Verdict::kFailed;
          resp.error = "deadline unmeetable after failed attempt";
        }
        continue;
      }

      if (const GpuOutage* o = victim_outage(plan->gpus, start, finish)) {
        // A GPU this plan lands work on dies mid-request: the attempt
        // fails at detection time, the lane is held until then, and the
        // failure becomes shared health evidence (applied when virtual
        // time reaches it).
        const double detected = std::max(start, o->from_ms);
        lane_free[static_cast<std::size_t>(lane)] = detected;
        evidence.emplace(detected,
                         FaultEvidence{FaultEvidence::Kind::kFailStop, o->gpu, detected});

        const bool attempts_left = e.attempt <= options_.max_retries;
        const double backoff =
            options_.retry_backoff_ms *
            std::pow(options_.retry_backoff_multiplier, e.attempt - 1);
        const double retry_ready = detected + backoff;
        // Deadline-aware: retry only when an uncontended re-run could
        // still make it (the failed plan's base latency is the estimate).
        const bool feasible =
            retry_ready + plan->latency_ms <= item->req->deadline_ms;
        if (attempts_left && feasible) {
          pending.insert(Entry{retry_ready, e.attempt + 1, item});
          metrics_.record_queue_depth(pending.size());
        } else {
          resp.verdict = Verdict::kFailed;
          resp.finish_ms = detected;
          resp.latency_ms = detected - item->req->arrival_ms;
          resp.error = attempts_left ? "retry abandoned: deadline unmeetable"
                                     : "retries exhausted: gpu outage";
        }
        continue;
      }

      // Committed: the attempt completes (provisionally, until the engine
      // proves the tensors).
      resp.verdict = Verdict::kCompleted;
      resp.finish_ms = finish;
      resp.latency_ms = finish - item->req->arrival_ms;
      lane_free[static_cast<std::size_t>(lane)] = finish;
      item->exec_plan = plan;

      // Hedge: when this dispatch projects far beyond the p99 of earlier
      // ones, issue a backup on the next-free lane, cancel the loser the
      // moment the winner completes, keep the winner's numbers. The hedge
      // wins when its lane has drained enough that its (later) start pays
      // a smaller contention scale.
      if (options_.hedge_multiplier > 0.0 && lanes > 1 &&
          static_cast<int>(duration_p99.size()) >= options_.hedge_min_samples &&
          duration > options_.hedge_multiplier * duration_p99.value()) {
        const int lane2 = free_lane(lane);
        const double start2 =
            std::max(lane_free[static_cast<std::size_t>(lane2)], start);
        const int k2 = in_flight_at(lane2, start2);
        const double scale2 =
            stream_contention_scale(k2, options_.request_demand, kappa);
        const double finish2 = start2 + plan->latency_ms * scale2;
        if (victim_outage(plan->gpus, start2, finish2) == nullptr) {
          resp.hedged = true;
          const double winner = std::min(finish, finish2);
          lane_free[static_cast<std::size_t>(lane)] = winner;
          lane_free[static_cast<std::size_t>(lane2)] = winner;
          if (finish2 < finish) {
            resp.hedge_won = true;
            resp.lane = lane2;
            resp.concurrency = k2;
            resp.contention_scale = scale2;
            resp.queue_ms = start2 - item->req->arrival_ms;
            resp.start_ms = start2;
            resp.finish_ms = finish2;
            resp.latency_ms = finish2 - item->req->arrival_ms;
          }
        }
      }
      duration_p99.push(duration);
    }
  };

  for (Item* item : order) {
    const double arrival = item->req->arrival_ms;
    dispatch_until(arrival);
    advance_health(arrival);
    if (!health_.all_up() && std::isfinite(item->req->deadline_ms)) {
      // Circuit breaker: when even an immediately-dispatched run on the
      // survivor plan cannot make the deadline, shed at admission instead
      // of letting the request rot in the queue.
      auto plan = current_plan(item);
      const double free_at = lane_free[static_cast<std::size_t>(free_lane(-1))];
      const double estimate = std::max(arrival, free_at) + plan->latency_ms;
      if (estimate > item->req->deadline_ms) {
        item->resp.verdict = Verdict::kBreakerRejected;
        item->resp.finish_ms = arrival;
        item->resp.topo_mask = plan->topo_mask;
        continue;
      }
    }
    if (pending.size() >= options_.queue_capacity) {
      item->resp.verdict = Verdict::kRejected;
      item->resp.finish_ms = arrival;
    } else {
      pending.insert(Entry{arrival, 1, item});
      item->depth_at_admission = pending.size();
      metrics_.record_queue_depth(pending.size());
    }
  }
  dispatch_until(kInf);

  // --- engine execution of the committed dispatches ---------------------
  // One thread per lane proves the tensors. Results land in per-item
  // slots, so thread interleaving cannot affect anything the report
  // contains.
  std::vector<EngineOutcome> outcomes(items.size());
  if (options_.use_engine) {
    std::vector<std::size_t> work;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].resp.verdict == Verdict::kCompleted) work.push_back(i);
    }
    util::ThreadPool(lanes).parallel_for(work.size(), [&](std::size_t k) {
      const Item& item = items[work[k]];
      outcomes[work[k]] = execute_plan(model(item.req->model), *item.exec_plan);
    });
  }

  // --- assemble report + metrics in request-id order --------------------
  ServeReport report;
  report.timeline.num_gpus = options_.platform.num_gpus;
  std::vector<std::size_t> by_id(items.size());
  for (std::size_t i = 0; i < by_id.size(); ++i) by_id[i] = i;
  std::sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
    return items[a].resp.id < items[b].resp.id;
  });

  for (std::size_t idx : by_id) {
    Item& item = items[idx];
    Response& resp = item.resp;
    EngineOutcome& out = outcomes[idx];
    metrics_.on_submitted();
    if (resp.verdict != Verdict::kRejected && resp.verdict != Verdict::kBreakerRejected) {
      metrics_.on_admitted(item.depth_at_admission);
    }
    if (options_.use_engine && resp.verdict == Verdict::kCompleted) {
      // Dispatch committed only runs that meet their deadline, so the
      // engine either proves the tensors or fails the request.
      if (out.ok) {
        resp.outputs = std::move(out.outputs);
        report.timeline.merge(out.timeline.shifted(resp.start_ms));
      } else {
        resp.verdict = Verdict::kFailed;
        resp.error = out.error;
      }
    }
    metrics_.on_finished(resp);
    report.makespan_ms = std::max(report.makespan_ms, resp.finish_ms);
    report.responses.push_back(std::move(resp));
  }
  metrics_.set_makespan(report.makespan_ms);
  metrics_.record_health(health_);

  const Metrics::Snapshot snap = metrics_.snapshot();
  report.throughput_rps = snap.throughput_rps();
  report.metrics = metrics_.to_json();
  report.health = health_.to_json();
  return report;
}

}  // namespace hios::serve
